package coherence

// reference_test.go keeps the map-based directory the flat table replaced,
// as it was, for the differential tests in coherence_test.go: one block
// state allocated per touched block, looked up in a Go map, dropped from
// the map when forgotten. Only the names changed; Stats and appendNodes
// are the package's own.

// refDirectory tracks the global sharing state of every touched block.
type refDirectory struct {
	blockMask uint32
	blocks    map[uint32]*refBlockState
	replies   []int // scratch behind Load and Store's results
	stats     Stats
}

type refBlockState struct {
	sharers  uint64 // bitmask of nodes holding the block
	owner    int    // meaningful when modified
	modified bool
}

// newRef creates a directory for up to nodes processors (max 64) and the
// given block size (power of two).
func newRef(nodes int, blockBytes int) *refDirectory {
	if nodes < 1 || nodes > 64 {
		panic("coherence: node count out of range")
	}
	if blockBytes < 4 || blockBytes&(blockBytes-1) != 0 {
		panic("coherence: block size must be a power of two >= 4")
	}
	return &refDirectory{
		blockMask: ^uint32(blockBytes - 1),
		blocks:    make(map[uint32]*refBlockState),
		replies:   make([]int, 0, nodes),
	}
}

// Stats returns protocol event counters.
func (d *refDirectory) Stats() Stats { return d.stats }

// Load records node tid reading addr and returns the remote nodes that
// send coherence replies (at most one: the modified owner). The result is
// the directory's own scratch, valid until the next Load or Store: the hook
// runs on every guest memory access, so a reply must not cost an allocation.
func (d *refDirectory) Load(tid int, addr uint32) []int {
	d.stats.Loads++
	b := d.block(addr)
	d.replies = d.replies[:0]
	if b.modified && b.owner != tid {
		d.replies = append(d.replies, b.owner)
		d.stats.DataReplies++
		b.modified = false
	}
	b.sharers |= 1 << uint(tid)
	return d.replies
}

// Store records node tid writing addr and returns the remote nodes that
// send invalidation acknowledgments (every other sharer). After a store
// the writer is the exclusive modified owner. Like Load's, the result is
// the directory's own scratch, valid until the next Load or Store.
func (d *refDirectory) Store(tid int, addr uint32) []int {
	d.stats.Stores++
	b := d.block(addr)
	d.replies = appendNodes(d.replies[:0], b.sharers&^(1<<uint(tid)))
	d.stats.Invalidations += uint64(len(d.replies))
	b.sharers = 1 << uint(tid)
	b.owner = tid
	b.modified = true
	return d.replies
}

// ExternalWrite records a non-processor write (kernel copy-in or DMA) to
// addr: all cached copies are invalidated and the directory forgets the
// block. It returns the nodes that held the block so the caller can
// invalidate their caches (no MRL entries result — the writer is not a
// thread).
func (d *refDirectory) ExternalWrite(addr uint32) []int {
	return appendNodes(nil, d.forget(addr))
}

// forget drops addr's block from the directory and returns its holder mask.
func (d *refDirectory) forget(addr uint32) uint64 {
	key := addr & d.blockMask
	b, ok := d.blocks[key]
	if !ok {
		return 0
	}
	delete(d.blocks, key)
	return b.sharers
}

// ExternalWriteRange applies ExternalWrite to every block overlapping
// [addr, addr+size) and returns the union of holders.
func (d *refDirectory) ExternalWriteRange(addr, size uint32) []int {
	if size == 0 {
		return nil
	}
	bs := ^d.blockMask + 1
	first := addr & d.blockMask
	last := (addr + size - 1) & d.blockMask
	var held uint64
	for b := first; ; b += bs {
		held |= d.forget(b)
		if b == last {
			break
		}
	}
	return appendNodes(nil, held)
}

func (d *refDirectory) block(addr uint32) *refBlockState {
	key := addr & d.blockMask
	b, ok := d.blocks[key]
	if !ok {
		b = &refBlockState{}
		d.blocks[key] = b
	}
	return b
}
