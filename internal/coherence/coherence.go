// Package coherence models the directory-based cache-coherence protocol of
// the shared-memory multiprocessor BugNet assumes (paper §4.6.1).
//
// The model is an MSI directory at cache-block granularity. It is
// functional rather than timed: its job is to tell the recorder which
// remote threads send coherence replies for each memory operation, because
// those replies are what (a) invalidate remote first-load bits, forcing
// remotely written values to be re-logged, and (b) piggy-back the remote
// execution state captured in Memory Race Log entries.
//
// Reply rules (matching FDR's scheme, which BugNet adopts):
//
//   - a load that finds the block Modified in another processor receives a
//     data reply from that owner (the owner downgrades to Shared);
//   - a store invalidates every other sharer and receives one invalidation
//     acknowledgment from each; a Modified remote owner likewise replies;
//   - loads and stores to blocks in non-shared or exclusive state receive
//     no replies and generate no MRL entries (paper §4.6.3).
//
// The directory deliberately does not track cache evictions (real
// directories are similarly conservative); a stale sharer entry only causes
// a harmless extra invalidation message.
package coherence

import "math/bits"

// Directory tracks the global sharing state of every touched block.
type Directory struct {
	blockMask uint32
	blocks    map[uint32]*blockState
	replies   []int // scratch behind Load and Store's results
	stats     Stats
}

type blockState struct {
	sharers  uint64 // bitmask of nodes holding the block
	owner    int    // meaningful when modified
	modified bool
}

// Stats counts protocol events.
type Stats struct {
	Loads         uint64
	Stores        uint64
	DataReplies   uint64 // owner-to-requester replies on loads
	Invalidations uint64 // invalidation acknowledgments on stores
}

// New creates a directory for up to nodes processors (max 64) and the
// given block size (power of two).
func New(nodes int, blockBytes int) *Directory {
	if nodes < 1 || nodes > 64 {
		panic("coherence: node count out of range")
	}
	if blockBytes < 4 || blockBytes&(blockBytes-1) != 0 {
		panic("coherence: block size must be a power of two >= 4")
	}
	return &Directory{
		blockMask: ^uint32(blockBytes - 1),
		blocks:    make(map[uint32]*blockState),
		replies:   make([]int, 0, nodes),
	}
}

// Stats returns protocol event counters.
func (d *Directory) Stats() Stats { return d.stats }

// Load records node tid reading addr and returns the remote nodes that
// send coherence replies (at most one: the modified owner). The result is
// the directory's own scratch, valid until the next Load or Store: the hook
// runs on every guest memory access, so a reply must not cost an allocation.
func (d *Directory) Load(tid int, addr uint32) []int {
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
func (d *Directory) Store(tid int, addr uint32) []int {
	d.stats.Stores++
	b := d.block(addr)
	d.replies = appendNodes(d.replies[:0], b.sharers&^(1<<uint(tid)))
	d.stats.Invalidations += uint64(len(d.replies))
	b.sharers = 1 << uint(tid)
	b.owner = tid
	b.modified = true
	return d.replies
}

// appendNodes appends the nodes of a holder mask to out, ascending.
func appendNodes(out []int, mask uint64) []int {
	for ; mask != 0; mask &= mask - 1 {
		out = append(out, bits.TrailingZeros64(mask))
	}
	return out
}

// ExternalWrite records a non-processor write (kernel copy-in or DMA) to
// addr: all cached copies are invalidated and the directory forgets the
// block. It returns the nodes that held the block so the caller can
// invalidate their caches (no MRL entries result — the writer is not a
// thread).
func (d *Directory) ExternalWrite(addr uint32) []int {
	return appendNodes(nil, d.forget(addr))
}

// forget drops addr's block from the directory and returns its holder mask.
func (d *Directory) forget(addr uint32) uint64 {
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
func (d *Directory) ExternalWriteRange(addr, size uint32) []int {
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

func (d *Directory) block(addr uint32) *blockState {
	key := addr & d.blockMask
	b, ok := d.blocks[key]
	if !ok {
		b = &blockState{}
		d.blocks[key] = b
	}
	return b
}
