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

// Directory tracks the global sharing state of every touched block. It is
// a flat, pointer-free, open-addressed table: the guest consults it on
// every loggable operation and every word store, so a lookup is a hash
// and a probe of a few adjacent slots, and the collector never scans it.
// The table is allocated in New and doubles when half full; a block that
// is forgotten (ExternalWriteRange) keeps its slot with an empty state, so
// forgetting never inserts and a write over untouched memory adds nothing.
type Directory struct {
	blockShift uint   // log2 of the block size
	hashShift  uint   // 32 - log2(len(slots)): a key's hash keeps the top bits
	slots      []slot // power-of-two length
	used       int    // slots holding a key
	replies    []int  // scratch behind Load and Store's results
	stats      Stats
}

// slot is one block's entry. key is the block number plus one, so the zero
// slot is empty; a block's state with no sharers is the same as an
// untouched block's.
type slot struct {
	key      uint32
	owner    uint8 // meaningful when modified
	modified bool
	sharers  uint64 // bitmask of nodes holding the block
}

// initialSlots sizes a new directory's table: 16 KB, room for 512 blocks
// (32 KB of guest memory at 64-byte blocks) before the first doubling.
const initialSlots = 1 << 10

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
		blockShift: uint(bits.TrailingZeros32(uint32(blockBytes))),
		hashShift:  32 - uint(bits.TrailingZeros32(initialSlots)),
		slots:      make([]slot, initialSlots),
		replies:    make([]int, 0, nodes),
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
	if b.modified && int(b.owner) != tid {
		d.replies = append(d.replies, int(b.owner))
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
	b.owner = uint8(tid)
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

// forget empties the state of addr's block and returns its holder mask.
// It only looks the block up: an untouched block stays untouched.
func (d *Directory) forget(addr uint32) uint64 {
	b := d.find(addr>>d.blockShift + 1)
	held := b.sharers
	*b = slot{key: b.key}
	return held
}

// ExternalWriteRange records a non-processor write (kernel copy-in or DMA)
// to [addr, addr+size): the directory forgets every block the range
// overlaps. It returns the union of the nodes that held them, so the
// caller can invalidate their caches (no MRL entries result — the writer
// is not a thread).
func (d *Directory) ExternalWriteRange(addr, size uint32) []int {
	if size == 0 {
		return nil
	}
	bs := uint32(1) << d.blockShift
	first := addr &^ (bs - 1)
	last := (addr + size - 1) &^ (bs - 1)
	var held uint64
	for b := first; ; b += bs {
		held |= d.forget(b)
		if b == last {
			break
		}
	}
	return appendNodes(nil, held)
}

// block returns addr's slot, inserting the block if it is new.
func (d *Directory) block(addr uint32) *slot {
	key := addr>>d.blockShift + 1
	b := d.find(key)
	if b.key == 0 {
		if 2*(d.used+1) > len(d.slots) {
			d.grow()
			b = d.find(key)
		}
		b.key = key
		d.used++
	}
	return b
}

// find returns key's slot, or the empty slot where key would go.
func (d *Directory) find(key uint32) *slot {
	mask := uint32(len(d.slots) - 1)
	for i := key * 0x9e3779b9 >> d.hashShift; ; i = (i + 1) & mask {
		if b := &d.slots[i]; b.key == key || b.key == 0 {
			return b
		}
	}
}

// grow doubles the table and re-inserts every slot.
func (d *Directory) grow() {
	old := d.slots
	d.slots = make([]slot, 2*len(old))
	d.hashShift--
	for _, b := range old {
		if b.key != 0 {
			*d.find(b.key) = b
		}
	}
}
