package mem

// pagetable.go implements the generic two-level copy-on-write page table
// behind both the guest memory image (payload: one 4 KB page) and the §7.1
// known-memory bitmap (payload: one bit per word of a page).
//
// A 32-bit address space at 4 KB pages leaves 20 bits of page number,
// split 10/10: a fixed directory of 1024 leaf pointers, each leaf holding
// 1024 payload pointers. Lookup is two array indexes and two nil checks —
// no hashing — which is what takes the per-access hot paths of the
// recorder and the replay machines from hash-map cost to branch-and-index
// cost.
//
// Snapshots are copy-on-write at both levels. Sharing a table into a
// fresh one copies only the directory (1024 pointers) and marks every
// leaf shared in *both* tables; the first write through either table
// copies the leaf (1024 pointers) and marks its payloads shared; the
// first write to a payload copies the payload. A snapshot therefore costs
// O(directory) up front and each side pays O(1) per page it subsequently
// dirties — not O(pages) eager deep copies, and never a hash-map clone.
//
// The table is not safe for concurrent use, matching Memory's contract.

const (
	// pageIndexBits is the width of a page number.
	pageIndexBits = 32 - PageShift
	// leafBits indexes within a leaf; dirBits indexes the directory.
	leafBits  = 10
	dirBits   = pageIndexBits - leafBits
	leafSlots = 1 << leafBits
	dirSlots  = 1 << dirBits
	leafMask  = leafSlots - 1
)

// leaf is one second-level block of payload pointers plus the
// copy-on-write bits of its payloads.
type leaf[T any] struct {
	slots [leafSlots]*T
	// shared marks payloads that may be referenced by another table (or a
	// snapshot) and must be copied before mutation.
	shared [leafSlots / 64]uint64
	// used counts non-nil slots, so emptied leaves can be dropped.
	used int
}

// table is the two-level COW structure. The zero value is an empty table.
type table[T any] struct {
	dir [dirSlots]*leaf[T]
	// dirShared marks leaves that may be referenced by another table and
	// must be copied before any mutation through them.
	dirShared [dirSlots / 64]uint64
	// count is the total number of non-nil payloads.
	count int
	// gen increments whenever a payload pointer previously handed out may
	// have gone stale: a copy-on-write payload replacement or a removal.
	// Callers caching payload pointers (the CPU's predecoded blocks)
	// revalidate against it.
	gen uint64
	// free and freeLeaves hold the payloads and leaves recycle kept back for
	// new and copy-on-write parts to reuse; nothing else references them.
	free       []*T
	freeLeaves []*leaf[T]
}

// load returns the payload at idx for reading, or nil. Callers must not
// mutate the result; use mutable for writes.
func (t *table[T]) load(idx uint32) *T {
	l := t.dir[idx>>leafBits]
	if l == nil {
		return nil
	}
	return l.slots[idx&leafMask]
}

// peek returns the payload at idx for reading, or nil, and whether a write
// to it must go through mutable (the payload or its leaf is shared).
func (t *table[T]) peek(idx uint32) (*T, bool) {
	di := idx >> leafBits
	l := t.dir[di]
	if l == nil {
		return nil, false
	}
	si := idx & leafMask
	return l.slots[si], t.dirShared[di>>6]&(1<<(di&63)) != 0 || l.shared[si>>6]&(1<<(si&63)) != 0
}

// mutableLeaf returns idx's leaf privately owned by t, copying a shared
// leaf first. The caller must know the leaf exists.
func (t *table[T]) mutableLeaf(di uint32) *leaf[T] {
	l := t.dir[di]
	if t.dirShared[di>>6]&(1<<(di&63)) == 0 {
		return l
	}
	cp := t.newLeaf()
	cp.slots, cp.used = l.slots, l.used
	// Every payload in the copy is now referenced from two leaves; the
	// original keeps its own view (it stays shared from the other table's
	// perspective and is never written through t again). Bits over nil
	// slots are cleared by ensure on creation.
	for i := range cp.shared {
		cp.shared[i] = ^uint64(0)
	}
	t.dir[di] = cp
	t.dirShared[di>>6] &^= 1 << (di & 63)
	return cp
}

// privatize replaces the shared payload in slot si of l — a leaf t already
// owns — with a private copy, made in a payload recycle kept when there is
// one. The original stays with the tables that still reference it;
// pointers handed out for it are stale in t, so gen moves.
func (t *table[T]) privatize(l *leaf[T], si uint32) {
	cp := t.spare()
	*cp = *l.slots[si]
	l.slots[si] = cp
	l.shared[si>>6] &^= 1 << (si & 63)
	t.gen++
}

// mutable returns the payload at idx for writing, or nil if absent,
// copying shared structure as needed (copy-on-write).
func (t *table[T]) mutable(idx uint32) *T {
	di := idx >> leafBits
	l := t.dir[di]
	if l == nil {
		return nil
	}
	si := idx & leafMask
	if l.slots[si] == nil {
		return nil
	}
	if t.dirShared[di>>6]&(1<<(di&63)) != 0 {
		l = t.mutableLeaf(di)
	}
	if l.shared[si>>6]&(1<<(si&63)) != 0 {
		t.privatize(l, si)
	}
	return l.slots[si]
}

// ensure returns the payload at idx for writing, creating a zero payload
// if absent.
func (t *table[T]) ensure(idx uint32) *T {
	di := idx >> leafBits
	si := idx & leafMask
	if t.dir[di] == nil {
		t.dir[di] = t.newLeaf()
	}
	l := t.dir[di]
	if t.dirShared[di>>6]&(1<<(di&63)) != 0 {
		l = t.mutableLeaf(di)
	}
	if l.slots[si] == nil {
		l.slots[si] = t.newPayload()
		l.shared[si>>6] &^= 1 << (si & 63)
		l.used++
		t.count++
		return l.slots[si]
	}
	if l.shared[si>>6]&(1<<(si&63)) != 0 {
		t.privatize(l, si)
	}
	return l.slots[si]
}

// newLeaf returns an empty leaf: one recycle kept, or a new one.
func (t *table[T]) newLeaf() *leaf[T] {
	n := len(t.freeLeaves)
	if n == 0 {
		return new(leaf[T])
	}
	l := t.freeLeaves[n-1]
	t.freeLeaves = t.freeLeaves[:n-1]
	return l
}

// newPayload returns a zero payload: one recycle kept, zeroed now, or a new
// one.
func (t *table[T]) newPayload() *T {
	if len(t.free) == 0 {
		return new(T)
	}
	p := t.spare()
	var zero T
	*p = zero
	return p
}

// spare returns a payload for the caller to overwrite whole: one recycle
// kept, or a new one.
func (t *table[T]) spare() *T {
	n := len(t.free)
	if n == 0 {
		return new(T)
	}
	p := t.free[n-1]
	t.free = t.free[:n-1]
	return p
}

// remove drops the payload at idx if present.
func (t *table[T]) remove(idx uint32) {
	di := idx >> leafBits
	if t.dir[di] == nil {
		return
	}
	si := idx & leafMask
	if t.dir[di].slots[si] == nil {
		return
	}
	l := t.mutableLeaf(di)
	l.slots[si] = nil
	l.shared[si>>6] &^= 1 << (si & 63)
	l.used--
	t.count--
	t.gen++
	if l.used == 0 {
		t.dir[di] = nil
		t.dirShared[di>>6] &^= 1 << (di & 63)
	}
}

// reset empties the table in O(directory), leaving shared structure to
// the tables it was shared with.
func (t *table[T]) reset() {
	t.dir = [dirSlots]*leaf[T]{}
	t.dirShared = [dirSlots / 64]uint64{}
	t.count = 0
	t.gen++
}

// recycle is reset, except that the leaves t owns alone, and within them the
// payloads it owns alone, go to the free lists for ensure, mutableLeaf and
// privatize to hand out again (a leaf emptied here, a payload zeroed or
// overwritten there). Whatever is shared with another table stays with that
// table, untouched: a snapshot taken before a recycle never sees a later
// write.
func (t *table[T]) recycle() {
	for di, l := range t.dir {
		if l == nil || t.dirShared[di>>6]&(1<<(di&63)) != 0 {
			continue
		}
		for si, p := range l.slots {
			if p != nil && l.shared[si>>6]&(1<<(si&63)) == 0 {
				t.free = append(t.free, p)
			}
		}
		*l = leaf[T]{}
		t.freeLeaves = append(t.freeLeaves, l)
	}
	t.reset()
}

// shareInto makes dst an independent logical copy of t in O(directory):
// dst adopts t's directory and every existing leaf becomes shared in both
// tables, deferring all data copying to future writes. dst must be empty.
func (t *table[T]) shareInto(dst *table[T]) {
	dst.dir = t.dir
	dst.count = t.count
	var mask [dirSlots / 64]uint64
	for i, l := range t.dir {
		if l != nil {
			mask[i>>6] |= 1 << (i & 63)
		}
	}
	dst.dirShared = mask
	for i := range mask {
		t.dirShared[i] |= mask[i]
	}
}

// forEach visits every present payload in ascending idx order.
func (t *table[T]) forEach(fn func(idx uint32, p *T)) {
	for di, l := range t.dir {
		if l == nil {
			continue
		}
		for si := 0; si < leafSlots; si++ {
			if p := l.slots[si]; p != nil {
				fn(uint32(di)<<leafBits|uint32(si), p)
			}
		}
	}
}

// walk visits t's leaves and payloads in ascending key order (see Delta
// for the key layout), a leaf before its payloads. With all unset it
// visits only what t owns alone: the leaves, and within them the payloads,
// it copied or created since it last shared (shareInto, in either
// direction) — O(directory + private leaves), so a snapshot can afford it.
func (t *table[T]) walk(all bool, fn func(key uint32, part any)) {
	for di, l := range t.dir {
		own := t.dirShared[di>>6]&(1<<(di&63)) == 0
		if l == nil || !(all || own) {
			continue
		}
		base := uint32(di) << deltaLeafShift
		fn(base, l)
		for si, p := range l.slots {
			if p != nil && (all || l.shared[si>>6]&(1<<(si&63)) == 0) {
				fn(base|uint32(si+1), p)
			}
		}
	}
}
