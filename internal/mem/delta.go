package mem

import "unsafe"

// Delta is a set of table parts — leaves and payloads of a Memory's and a
// KnownSet's copy-on-write tables — held as the ascending keys Parts
// reports. The parts an image copied or created since it last shared are
// what the next snapshot holds that no earlier snapshot does. A key is a
// part's position, not its identity: two deltas naming the same key name
// two versions of that part. A checkpoint byte budget counts them, so it
// charges what checkpoints retain rather than every image's unshared size.
//
// Key layout: directory index << deltaLeafShift, plus 0 for the leaf
// itself or 1 + slot for a payload; deltaKnown tags the known set's table.
type Delta []uint32

const (
	deltaLeafShift = leafBits + 1
	deltaKnown     = 1 << 31

	leafBytes = int64(unsafe.Sizeof(leaf[Page]{})) // pointer slots: the same for every payload type
	// DirBytes is the fixed cost of one image: a Snapshot or Clone copies
	// the directory and nothing else.
	DirBytes = int64(unsafe.Sizeof(table[Page]{}))
)

func partBytes(key uint32) int64 {
	switch {
	case key&(1<<deltaLeafShift-1) == 0:
		return leafBytes
	case key&deltaKnown != 0:
		return int64(unsafe.Sizeof(knownBits{}))
	}
	return PageSize
}

// Bytes returns the heap bytes of the parts d names.
func (d Delta) Bytes() int64 {
	var n int64
	for _, k := range d {
		n += partBytes(k)
	}
	return n
}

// Absorb makes d the union of d and o and returns the bytes of the parts
// both named. When o belonged to an evicted checkpoint and d to its
// successor, those are exactly the versions only the evicted checkpoint
// held: the successor replaced them, every other part of o it still shares
// and now answers for. o is not modified and may share no storage with the
// result.
func (d *Delta) Absorb(o Delta) (both int64) {
	a := *d
	if len(o) == 0 {
		return 0
	}
	out := make(Delta, 0, len(a)+len(o))
	for len(a) > 0 && len(o) > 0 {
		switch {
		case a[0] < o[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > o[0]:
			out, o = append(out, o[0]), o[1:]
		default:
			both += partBytes(a[0])
			out, a, o = append(out, a[0]), a[1:], o[1:]
		}
	}
	*d = append(append(out, a...), o...)
	return both
}

// Parts visits the leaves and payloads of m's table with their Delta keys,
// ascending: every one m references when all is set, else only those m
// owns alone — copied or created since its last Snapshot, or since it was
// itself taken as one — in O(leaves present + private leaves). part is the
// table's pointer to the leaf or payload, for identity comparison only.
func (m *Memory) Parts(all bool, fn func(key uint32, part any)) {
	m.tab.walk(all, fn)
}

// Parts is Memory.Parts for the known set (Clone is its share); its keys
// sort after every Memory key. A nil set has no parts.
func (k *KnownSet) Parts(all bool, fn func(key uint32, part any)) {
	if k != nil {
		k.tab.walk(all, func(key uint32, part any) { fn(key|deltaKnown, part) })
	}
}
