package mem

import (
	"slices"
	"testing"
)

// owned collects the parts m and k own alone, as a snapshot would.
func owned(m *Memory, k *KnownSet) (d Delta) {
	add := func(key uint32, _ any) { d = append(d, key) }
	m.Parts(false, add)
	k.Parts(false, add)
	return d
}

// TestPartsOwnedAlone: an image owns what it copied or created since its
// last share, on either side of the share, and nothing more.
func TestPartsOwnedAlone(t *testing.T) {
	m, k := New(), NewKnownSet()
	m.Map(0, 3*PageSize)
	m.Map(1<<22, PageSize) // a second leaf
	k.Add(8)
	if d := owned(m, k); len(d) != 2+4+1+1 || d.Bytes() != 3*leafBytes+4*PageSize+int64(len(knownBits{})*8) {
		t.Fatalf("fresh image owns %d parts, %d bytes: %v", len(d), d.Bytes(), d)
	}
	if !slices.IsSorted(owned(m, k)) {
		t.Fatal("keys must ascend, memory before known set")
	}

	s, c := m.Snapshot(), k.Clone()
	if d := owned(m, k); len(d) != 0 {
		t.Fatalf("image owns %v right after sharing", d)
	}
	if d := owned(s, c); len(d) != 0 {
		t.Fatalf("snapshot owns %v", d)
	}

	// Reads and membership re-inserts copy nothing.
	m.LoadWord(PageSize)
	k.Add(8)
	if d := owned(m, k); len(d) != 0 {
		t.Fatalf("reads left the image owning %v", d)
	}

	// One store: its leaf and its page, not the leaf's other pages.
	m.StoreWord(PageSize+4, 7)
	d := owned(m, k)
	if want := (Delta{0, 2}); !slices.Equal(d, want) {
		t.Fatalf("after one store the image owns %v, want %v", d, want)
	}
	// A new page in that leaf and a new known word on a shared bitmap.
	m.Map(5*PageSize, PageSize)
	k.Add(12)
	if want := (Delta{0, 2, 6, deltaKnown, deltaKnown | 1}); !slices.Equal(owned(m, k), want) {
		t.Fatalf("image owns %v, want %v", owned(m, k), want)
	}
	if d := owned(s, c); len(d) != 0 {
		t.Fatalf("snapshot owns %v after the image moved on", d)
	}
	// The snapshot side of a share owns what it writes, too.
	s.StoreWord(1<<22, 1)
	if want := (Delta{1 << deltaLeafShift, 1<<deltaLeafShift | 1}); !slices.Equal(owned(s, c), want) {
		t.Fatalf("written snapshot owns %v, want %v", owned(s, c), want)
	}
}

func TestDeltaAbsorb(t *testing.T) {
	page, known := uint32(3), uint32(deltaKnown|2)
	d := Delta{0, page, 9}
	o := Delta{0, 5, 9, known}
	both := d.Absorb(o)
	if want := (Delta{0, page, 5, 9, known}); !slices.Equal(d, want) {
		t.Fatalf("union = %v, want %v", d, want)
	}
	if both != leafBytes+PageSize {
		t.Fatalf("both = %d, want a leaf and a page", both)
	}
	if !slices.Equal(o, Delta{0, 5, 9, known}) {
		t.Fatalf("argument modified: %v", o)
	}
	var empty Delta
	if empty.Absorb(o) != 0 || !slices.Equal(empty, o) {
		t.Fatalf("absorbing into the empty set: %v", empty)
	}
	empty[0] = 77
	if o[0] != 0 {
		t.Fatal("result shares storage with the argument")
	}
	if d.Absorb(nil) != 0 || len(d) != 5 {
		t.Fatalf("absorbing the empty set changed %v", d)
	}
}

// BenchmarkSnapshotWalk is what a checkpoint pays to learn what it adds:
// the walk over a 64 MB image must cost by the leaves written since the
// last share (one of sixteen here), not by the pages mapped.
func BenchmarkSnapshotWalk(b *testing.B) {
	m := New()
	m.Map(0, 64<<20)
	m.Snapshot()
	for p := uint32(0); p < 8; p++ {
		m.StoreWord(p*17*PageSize, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = 0
		m.Parts(false, func(uint32, any) { n++ })
	}
	if n != 1+8 {
		b.Fatalf("walk found %d parts", n)
	}
}
