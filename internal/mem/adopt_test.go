package mem

import (
	"runtime"
	"testing"
)

// TestAdoptReusesStorage: a memory that adopts another and its snapshots
// maps and copies into their pages instead of allocating, every page it
// hands out reads as a new one, and what it adopted from is left empty.
func TestAdoptReusesStorage(t *testing.T) {
	old := New()
	for _, n := range recyclePages {
		if err := old.StoreWord(mustMap(old, n), 0xDEAD_0000|n); err != nil {
			t.Fatal(err)
		}
	}
	snap := old.Snapshot()
	for _, n := range recyclePages[:4] { // copy-on-write: both now hold a version
		if err := old.StoreWord(n<<PageShift, 7); err != nil {
			t.Fatal(err)
		}
	}

	m := New()
	m.Adopt(old, snap)
	if old.MappedPages() != 0 || snap.MappedPages() != 0 {
		t.Fatalf("adopted from still map %d and %d pages", old.MappedPages(), snap.MappedPages())
	}
	if got, want := len(m.tab.free), len(recyclePages)+4; got != want {
		t.Fatalf("%d pages adopted, want %d: each distinct page once", got, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, n := range recyclePages {
		m.Map(n<<PageShift, PageSize)
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("mapping %d pages over adopted storage allocated %d times", len(recyclePages), allocs)
	}
	for _, n := range recyclePages {
		if v, err := m.LoadWord(n<<PageShift | 4); err != nil || v != 0 {
			t.Fatalf("page %#x reads %#x, %v; want a zero page", n, v, err)
		}
	}
}

// mustMap maps page n of m and returns its first word's address.
func mustMap(m *Memory, n uint32) uint32 {
	m.Map(n<<PageShift, PageSize)
	return n << PageShift
}
