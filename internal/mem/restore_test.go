package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// restorePoint is one snapshot pair: the in-place side's and the reference
// side's images of the same moment, and the contents both must keep.
type restorePoint struct {
	m, mRef *Memory
	k, kRef *KnownSet
	want    map[uint32]Page
}

// unreachable fails when any part t owns alone, or keeps on its free lists,
// is reachable from a live snapshot: a write into it would show through
// that snapshot.
func unreachable[T any](t *testing.T, what string, tab *table[T], live func(func(any))) {
	t.Helper()
	reach := make(map[any]bool)
	live(func(p any) { reach[p] = true })
	tab.walk(false, func(key uint32, p any) {
		if reach[p] {
			t.Fatalf("%s: part %#x the table owns alone is reachable from a snapshot", what, key)
		}
	})
	for _, p := range tab.free {
		if reach[p] {
			t.Fatalf("%s: a free payload is reachable from a snapshot", what)
		}
	}
	for _, l := range tab.freeLeaves {
		if reach[l] {
			t.Fatalf("%s: a free leaf is reachable from a snapshot", what)
		}
	}
}

// runRestoreSchedule drives two memories and two known sets through one
// schedule, four bytes an operation (op, page, offset, value). Where the
// schedule restores, one side uses RestoreFrom and the other replaces its
// image with the snapshot's Snapshot() or Clone(); where it recycles, one
// side recycles and the other starts anew. From then on every result and
// every byte must agree, Gen must have moved, and no part the in-place side
// may write is one a snapshot still holds. After every operation the
// directory's present bits match its leaves, and the freed range names
// exactly the payloads the operation put on the free list.
func runRestoreSchedule(t *testing.T, data []byte) {
	t.Helper()
	m, mRef := New(), New()
	k, kRef := NewKnownSet(), NewKnownSet()
	var points []restorePoint
	live := func(visit func(any)) {
		for _, p := range points {
			p.m.Parts(true, func(_ uint32, part any) { visit(part) })
			p.k.Parts(true, func(_ uint32, part any) { visit(part) })
		}
	}
	for step := 0; len(data) >= 4; step++ {
		op, pg, off, val := data[0], data[1], data[2], data[3]
		data = data[4:]
		page := recyclePages[int(pg)%len(recyclePages)]
		addr := page<<PageShift | uint32(off)<<4&(PageSize-1)
		word := uint32(val)<<24 | uint32(step)<<8 | 1 // never zero
		span := uint32(val%3) * PageSize
		if addr+span < addr {
			span = 0
		}

		seen, seenGen := m.Page(page), m.Gen()
		probe, kProbe := probeFreed(&m.tab), probeFreed(&k.tab)
		switch op % 11 {
		case 0:
			m.Map(addr, span+4)
			mRef.Map(addr, span+4)
		case 1:
			g, w := m.StoreWord(addr, word), mRef.StoreWord(addr, word)
			if (g == nil) != (w == nil) {
				t.Fatalf("step %d: StoreWord(%#x): %v, the reference says %v", step, addr, g, w)
			}
		case 2:
			m.Unmap(addr&^(PageSize-1), span+PageSize)
			mRef.Unmap(addr&^(PageSize-1), span+PageSize)
		case 3:
			if g, w := m.TryMap(addr, span+4), mRef.TryMap(addr, span+4); g != w {
				t.Fatalf("step %d: TryMap(%#x) = %v, the reference says %v", step, addr, g, w)
			}
			m.MapLimit, mRef.MapLimit = int(val%8), int(val%8)
		case 4, 5:
			k.Add(addr)
			kRef.Add(addr)
		case 6:
			points = append(points, restorePoint{m.Snapshot(), mRef.Snapshot(), k.Clone(), kRef.Clone(), dump(mRef)})
		case 7, 8:
			if len(points) == 0 {
				break
			}
			p := points[int(val)%len(points)]
			gen, kGen := m.Gen(), k.tab.gen
			m.RestoreFrom(p.m)
			mRef = p.mRef.Snapshot()
			k.RestoreFrom(p.k)
			kRef = p.kRef.Clone()
			if m.Gen() <= gen || k.tab.gen <= kGen {
				t.Fatalf("step %d: restore left Gen at %d (was %d), known set's at %d (was %d)", step, m.Gen(), gen, k.tab.gen, kGen)
			}
			sameImage(t, "restored memory against the reference", m, dump(mRef))
		case 9:
			gen := m.Gen()
			m.Recycle()
			mRef = New()
			k.RestoreFrom(nil)
			kRef = NewKnownSet()
			if m.Gen() <= gen {
				t.Fatalf("step %d: Recycle left Gen at %d", step, gen)
			}
		default: // a write through a snapshot is the snapshot's alone
			if len(points) == 0 {
				break
			}
			p := &points[int(val)%len(points)]
			if p.m.StoreWord(addr, word) == nil {
				if p.mRef.StoreWord(addr, word) != nil {
					t.Fatalf("step %d: snapshot pair disagrees on %#x", step, addr)
				}
				w := p.want[page]
				o := addr & (PageSize - 1)
				w[o], w[o+1], w[o+2], w[o+3] = byte(word), byte(word>>8), byte(word>>16), byte(word>>24)
				p.want[page] = w
			}
		}
		if m.MappedPages() != mRef.MappedPages() || m.Mapped(addr) != mRef.Mapped(addr) {
			t.Fatalf("step %d (op %d): %d pages mapped (addr %#x: %v), the reference has %d (%v)", step, op%11,
				m.MappedPages(), addr, m.Mapped(addr), mRef.MappedPages(), mRef.Mapped(addr))
		}
		if g, w := m.Page(page), mRef.Page(page); (g == nil) != (w == nil) || g != nil && *g != *w {
			t.Fatalf("step %d (op %d): page %#x differs from the reference", step, op%11, page)
		}
		if k.Len() != kRef.Len() || k.Has(addr) != kRef.Has(addr) {
			t.Fatalf("step %d (op %d): known set has %d words (%#x: %v), the reference %d (%v)", step, op%11,
				k.Len(), addr, k.Has(addr), kRef.Len(), kRef.Has(addr))
		}
		if seen != nil && m.Gen() == seenGen && m.Page(page) != seen {
			t.Fatalf("step %d (op %d): page %#x moved while Gen stood at %d", step, op%11, page, seenGen)
		}
		unreachable(t, "memory", &m.tab, live)
		unreachable(t, "known set", &k.tab, live)
		presentExact(t, "memory", &m.tab)
		presentExact(t, "known set", &k.tab)
		probe.freedExact(t, "memory", &m.tab)
		kProbe.freedExact(t, "known set", &k.tab)
	}
	sameImage(t, "in-place memory against the reference", m, dump(mRef))
	if !slices.Equal(k.Words(), kRef.Words()) {
		t.Fatalf("known words differ: %d against the reference's %d", k.Len(), kRef.Len())
	}
	for _, p := range points {
		sameImage(t, "snapshot", p.m, p.want)
		if !slices.Equal(p.k.Words(), p.kRef.Words()) {
			t.Fatal("a known-set snapshot changed under the in-place side")
		}
	}
}

// restoreSeeds walk the cases by hand; the fuzzer starts from them.
func restoreSeeds() [][]byte {
	op := func(o, pg, off, val byte) []byte { return []byte{o, pg, off, val} }
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	return [][]byte{
		// Snapshot, dirty a page, restore: the copy goes to the free list and
		// the next write's copy comes out of it, never the snapshot's page.
		cat(op(0, 0, 0, 2), op(1, 0, 1, 1), op(4, 0, 1, 0), op(6, 0, 0, 0), op(1, 0, 1, 2), op(4, 1, 1, 0),
			op(7, 0, 0, 0), op(1, 0, 1, 3), op(1, 1, 1, 3), op(4, 2, 0, 0), op(8, 0, 0, 0), op(1, 0, 2, 4)),
		// Two snapshots, restore the older, write, restore the newer.
		cat(op(0, 5, 0, 0), op(1, 5, 0, 1), op(6, 0, 0, 0), op(1, 5, 0, 2), op(0, 6, 0, 1), op(6, 0, 0, 0),
			op(1, 6, 0, 3), op(7, 0, 0, 0), op(1, 5, 0, 4), op(4, 5, 0, 0), op(7, 0, 0, 1), op(1, 6, 0, 5)),
		// A leaf created after the snapshot is recycled by the restore and
		// comes back as another directory slot's copy-on-write leaf.
		cat(op(0, 0, 0, 0), op(6, 0, 0, 0), op(0, 9, 0, 0), op(1, 9, 0, 1), op(4, 9, 0, 0), op(7, 0, 0, 0),
			op(1, 0, 0, 2), op(4, 0, 0, 0), op(9, 0, 0, 0), op(0, 5, 0, 0), op(1, 5, 0, 6)),
		// Restore, write through the snapshot, restore again: the second
		// restore sees the snapshot's write, the in-place side's never.
		cat(op(0, 1, 0, 0), op(1, 1, 0, 1), op(6, 0, 0, 0), op(8, 0, 0, 0), op(10, 1, 0, 0), op(1, 1, 0, 7),
			op(8, 0, 0, 0), op(1, 1, 4, 8)),
		// The map limit goes with the snapshot; an unmap after a restore.
		cat(op(3, 0, 0, 2), op(3, 1, 0, 2), op(6, 0, 0, 0), op(3, 2, 0, 5), op(2, 0, 0, 0), op(7, 0, 0, 0),
			op(3, 2, 0, 1), op(2, 1, 0, 0), op(1, 0, 0, 1)),
	}
}

// TestRestoreInPlaceVsSnapshot: an in-place restore is the snapshot's
// Snapshot() (Clone() for a known set), and a recycled one is a new one,
// over the seeds and seeded random schedules.
func TestRestoreInPlaceVsSnapshot(t *testing.T) {
	for _, s := range restoreSeeds() {
		runRestoreSchedule(t, s)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 150; i++ {
		s := make([]byte, 4*(1+rng.Intn(120)))
		rng.Read(s)
		runRestoreSchedule(t, s)
	}
}

// TestRestoreInPlaceReusesPages: once a restore has handed back what the
// image dirtied, dirtying the same pages again copies into that storage.
func TestRestoreInPlaceReusesPages(t *testing.T) {
	m, k := New(), NewKnownSet()
	for _, n := range recyclePages {
		m.Map(n<<PageShift, PageSize)
		k.Add(n << PageShift)
	}
	snap, ksnap := m.Snapshot(), k.Clone()
	dirty := func() {
		for _, n := range recyclePages {
			if err := m.StoreWord(n<<PageShift, n+1); err != nil {
				t.Fatal(err)
			}
			k.Add(n<<PageShift | 4)
		}
		m.RestoreFrom(snap)
		k.RestoreFrom(ksnap)
	}
	dirty()
	if got := testing.AllocsPerRun(20, dirty); got != 0 {
		t.Errorf("dirtying pages a restore handed back allocated %.0f times; want 0", got)
	}
}

func FuzzRestoreInPlaceVsSnapshot(f *testing.F) {
	for _, s := range restoreSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			t.Skip()
		}
		runRestoreSchedule(t, data)
	})
}
