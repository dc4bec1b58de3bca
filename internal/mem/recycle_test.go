package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// recyclePages are the page numbers the schedules touch: a run inside one
// page-table leaf, a run in a second leaf, and the last page of the address
// space, so leaves empty, refill and get reused for another directory slot.
var recyclePages = []uint32{0, 1, 2, 3, 5, 1024, 1025, 1027, 1 << 19, 1<<20 - 1}

// frozen is a snapshot plus the contents it must keep for ever.
type frozen struct {
	m    *Memory
	want map[uint32]Page
}

func dump(m *Memory) map[uint32]Page {
	out := make(map[uint32]Page)
	for _, n := range m.PageNumbers() {
		out[n] = *m.Page(n)
	}
	return out
}

func sameImage(t *testing.T, what string, got *Memory, want map[uint32]Page) {
	t.Helper()
	if got.MappedPages() != len(want) {
		t.Fatalf("%s: %d pages mapped, want %d", what, got.MappedPages(), len(want))
	}
	for _, n := range got.PageNumbers() {
		w, ok := want[n]
		if !ok {
			t.Fatalf("%s: page %#x mapped, want it unmapped", what, n)
		}
		if p := got.Page(n); !bytes.Equal(p[:], w[:]) {
			t.Fatalf("%s: page %#x differs", what, n)
		}
	}
}

// runRecycleSchedule drives two memories through one schedule, four bytes
// an operation (op, page, offset, value). Where the schedule says recycle,
// one is recycled and the other is replaced by New(): from then on every
// result, every fault and every byte must agree. Snapshots are taken of the
// recycled one only, and each must read for ever as it did when taken.
func runRecycleSchedule(t *testing.T, data []byte) {
	t.Helper()
	rec, fresh := New(), New()
	var snaps []frozen
	for step := 0; len(data) >= 4; step++ {
		op, pg, off, val := data[0], data[1], data[2], data[3]
		data = data[4:]
		page := recyclePages[int(pg)%len(recyclePages)]
		addr := page<<PageShift | uint32(off)<<4&(PageSize-1)
		word := uint32(val)<<24 | uint32(step)<<8 | 1 // never zero
		span := uint32(val%3) * PageSize              // Map/Unmap reach up to two pages further
		if addr+span < addr {
			span = 0
		}

		// A page pointer is good for as long as Gen stands still.
		seen, seenGen := rec.Page(page), rec.Gen()
		switch op % 10 {
		case 0:
			rec.Map(addr, span+4)
			fresh.Map(addr, span+4)
		case 1:
			if g, w := rec.TryMap(addr, span+4), fresh.TryMap(addr, span+4); g != w {
				t.Fatalf("step %d: TryMap(%#x) = %v, a new memory says %v", step, addr, g, w)
			}
		case 2:
			rec.MapLimit, fresh.MapLimit = int(val%8), int(val%8)
		case 3:
			g, w := rec.StoreWord(addr, word), fresh.StoreWord(addr, word)
			if (g == nil) != (w == nil) {
				t.Fatalf("step %d: StoreWord(%#x): %v, a new memory says %v", step, addr, g, w)
			}
		case 4:
			g, gerr := rec.LoadWord(addr)
			w, werr := fresh.LoadWord(addr)
			if g != w || (gerr == nil) != (werr == nil) {
				t.Fatalf("step %d: LoadWord(%#x) = %#x, %v; a new memory says %#x, %v", step, addr, g, gerr, w, werr)
			}
		case 5:
			rec.Unmap(addr&^(PageSize-1), span+PageSize)
			fresh.Unmap(addr&^(PageSize-1), span+PageSize)
		case 6:
			snaps = append(snaps, frozen{rec.Snapshot(), dump(rec)})
			fresh.Snapshot() // shares fresh's pages too, so copy-on-write runs on both sides
		case 7:
			if len(snaps) > 0 { // a write through a snapshot is the snapshot's alone
				s := snaps[int(val)%len(snaps)]
				if s.m.StoreWord(addr, word) == nil {
					p := s.want[page]
					p[addr&(PageSize-1)] = byte(word)
					p[addr&(PageSize-1)+1] = byte(word >> 8)
					p[addr&(PageSize-1)+2] = byte(word >> 16)
					p[addr&(PageSize-1)+3] = byte(word >> 24)
					s.want[page] = p
				}
			}
		default: // two in ten: the operation under test
			before := rec.Gen()
			rec.Recycle()
			fresh = New()
			if rec.Gen() == before {
				t.Fatalf("step %d: Recycle left Gen at %d: page pointers handed out before it look valid", step, before)
			}
			if rec.MapLimit != 0 {
				t.Fatalf("step %d: Recycle kept MapLimit %d", step, rec.MapLimit)
			}
		}
		if rec.MappedPages() != fresh.MappedPages() || rec.Mapped(addr) != fresh.Mapped(addr) {
			t.Fatalf("step %d (op %d): %d pages mapped (addr %#x: %v), a new memory has %d (%v)", step, op%10,
				rec.MappedPages(), addr, rec.Mapped(addr), fresh.MappedPages(), fresh.Mapped(addr))
		}
		if seen != nil && rec.Gen() == seenGen && rec.Page(page) != seen {
			t.Fatalf("step %d (op %d): page %#x moved while Gen stood at %d", step, op%10, page, seenGen)
		}
	}
	sameImage(t, "recycled memory against a new one", rec, dump(fresh))
	for _, s := range snaps {
		sameImage(t, "snapshot", s.m, s.want)
	}
}

// recycleSeeds are schedules that walk the cases by hand; the fuzzer starts
// from them.
func recycleSeeds() [][]byte {
	op := func(o, pg, off, val byte) []byte { return []byte{o, pg, off, val} }
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	return [][]byte{
		// Dirty a page, recycle, map it again: it must read zero.
		cat(op(0, 0, 1, 0), op(3, 0, 1, 9), op(8, 0, 0, 0), op(4, 0, 1, 0), op(0, 0, 1, 0), op(4, 0, 1, 0)),
		// Snapshot, recycle, then write where the snapshot's pages were.
		cat(op(0, 1, 0, 2), op(3, 1, 2, 7), op(3, 2, 2, 7), op(6, 0, 0, 0), op(9, 0, 0, 0),
			op(0, 1, 0, 2), op(3, 1, 2, 5), op(3, 2, 2, 5), op(0, 5, 0, 0), op(3, 5, 0, 1)),
		// Snapshot, dirty one page (copy-on-write), recycle: only the copy is free.
		cat(op(0, 0, 0, 2), op(3, 0, 0, 1), op(6, 0, 0, 0), op(3, 0, 0, 2), op(3, 1, 0, 2), op(8, 0, 0, 0),
			op(0, 3, 0, 0), op(3, 3, 0, 3), op(0, 0, 0, 2), op(3, 2, 0, 4), op(7, 1, 3, 0)),
		// A leaf freed under one directory slot is reused under another.
		cat(op(0, 5, 0, 0), op(3, 5, 0, 1), op(9, 0, 0, 0), op(0, 9, 0, 0), op(4, 9, 0, 0), op(0, 5, 0, 0), op(4, 5, 0, 0)),
		// The limit goes with the recycle; TryMap is refused before it, not after.
		cat(op(2, 0, 0, 2), op(1, 0, 0, 0), op(1, 1, 0, 0), op(1, 2, 0, 0), op(8, 0, 0, 0), op(1, 2, 0, 2), op(2, 0, 0, 1), op(1, 5, 0, 1)),
		// Unmap before the recycle: a removed page is not on the free list twice.
		cat(op(0, 0, 0, 2), op(3, 1, 0, 1), op(5, 1, 0, 0), op(8, 0, 0, 0), op(0, 0, 0, 2), op(3, 0, 0, 1), op(3, 1, 0, 2), op(3, 2, 0, 3)),
	}
}

// TestRecycleVsFresh: a recycled memory is a new memory. Unmapped pages
// fault, MappedPages starts from zero, Gen moves, new pages are zero, and a
// snapshot taken before the recycle is never written through it.
func TestRecycleVsFresh(t *testing.T) {
	for _, s := range recycleSeeds() {
		runRecycleSchedule(t, s)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 300; i++ {
		s := make([]byte, 4*(1+rng.Intn(200)))
		rng.Read(s)
		runRecycleSchedule(t, s)
	}
}

// TestRecycleKeepsStorage: what the previous tenant mapped backs the next
// mappings, so a worker that replays intervals of one size stops
// allocating pages and leaves after its first.
func TestRecycleKeepsStorage(t *testing.T) {
	m := New()
	fill := func() {
		for _, n := range recyclePages {
			m.Map(n<<PageShift, PageSize)
			if err := m.StoreWord(n<<PageShift, n+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	m.Recycle()
	if got := testing.AllocsPerRun(20, func() { fill(); m.Recycle() }); got != 0 {
		t.Errorf("a fill of the pages the memory already owned allocated %.0f times; want 0", got)
	}
}

func FuzzRecycleVsFresh(f *testing.F) {
	for _, s := range recycleSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			t.Skip()
		}
		runRecycleSchedule(t, data)
	})
}
