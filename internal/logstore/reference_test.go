package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// What follows, down to Close, is the memory backend as it stood before
// the region became a block FIFO, verbatim but for the type's name: one
// heap slice per item, retained by reference. The differential tests below
// hold the region to its observable behaviour.
//
// One quirk is not carried over: the reference reports an item appended as
// a nil slice evicted; the schedules append empty items as non-nil.

// referenceMemory is the volatile Backend modeling the paper's OS-managed main
// memory log region: encoded bytes in a FIFO, gone with the process.
type referenceMemory struct {
	base uint64 // Seq of data[0]
	data [][]byte
}

// newReferenceMemory creates an empty in-memory backend.
func newReferenceMemory() *referenceMemory { return &referenceMemory{} }

// Append implements Backend.
func (m *referenceMemory) Append(it Item, data []byte) error {
	if len(m.data) == 0 {
		m.base = it.Seq
	}
	m.data = append(m.data, data)
	return nil
}

// Load implements Backend.
func (m *referenceMemory) Load(seq uint64) ([]byte, error) {
	if seq < m.base || seq >= m.base+uint64(len(m.data)) || m.data[seq-m.base] == nil {
		return nil, fmt.Errorf("%w: seq %d", ErrEvicted, seq)
	}
	return m.data[seq-m.base], nil
}

// Evict implements Backend. Space is reclaimed immediately.
func (m *referenceMemory) Evict(it Item) error {
	if it.Seq != m.base || len(m.data) == 0 {
		return fmt.Errorf("logstore: memory eviction out of order (seq %d, oldest %d)", it.Seq, m.base)
	}
	m.data[0] = nil
	m.data = m.data[1:]
	m.base++
	if len(m.data) == 0 {
		m.data = nil
	}
	return nil
}

// Recover implements Backend: volatile storage recovers nothing.
func (m *referenceMemory) Recover() ([]Item, error) { return nil, nil }

// Close implements Backend.
func (m *referenceMemory) Close() error {
	m.data = nil
	return nil
}

// allocated returns the number of blocks the region ever allocated: it
// frees none.
func (m *Memory) allocated() int { return m.blocks.Len() + len(m.free) }

// fill writes item seq's bytes: recognisable per item and per offset, so a
// Load that returns another item's bytes, or bytes a later append
// overwrote, cannot pass for the right ones.
func fill(buf []byte, seq uint64) {
	for i := range buf {
		buf[i] = byte(seq*131 + uint64(i)*7 + uint64(i>>8))
	}
}

// regionPair is the block-FIFO region beside the reference, driven in
// lockstep at the Backend interface the way a Store drives them:
// consecutive sequence numbers, eviction oldest first.
type regionPair struct {
	t       *testing.T
	mem     *Memory
	ref     *referenceMemory
	sizes   []int  // encoded size of each live item, oldest first
	next    uint64 // sequence number the next append gets
	live    int    // bytes the live items hold
	peak    int    // the most live ever was
	scratch []byte // every append to mem passes this one buffer, refilled
}

func newRegionPair(t *testing.T) *regionPair {
	return &regionPair{t: t, mem: NewMemory(), ref: newReferenceMemory()}
}

func (p *regionPair) oldest() uint64 { return p.next - uint64(len(p.sizes)) }

// append hands the reference a slice of its own and the region the shared
// scratch, which the next append overwrites: the region must have copied.
func (p *regionPair) append(n int) {
	p.t.Helper()
	it := Item{Seq: p.next, EncodedBytes: int64(n)}
	own := make([]byte, n)
	fill(own, p.next)
	p.scratch = append(p.scratch[:0], own...)
	if err := p.ref.Append(it, own); err != nil {
		p.t.Fatal(err)
	}
	if err := p.mem.Append(it, p.scratch); err != nil {
		p.t.Fatal(err)
	}
	for i := range p.scratch {
		p.scratch[i] ^= 0xFF
	}
	p.sizes = append(p.sizes, n)
	p.next++
	p.live += n
	p.peak = max(p.peak, p.live)
	p.checkBlocks()
}

func (p *regionPair) evictOldest() {
	p.t.Helper()
	it := Item{Seq: p.oldest()}
	rerr, merr := p.ref.Evict(it), p.mem.Evict(it)
	if (rerr == nil) != (merr == nil) {
		p.t.Fatalf("evict seq %d: reference %v, region %v", it.Seq, rerr, merr)
	}
	if rerr == nil {
		p.live -= p.sizes[0]
		p.sizes = p.sizes[1:]
	}
}

// load checks one sequence number, live or not, and returns the region's
// bytes.
func (p *regionPair) load(seq uint64) []byte {
	p.t.Helper()
	want, rerr := p.ref.Load(seq)
	got, merr := p.mem.Load(seq)
	if rerr != nil || merr != nil {
		if !errors.Is(rerr, ErrEvicted) || !errors.Is(merr, ErrEvicted) {
			p.t.Fatalf("load seq %d: reference %v, region %v; want both ErrEvicted", seq, rerr, merr)
		}
		return nil
	}
	if !bytes.Equal(got, want) {
		p.t.Fatalf("load seq %d: region returned %d bytes that differ from the reference's %d", seq, len(got), len(want))
	}
	return got
}

// checkBlocks holds the region to its footprint: the live bytes, plus a
// block partly evicted at one end and one partly written at the other.
func (p *regionPair) checkBlocks() {
	p.t.Helper()
	if limit := (p.peak+memBlockBytes-1)/memBlockBytes + 2; p.mem.allocated() > limit {
		p.t.Fatalf("region allocated %d blocks for a peak of %d live bytes; want at most %d", p.mem.allocated(), p.peak, limit)
	}
}

// run interprets schedule as region operations, two bytes each.
func (p *regionPair) run(schedule []byte) {
	p.t.Helper()
	for ; len(schedule) >= 2; schedule = schedule[2:] {
		kind, arg := schedule[0]%10, int(schedule[1])
		switch kind {
		case 0: // an empty item
			p.append(0)
		case 1, 2: // small items, the sparse regime
			p.append(1 + arg*7)
		case 3: // an item ending exactly on a block boundary
			p.append(memBlockBytes - int(p.mem.end%memBlockBytes))
		case 4: // an item larger than a block
			p.append(memBlockBytes + 1 + arg*97)
		case 5, 6:
			if len(p.sizes) > 0 {
				p.evictOldest()
			}
		case 7: // drain to empty; whatever follows refills
			for len(p.sizes) > 0 {
				p.evictOldest()
			}
		case 8: // evicting out of order is refused by both
			it := Item{Seq: p.oldest() + 1 + uint64(arg%3)}
			if p.ref.Evict(it) == nil || p.mem.Evict(it) == nil {
				p.t.Fatalf("out-of-order evict of seq %d accepted", it.Seq)
			}
		case 9: // a probe around the live window's edges
			p.load(p.oldest() + uint64(arg%(len(p.sizes)+3)) - 1)
		}
		// Every live item, and one sequence number beyond each end.
		if p.oldest() > 0 {
			p.load(p.oldest() - 1)
		}
		for seq := p.oldest(); seq <= p.next; seq++ {
			p.load(seq)
		}
	}
}

// storePair runs the same appends through a Store over each backend and
// checks that budget arithmetic, eviction order and the bytes agree.
func storePair(t *testing.T, budget int64, schedule []byte) {
	t.Helper()
	mem := NewMemory()
	ms, err := Open(budget, mem)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Open(budget, newReferenceMemory())
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	peak := int64(0)
	for i := 0; len(schedule) >= 2; i, schedule = i+1, schedule[2:] {
		n := int(schedule[1]) * 7
		switch schedule[0] % 4 {
		case 0:
			n = 0
		case 1:
			n += memBlockBytes
		}
		own := make([]byte, n)
		fill(own, uint64(i))
		scratch = append(scratch[:0], own...)
		it := Item{TID: i % 3, CID: uint32(i), Timestamp: uint64(i), Bytes: int64(n/2 + 1), Instructions: uint64(n)}
		peak = max(peak, ms.Stats().RetainedEncodedBytes+int64(n)) // before this append's eviction pass
		if err := rs.Append(it, own); err != nil {
			t.Fatal(err)
		}
		if err := ms.Append(it, scratch); err != nil {
			t.Fatal(err)
		}
		fill(scratch, ^uint64(i))
		if ms.Stats() != rs.Stats() {
			t.Fatalf("after append %d: stats %+v, reference %+v", i, ms.Stats(), rs.Stats())
		}
		ma, ra := ms.All(), rs.All()
		if len(ma) != len(ra) {
			t.Fatalf("after append %d: %d items retained, reference %d", i, len(ma), len(ra))
		}
		for k := range ma {
			if ma[k] != ra[k] {
				t.Fatalf("after append %d: item %d is %+v, reference %+v", i, k, ma[k], ra[k])
			}
		}
		for seq := uint64(0); seq <= uint64(i)+1; seq++ {
			want, rerr := rs.Load(seq)
			got, merr := ms.Load(seq)
			if !errors.Is(merr, rerr) && !(errors.Is(merr, ErrEvicted) && errors.Is(rerr, ErrEvicted)) {
				t.Fatalf("after append %d: load seq %d: %v, reference %v", i, seq, merr, rerr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("after append %d: load seq %d differs from the reference", i, seq)
			}
		}
		if limit := int((peak+memBlockBytes-1)/memBlockBytes) + 2; mem.allocated() > limit {
			t.Fatalf("after append %d: %d blocks for a peak of %d retained bytes; want at most %d", i, mem.allocated(), peak, limit)
		}
	}
}

// schedules are the cases worth naming; the fuzzer starts from them.
var schedules = []struct {
	name     string
	budget   int64
	schedule []byte
}{
	{"empty items only", 10, []byte{0, 0, 0, 0, 5, 0, 0, 0, 9, 1, 7, 0, 0, 0}},
	{"one item, larger than a block and than the budget", 100, []byte{4, 200, 9, 0, 5, 0, 4, 3}},
	{"items ending exactly on block boundaries", 3 * memBlockBytes, []byte{1, 9, 3, 0, 3, 0, 1, 1, 3, 0, 5, 0, 5, 0, 3, 0, 5, 0, 5, 0, 5, 0}},
	{"drain to empty on a boundary, then refill", 0, []byte{3, 0, 7, 0, 1, 5, 4, 1, 7, 0, 0, 0, 2, 200, 3, 0, 7, 0, 4, 9}},
	{"drain to empty mid-block, then refill", -1, []byte{2, 100, 2, 30, 7, 0, 9, 0, 4, 0, 2, 1, 5, 0, 5, 0, 5, 0, 9, 2}},
	{"out-of-order evictions are refused", 1, []byte{8, 0, 1, 1, 1, 2, 8, 0, 8, 1, 8, 2, 5, 0, 8, 0}},
}

// TestMemoryVsReference: over the named schedules and 140 random
// ones, at the Backend interface and under Stores of every kind of budget
// (none, smaller than one item, a few items, a few blocks), the block-FIFO
// region is indistinguishable from one heap slice per item — same bytes,
// same ErrEvicted, same Stats and All — while allocating no more blocks
// than its peak needs.
func TestMemoryVsReference(t *testing.T) {
	for _, s := range schedules {
		t.Run(s.name, func(t *testing.T) {
			newRegionPair(t).run(s.schedule)
			storePair(t, s.budget, s.schedule)
		})
	}
	rng := rand.New(rand.NewSource(22))
	budgets := []int64{-1, 0, 1, 300, 5000, memBlockBytes, 5 * memBlockBytes}
	for i := 0; i < 140; i++ {
		schedule := make([]byte, 2*(1+rng.Intn(100)))
		rng.Read(schedule)
		newRegionPair(t).run(schedule)
		storePair(t, budgets[i%len(budgets)], schedule)
	}
}

// TestMemoryLoadDoesNotAlias: what Load returned is the caller's. A
// thousand appends later, with the region long since wrapped over the
// blocks the item lay in, the slice still holds the item.
func TestMemoryLoadDoesNotAlias(t *testing.T) {
	p := newRegionPair(t)
	p.append(memBlockBytes + 500) // spans two blocks
	p.append(100)
	held := [][]byte{p.load(0), p.load(1)}
	for i := 0; i < 1000; i++ {
		p.append(1 + i%400*31)
		for p.live > 3*memBlockBytes {
			p.evictOldest()
		}
	}
	if p.mem.allocated() > 6 {
		t.Fatalf("region grew to %d blocks; the appends were meant to wrap it", p.mem.allocated())
	}
	for seq, got := range held {
		want := make([]byte, len(got))
		fill(want, uint64(seq))
		if !bytes.Equal(got, want) {
			t.Errorf("the slice Load returned for seq %d changed under later appends", seq)
		}
	}
}

// FuzzMemoryVsReference lets the fuzzer look for a schedule and a budget
// that tell the region from the reference.
func FuzzMemoryVsReference(f *testing.F) {
	for _, s := range schedules {
		f.Add(s.budget, s.schedule)
	}
	f.Fuzz(func(t *testing.T, budget int64, schedule []byte) {
		if len(schedule) > 400 {
			schedule = schedule[:400] // each step re-reads the live window
		}
		newRegionPair(t).run(schedule)
		storePair(t, budget, schedule)
	})
}
