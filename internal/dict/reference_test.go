package dict

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"bugnet/internal/workload/accesstest"
)

// refTable is the scan-based table this package started with, kept as the
// reference model: one slice of (value, counter) entries, a linear match
// scan, and the paper's victim rule written as two full passes. Table must
// produce the same ranks, hits, contents and statistics after every
// operation.
type refTable struct {
	vals, counts []uint32
	size         int
	counterMax   uint32
	insertTop    bool
	stats        Stats
}

func (r *refTable) reset() { r.vals, r.counts = r.vals[:0], r.counts[:0] }

func (r *refTable) clone() *refTable {
	cp := *r
	cp.vals, cp.counts = slices.Clone(r.vals), slices.Clone(r.counts)
	return &cp
}

func (r *refTable) lookup(v uint32) (int, bool) {
	r.stats.Lookups++
	if i := slices.Index(r.vals, v); i >= 0 {
		r.stats.Hits++
		return i, true
	}
	return 0, false
}

func (r *refTable) update(v uint32) {
	if i := slices.Index(r.vals, v); i >= 0 {
		if r.counts[i] < r.counterMax {
			r.counts[i]++
		}
		if i > 0 && r.counts[i] >= r.counts[i-1] {
			r.vals[i], r.vals[i-1] = r.vals[i-1], r.vals[i]
			r.counts[i], r.counts[i-1] = r.counts[i-1], r.counts[i]
		}
		return
	}
	if len(r.vals) < r.size {
		r.vals, r.counts = append(r.vals, v), append(r.counts, 1)
		return
	}
	victim := 0
	for i := 1; i < r.size; i++ {
		if r.counts[i] < r.counts[victim] {
			victim = i
		}
	}
	if !r.insertTop {
		for i := r.size - 1; i > victim; i-- {
			if r.counts[i] == r.counts[victim] {
				victim = i
				break
			}
		}
	}
	r.vals[victim], r.counts[victim] = v, 1
}

// diffPair drives a Table and its reference in lockstep.
type diffPair struct {
	t   testing.TB
	tb  *Table
	ref *refTable
	n   int
}

func newPair(t testing.TB, size int, opts Options) *diffPair {
	tb := NewWithOptions(size, opts)
	ref := &refTable{size: size, counterMax: tb.counterMax, insertTop: opts.InsertAtTop}
	return &diffPair{t: t, tb: tb, ref: ref}
}

// step applies one operation chosen by op to both tables and compares
// everything observable. Operations: 0 Update, 1 Lookup, 2 LookupUpdate,
// 3 Reset, 4 continue on a Clone, 5 continue on a used table made to hold
// this one's contents by CopyFrom.
func (p *diffPair) step(op int, v uint32) {
	p.t.Helper()
	p.n++
	switch op {
	case 0:
		p.tb.Update(v)
		p.ref.update(v)
	case 1, 2:
		wantRank, wantHit := p.ref.lookup(v)
		var rank int
		var hit bool
		if op == 1 {
			rank, hit = p.tb.Lookup(v)
		} else {
			rank, hit = p.tb.LookupUpdate(v)
			p.ref.update(v)
		}
		if rank != wantRank || hit != wantHit {
			p.t.Fatalf("op %d: lookup(%#x) = (%d, %v); reference (%d, %v)", p.n, v, rank, hit, wantRank, wantHit)
		}
	case 3:
		p.tb.Reset()
		p.ref.reset()
	case 4:
		orig := p.tb
		p.tb, p.ref = p.tb.Clone(), p.ref.clone()
		if !orig.Equal(p.tb) || !p.tb.Equal(orig) {
			p.t.Fatalf("op %d: clone not Equal to its original", p.n)
		}
		orig.Update(v ^ 0x5A5A5A5A) // the original must not reach the clone
	case 5:
		orig := p.tb
		cp := NewWithOptions(orig.Size(), Options{CounterBits: bits.Len32(orig.counterMax), InsertAtTop: orig.insertTop})
		cp.Update(v ^ 0xA5A5A5A5) // derived state built over other contents
		cp.CopyFrom(orig)
		p.tb = cp
		if !orig.Equal(cp) || !cp.Equal(orig) {
			p.t.Fatalf("op %d: copy not Equal to its original", p.n)
		}
		orig.Update(v ^ 0x5A5A5A5A) // the original must not reach the copy
	}
	p.check()
}

func (p *diffPair) check() {
	p.t.Helper()
	if got := p.tb.Snapshot(); !slices.Equal(got, p.ref.vals) {
		p.t.Fatalf("op %d: values %v; reference %v", p.n, got, p.ref.vals)
	}
	for i, c := range p.ref.counts {
		if p.tb.counts[i] != c {
			p.t.Fatalf("op %d: counter at rank %d = %d; reference %d", p.n, i, p.tb.counts[i], c)
		}
	}
	if p.tb.Stats() != p.ref.stats {
		p.t.Fatalf("op %d: stats %+v; reference %+v", p.n, p.tb.Stats(), p.ref.stats)
	}
	// The index and the counter classes are derived state: once built (a
	// fresh clone has neither yet, a reset table or a copy only stale ones)
	// the index must count exactly the live values and each class hold
	// exactly the ranks with its counter. Rebuilding them costs more than
	// the rest of the check, so sample it.
	if p.n%61 != 0 || !p.tb.derived {
		return
	}
	want := make([]uint16, len(p.tb.index))
	classes := make([]uint64, len(p.tb.classes))
	for i, v := range p.ref.vals {
		want[p.tb.bucket(v)]++
		classes[int(p.ref.counts[i])*p.tb.words+i/64] |= 1 << (i % 64)
	}
	if !slices.Equal(p.tb.index, want) {
		p.t.Fatalf("op %d: presence index out of step with the table", p.n)
	}
	if !slices.Equal(p.tb.classes, classes) {
		p.t.Fatalf("op %d: counter classes out of step with the table", p.n)
	}
}

// pickOp draws an operation: mostly updates and lookups, now and then a
// reset, a clone or a copy.
func pickOp(rng *rand.Rand) int {
	switch x := rng.Intn(200); {
	case x == 0:
		return 3
	case x < 3:
		return 4
	case x < 5:
		return 5
	default:
		return x % 3
	}
}

// sameBucket returns n distinct values that all fall in tb's bucket 0.
func sameBucket(tb *Table, n int) []uint32 {
	var out []uint32
	for v := uint32(0); len(out) < n; v++ {
		if tb.bucket(v) == 0 {
			out = append(out, v)
		}
	}
	return out
}

func TestDictVsReferenceRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for g := 0; g < 400; g++ {
		size := 2 << rng.Intn(10) // 2 … 1024
		opts := Options{CounterBits: 1 + rng.Intn(8), InsertAtTop: rng.Intn(2) == 0}
		p := newPair(t, size, opts)
		// Domains from "all hits" through "evicting constantly".
		domain := 1 + rng.Intn(4*size)
		for i := 0; i < 5000; i++ {
			v := uint32(rng.Intn(domain)) * 0x01000193
			if rng.Intn(16) == 0 {
				v = rng.Uint32()
			}
			p.step(pickOp(rng), v)
		}
	}
}

// TestDictVsReferenceOneBucket feeds values that all share an index
// bucket, so the index never proves a miss and its count climbs to Size.
func TestDictVsReferenceOneBucket(t *testing.T) {
	for _, size := range []int{2, 64, 512} {
		for _, top := range []bool{false, true} {
			p := newPair(t, size, Options{InsertAtTop: top})
			vals := sameBucket(p.tb, 3*size)
			rng := rand.New(rand.NewSource(int64(size)))
			for i := 0; i < 20*size; i++ {
				p.step(pickOp(rng), vals[rng.Intn(len(vals))])
			}
			p.step(1, vals[0]) // a search, so even a fresh clone has its index
			if got := p.tb.index[0]; int(got) != p.tb.used {
				t.Errorf("size %d: bucket 0 counts %d of %d live values", size, got, p.tb.used)
			}
		}
	}
}

// TestDictVsReferenceSaturated saturates every counter, so the victim walk
// finds no early 1 and must cross the whole table, then mixes in misses.
func TestDictVsReferenceSaturated(t *testing.T) {
	for _, opts := range []Options{{}, {InsertAtTop: true}, {CounterBits: 1}, {CounterBits: 8}} {
		p := newPair(t, 16, opts)
		for round := 0; round < 300; round++ {
			for v := uint32(0); v < 16; v++ {
				p.step(0, v)
			}
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 4000; i++ {
			p.step(rng.Intn(3), uint32(rng.Intn(40)))
		}
	}
}

// noOnes fills p's table and counts every entry up to 2, the state a full
// table is in under gzip's values: a miss finds no counter 1 to stop at.
func noOnes(p *diffPair) {
	for round := 0; round < 2; round++ {
		for v := 0; v < p.tb.Size(); v++ {
			p.step(0, uint32(v))
		}
	}
}

// TestDictVsReferenceNoOnes is the regime a counter scan that stops at the
// first 1 pays most for: a full table with no counter 1, under a stream
// whose every new value misses and is then hit once, so the next miss
// again finds no 1. Size 128 spreads a class over two words.
func TestDictVsReferenceNoOnes(t *testing.T) {
	for _, size := range []int{2, 64, 128} {
		for _, opts := range []Options{{}, {InsertAtTop: true}, {CounterBits: 1}, {CounterBits: 8}, {CounterBits: 8, InsertAtTop: true}} {
			p := newPair(t, size, opts)
			noOnes(p)
			if opts.CounterBits != 1 && slices.Contains(p.tb.counts, 1) {
				t.Fatalf("size %d %+v: warm-up left a counter 1", size, opts)
			}
			for i := 0; i < 40*size; i++ {
				p.step(i%3%2*2, uint32(size+i/2)) // a miss, then its hit; Update and LookupUpdate by turns
				if i == 20*size {
					p.step(3, 0) // Reset mid-stream, then the same regime again
					noOnes(p)
				}
			}
		}
	}
}

// TestLargestTableNoOnes is the same regime at the largest size, 1024 words
// to a class. Counting 65536 entries up through the table's own linear
// match scan would take seconds, so the table starts in the state a Clone
// of such a table is in: values and counters set, derived state not yet
// built.
func TestLargestTableNoOnes(t *testing.T) {
	const size = 1 << 16
	for _, top := range []bool{false, true} {
		p := newPair(t, size, Options{InsertAtTop: top})
		for i := range p.tb.vals {
			p.tb.vals[i], p.tb.counts[i] = uint32(i), 2
		}
		p.tb.used = size
		p.ref.vals, p.ref.counts = p.tb.Snapshot(), slices.Clone(p.tb.counts)
		for i := 0; i < 244; i++ {
			p.step(i%3%2*2, uint32(size+i/2))
		}
	}
}

// TestCloneDropsDerivedState clones a table mid-stream and drives the two
// copies apart: the clone starts without index or classes, rebuilds both at
// its first search, and each copy keeps matching its own reference.
func TestCloneDropsDerivedState(t *testing.T) {
	for _, size := range []int{2, 64, 128} {
		for _, top := range []bool{false, true} {
			a := newPair(t, size, Options{InsertAtTop: top})
			noOnes(a)
			rng := rand.New(rand.NewSource(int64(size)))
			for i := 0; i < 10*size; i++ {
				a.step(rng.Intn(3), uint32(rng.Intn(3*size)))
			}
			built := a.tb.SizeBytes()
			b := &diffPair{t: t, tb: a.tb.Clone(), ref: a.ref.clone()}
			if b.tb.index != nil || b.tb.classes != nil {
				t.Fatal("clone carries derived state")
			}
			if got, want := b.tb.SizeBytes(), int64(8*size); got != want {
				t.Errorf("fresh clone SizeBytes = %d; want %d (values and counters only)", got, want)
			}
			for i := 0; i < 40*size; i++ {
				a.step(rng.Intn(3), uint32(rng.Intn(2*size)))
				b.step(rng.Intn(3), uint32(size+rng.Intn(4*size)))
			}
			a.n, b.n = 61, 61 // a last check that includes the derived state
			a.check()
			b.check()
			if got := b.tb.SizeBytes(); got != built {
				t.Errorf("clone SizeBytes after its first search = %d; the original's is %d", got, built)
			}
			if want := int64(8*size + 2*len(b.tb.index) + 8*len(b.tb.classes)); built != want || len(b.tb.classes) == 0 {
				t.Errorf("SizeBytes = %d; want %d, counting index and %d class words", built, want, len(b.tb.classes))
			}
		}
	}
}

// TestLargestTable builds the largest size New accepts, fills it and
// overfills it; the index must still count every live value.
func TestLargestTable(t *testing.T) {
	const size = 1 << 16
	p := newPair(t, size, Options{})
	for v := uint32(0); v < size; v++ { // distinct, so the reference can skip its scan
		p.tb.Update(v * 0x10001)
		p.ref.vals, p.ref.counts = append(p.ref.vals, v*0x10001), append(p.ref.counts, 1)
	}
	p.check()
	for v := uint32(size); v < size+200; v++ {
		p.step(2, v*0x10001)
		p.step(2, (v-size)*3*0x10001)
	}
}

// FuzzDictVsReference decodes the fuzz input as a geometry byte followed
// by (op, value) pairs; small values keep the stream colliding.
func FuzzDictVsReference(f *testing.F) {
	f.Add([]byte{0x05, 0, 1, 0, 1, 2, 1, 1, 2, 0, 3, 3, 0, 4, 9})
	f.Add([]byte{0xF1, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 2, 0})
	f.Add([]byte{0x80, 2, 7, 2, 7, 2, 8, 4, 1, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := data[0]
		p := newPair(t, 2<<(g&3), Options{CounterBits: 1 + int(g>>2&7), InsertAtTop: g&0x80 != 0})
		for i := 1; i+1 < len(data); i += 2 {
			p.step(int(data[i]%5), uint32(data[i+1]))
		}
	})
}

func TestUpdateDoesNotAllocate(t *testing.T) {
	tb := New(DefaultSize)
	tb.Update(0) // the first search builds the derived state, once per table
	v := uint32(0)
	if n := testing.AllocsPerRun(1000, func() {
		tb.Update(v % 200)
		tb.LookupUpdate(v * 7 % 300)
		v++
	}); n != 0 {
		t.Errorf("Update+LookupUpdate allocate %v times per call; want 0", n)
	}
}

var benchSink int

func BenchmarkTableUpdate(b *testing.B) {
	run := func(name string, full bool, val func(tb *Table, i int) uint32) {
		b.Run(name, func(b *testing.B) {
			tb := New(DefaultSize)
			for k := 0; full && k < 8; k++ { // every counter saturated
				for v := uint32(0); v < DefaultSize; v++ {
					tb.Update(v)
				}
			}
			tb.Lookup(0) // builds the derived state outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Update(val(tb, i))
			}
		})
	}
	at := func(rank int) func(*Table, int) uint32 {
		return func(tb *Table, _ int) uint32 {
			v, _ := tb.ValueAt(rank)
			return v
		}
	}
	run("miss", false, func(_ *Table, i int) uint32 { return uint32(i) })
	// Every new value misses a full table that holds no counter 1, then is
	// hit once, so the next miss finds none either (gzip's regime; see
	// victim).
	run("miss_no_ones", true, func(_ *Table, i int) uint32 { return uint32(DefaultSize + i/2) })
	run("hit_rank0", true, at(0))
	// The bottom value swaps up one rank per hit, so the next bottom
	// value is again a full-depth scan.
	run("hit_deep", true, at(DefaultSize-1))

	// The values gzip's loggable operations carry, the table emptied where
	// a 10 K-instruction interval would end.
	b.Run("gzip_stream", func(b *testing.B) {
		stream := accesstest.Loggable(accesstest.Capture("gzip", 200_000))
		tb := New(DefaultSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i, k := 0, 0; i < b.N; i, k = i+1, k+1 {
			if k == len(stream) {
				k = 0
			}
			if stream[k].NewInterval {
				tb.Reset()
			}
			tb.Update(stream[k].Val)
		}
	})
}

func BenchmarkTableClone(b *testing.B) {
	tb := New(DefaultSize)
	for v := uint32(0); v < 100; v++ {
		tb.Update(v)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += tb.Clone().Size()
	}
}
