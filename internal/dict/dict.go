// Package dict implements BugNet's dictionary-based load-value compressor
// (paper §4.3.1).
//
// A small fully-associative table captures frequently occurring load values.
// When a value about to be logged hits in the table, the recorder emits a
// log2(size)-bit rank instead of the full 32-bit value. The table is emptied
// at the start of every checkpoint interval and updated on *every* executed
// load — including loads whose values are not logged — so the replayer can
// regenerate the identical table state by applying the same updates, and a
// rank recorded at any point decodes to the right value. Replay needs the
// table only for ranks: the FLL reader stops updating after the last one.
//
// Update rule (from the paper): each entry has a 3-bit saturating counter.
// On a hit the counter increments; if it becomes greater than or equal to
// the counter of the entry ranked immediately above, the two entries swap
// positions, percolating hot values toward rank 0. On a miss the value is
// inserted over the entry with the smallest counter, ties broken toward the
// lowest-ranked (bottom) position.
//
// The paper leaves two details unspecified; we fix them deterministically
// (both recorder and replayer share this code, so any consistent choice
// preserves correctness): a newly inserted value starts with counter 1, and
// while the table is not yet full new values fill the first free slot.
package dict

import (
	"fmt"
	"math/bits"
)

// DefaultSize is the table size evaluated in the paper's main results.
const DefaultSize = 64

// defaultCounterBits is the paper's saturating-counter width.
const defaultCounterBits = 3

// Stats counts dictionary activity across interval boundaries. Figure 5 of
// the paper reports Hits/Lookups for various table sizes.
type Stats struct {
	Lookups uint64
	Hits    uint64
}

// HitRate returns the fraction of lookups that hit, in [0,1].
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Options tune the geometry details the paper fixes implicitly; the
// defaults reproduce §4.3.1 exactly. Changing them is only meaningful for
// the design-space ablations — both recorder and replayer must use the
// same options.
type Options struct {
	// CounterBits is the saturating-counter width (paper: 3).
	CounterBits int
	// InsertAtTop inserts missing values over the *highest*-ranked entry
	// among counter ties instead of the paper's lowest-position rule.
	InsertAtTop bool
}

// Table is the dictionary table. It is not safe for concurrent use; each
// simulated processor owns one.
//
// The hardware answers a lookup in one CAM cycle; this emulation must not
// charge a 64-entry scan for it. Values and counters live in parallel
// arrays so the match scan is a tight loop over uint32s, and index counts,
// per hash bucket, how many table values fall there: a zero bucket proves a
// miss with no scan at all. The index is derived state — ranks, counters
// and every encoded bit are those of the plain scan-based table, which the
// package's tests keep as a reference model.
//
// Replacement is a one-cycle priority encode in hardware, and classes
// makes it one here: per counter value, the set of ranks holding it, so the
// victim is read off the lowest non-empty class without looking at an
// entry. Like index it is derived state.
type Table struct {
	vals   []uint32 // values in rank order; vals[:used] are live
	counts []uint32 // saturating counters, parallel to vals in one backing array
	// index[bucket(v)] is the number of live values in v's bucket. It and
	// classes are built at the first search, so a Clone copies values and
	// counters only and a checkpoint that is never resumed never carries
	// either.
	index []uint16
	// classes holds one bitset of ranks per counter value, words words
	// each: bit i&63 of classes[c*words+i>>6] is set exactly when rank i
	// is live and counts[i] == c. Row 0 stays empty (a live counter is at
	// least 1).
	classes    []uint64
	words      int  // uint64 words per class: one per 64 ranks
	shift      uint // bucket keeps the hash's top 32-shift bits
	used       int
	bits       uint
	counterMax uint32
	insertTop  bool
	stats      Stats
}

// indexShift is log2 of the index buckets per table entry: at 8 buckets a
// full table leaves seven in eight empty, so that share of misses is
// proven by one load.
const indexShift = 3

// hashMul is the odd multiplier of bucket's hash.
const hashMul = 0x9E3779B1

// bucket hashes v to its index bucket. Both steps (xor-shift, odd
// multiply) are bijections on uint32, so every bucket has exactly
// 2^32/len(index) preimages; table values are distinct, so a bucket counts
// at most min(Size, 2^32/len(index)) <= 32768 of them for every size New
// accepts: a uint16 bucket is exact, never saturating. The xor-shift keeps
// strided values (pointers, multiples of the multiplier) from piling up.
func (t *Table) bucket(v uint32) uint32 { return (v ^ v>>15) * hashMul >> t.shift }

// New returns an empty table with the given size, which must be a power of
// two between 2 and 65536 so ranks have a fixed bit width.
func New(size int) *Table {
	return NewWithOptions(size, Options{})
}

// NewWithOptions returns a table with explicit geometry options.
func NewWithOptions(size int, opts Options) *Table {
	if size < 2 || size > 1<<16 || size&(size-1) != 0 {
		panic(fmt.Sprintf("dict: size %d must be a power of two in [2, 65536]", size))
	}
	if opts.CounterBits == 0 {
		opts.CounterBits = defaultCounterBits
	}
	if opts.CounterBits < 1 || opts.CounterBits > 8 {
		panic(fmt.Sprintf("dict: counter width %d out of range [1, 8]", opts.CounterBits))
	}
	nbits := uint(0)
	for 1<<nbits < size {
		nbits++
	}
	t := &Table{
		words:      (size + 63) / 64,
		shift:      32 - nbits - indexShift,
		bits:       nbits,
		counterMax: 1<<opts.CounterBits - 1,
		insertTop:  opts.InsertAtTop,
	}
	t.setEntries(make([]uint32, 2*size))
	return t
}

// setEntries points vals and counts at the halves of one backing array;
// vals keeps counts within its capacity so Clone copies both at once.
func (t *Table) setEntries(buf []uint32) {
	n := len(buf) / 2
	t.vals, t.counts = buf[:n], buf[n:]
}

// Size returns the table capacity.
func (t *Table) Size() int { return len(t.vals) }

// SizeBytes returns the heap bytes the table's arrays occupy, for
// checkpoint budgets that hold clones.
func (t *Table) SizeBytes() int64 {
	return int64(len(t.vals)+len(t.counts))*4 + int64(len(t.index))*2 + int64(len(t.classes))*8
}

// IndexBits returns the width of an encoded rank: log2(Size).
func (t *Table) IndexBits() uint { return t.bits }

// Reset empties the table, as required at the start of each checkpoint
// interval. Statistics are preserved across resets.
func (t *Table) Reset() {
	clear(t.vals)
	clear(t.counts)
	clear(t.index)
	clear(t.classes)
	t.used = 0
}

// buildDerived counts the live values into a fresh index and sorts their
// ranks into fresh counter classes.
func (t *Table) buildDerived() {
	t.index = make([]uint16, len(t.vals)<<indexShift)
	t.classes = make([]uint64, (int(t.counterMax)+1)*t.words)
	for i, x := range t.vals[:t.used] {
		t.index[t.bucket(x)]++
		t.flip(t.counts[i], i)
	}
}

// flip moves rank i into or out of counter class c.
func (t *Table) flip(c uint32, i int) {
	t.classes[int(c)*t.words+i>>6] ^= 1 << (i & 63)
}

// find returns v's rank, or -1. The index proves most misses without
// touching the values.
func (t *Table) find(v uint32) int {
	if t.index == nil {
		t.buildDerived()
	}
	if t.index[t.bucket(v)] == 0 {
		return -1
	}
	// Four values a step: the match scan is what a hit costs (gzip's
	// hits sit 32 ranks deep on average), and the loop control of a
	// one-value step is half of it.
	vals := t.vals[:t.used]
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		switch q := vals[i : i+4 : i+4]; v {
		case q[0]:
			return i
		case q[1]:
			return i + 1
		case q[2]:
			return i + 2
		case q[3]:
			return i + 3
		}
	}
	for ; i < len(vals); i++ {
		if vals[i] == v {
			return i
		}
	}
	return -1
}

// Lookup searches for v and returns its current rank. It counts toward
// statistics but does not modify the table; callers follow it with Update.
func (t *Table) Lookup(v uint32) (rank int, hit bool) {
	t.stats.Lookups++
	if i := t.find(v); i >= 0 {
		t.stats.Hits++
		return i, true
	}
	return 0, false
}

// ValueAt returns the value currently holding the given rank. The replayer
// uses it to decode a logged rank; callers follow it with Update.
func (t *Table) ValueAt(rank int) (uint32, error) {
	if rank < 0 || rank >= t.used {
		return 0, fmt.Errorf("dict: rank %d out of range (used %d)", rank, t.used)
	}
	return t.vals[rank], nil
}

// Update applies the paper's table-update rule for an executed load of
// value v, once per executed loggable operation in recording and in replay
// up to the interval's last rank, so the tables agree wherever one decodes.
func (t *Table) Update(v uint32) {
	if i := t.find(v); i >= 0 {
		t.promote(i)
	} else {
		t.insert(v)
	}
}

// LookupUpdate is Lookup followed by Update with one search: it returns
// v's rank before the update, as the recorder encodes it, and counts as
// one lookup. The FLL writer calls it for every logged value.
func (t *Table) LookupUpdate(v uint32) (rank int, hit bool) {
	if rank, hit = t.Lookup(v); hit {
		t.promote(rank)
	} else {
		t.insert(v)
	}
	return rank, hit
}

// promote is the hit half of the update rule: bump the counter at rank i
// and swap with the entry above once it has caught up. It runs after a
// search, so the counter classes exist.
func (t *Table) promote(i int) {
	was := t.counts[i]
	c := was
	if c < t.counterMax {
		c++
	}
	if i > 0 {
		if p := t.counts[i-1]; c >= p {
			t.vals[i], t.vals[i-1] = t.vals[i-1], t.vals[i]
			t.counts[i], t.counts[i-1] = p, c
			if was != p || c != p {
				// Rank i leaves was's class for p's and rank i-1
				// leaves p's for c's; flips in one class cancel.
				t.flip(was, i)
				t.flip(p, i)
				t.flip(p, i-1)
				t.flip(c, i-1)
			}
			return
		}
	}
	if c != was {
		t.counts[i] = c
		t.flip(was, i)
		t.flip(c, i)
	}
}

// insert is the miss half: fill a free slot, else replace the smallest
// counter. It runs after a search, so index and classes exist.
func (t *Table) insert(v uint32) {
	i := t.used
	if i < len(t.vals) {
		t.used++
		t.flip(1, i)
	} else {
		i = t.victim()
		t.index[t.bucket(t.vals[i])]--
		if c := t.counts[i]; c != 1 { // else the rank stays in class 1, as on every miss of a miss-only stream
			t.flip(c, i)
			t.flip(1, i)
		}
	}
	t.vals[i], t.counts[i] = v, 1
	t.index[t.bucket(v)]++
}

// victim picks the entry a miss replaces in a full table: the smallest
// counter, ties toward the bottom of the table (the paper's rule) or
// toward the top (InsertAtTop) — the extreme rank of the lowest non-empty
// counter class, found without reading a counter. The walk over the
// counters this replaced stopped at the first 1, which is the first entry
// it looks at only while the table keeps a 1 at the replacement end. mcf's
// does; gzip hits each new value before the next miss, so a sixth of its
// misses (it misses on half of its 277 loggable operations per thousand
// instructions) met a full table with no 1 and crossed all 64 counters:
// a fifth of a sequential replay. Here an empty class costs one test per
// word of the class, and a class is one word up to 64 entries.
func (t *Table) victim() int {
	for c := t.words; ; c += t.words { // class 1 up; a full table has a non-empty class
		if t.insertTop {
			for w, x := range t.classes[c : c+t.words] {
				if x != 0 {
					return w<<6 + bits.TrailingZeros64(x)
				}
			}
			continue
		}
		for w := c + t.words - 1; w >= c; w-- {
			if x := t.classes[w]; x != 0 {
				return (w-c)<<6 + bits.Len64(x) - 1
			}
		}
	}
}

// Clone returns a deep copy of the table — contents, ordering, counters and
// statistics. Replay checkpointing clones the table so a restored replay
// decodes ranks against the exact mid-interval dictionary state.
func (t *Table) Clone() *Table {
	cp := *t
	cp.setEntries(append([]uint32(nil), t.vals[:2*len(t.vals)]...))
	cp.index, cp.classes = nil, nil
	return &cp
}

// Stats returns cumulative lookup statistics.
func (t *Table) Stats() Stats { return t.stats }

// ResetStats zeroes the cumulative statistics.
func (t *Table) ResetStats() { t.stats = Stats{} }

// Snapshot returns the current values in rank order (counters are not
// included), for tests and debugging tools.
func (t *Table) Snapshot() []uint32 {
	return append([]uint32(nil), t.vals[:t.used]...)
}

// Equal reports whether two tables hold identical contents and ordering —
// the invariant linking recorder and replayer.
func (t *Table) Equal(o *Table) bool {
	if len(t.vals) != len(o.vals) || t.used != o.used {
		return false
	}
	for i, v := range t.vals[:t.used] {
		if v != o.vals[i] || t.counts[i] != o.counts[i] {
			return false
		}
	}
	return true
}
