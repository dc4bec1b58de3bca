package mem

// known.go implements the §7.1 known-memory set: the word addresses a
// replayed window has touched (injected first loads or replayed stores).
// BugNet logs carry no core dump, so only these locations have examinable
// values during replay debugging; everything else reports unknown.
//
// The set is a page-granular bitmap — one bit per 32-bit word, 128 bytes
// per touched page — held in the same two-level copy-on-write table as
// guest memory. Membership tests and inserts are branch-and-bitmap cheap
// (the per-access cost iReplayer shows in-situ replay needs), and Clone is
// O(directory) with the page bitmaps shared copy-on-write, which is what
// lets replay checkpoints stop deep-copying word maps.

import "math/bits"

// WordsPerPage is the number of 32-bit words in one guest page.
const WordsPerPage = PageSize / 4

// knownBits is one page's worth of per-word bits.
type knownBits [WordsPerPage / 64]uint64

// KnownSet is a set of aligned word addresses. The zero value is empty
// and ready to use. KnownSet is not safe for concurrent use.
type KnownSet struct {
	tab   table[knownBits]
	words int
}

// NewKnownSet returns an empty set.
func NewKnownSet() *KnownSet { return &KnownSet{} }

// Add inserts the word containing addr.
func (k *KnownSet) Add(addr uint32) {
	pi := addr >> PageShift
	w := (addr >> 2) & (WordsPerPage - 1)
	if b := k.tab.load(pi); b != nil && b[w>>6]&(1<<(w&63)) != 0 {
		return // already present: no copy-on-write, no count update
	}
	b := k.tab.ensure(pi)
	b[w>>6] |= 1 << (w & 63)
	k.words++
}

// Has reports whether the word containing addr is in the set.
func (k *KnownSet) Has(addr uint32) bool {
	b := k.tab.load(addr >> PageShift)
	if b == nil {
		return false
	}
	w := (addr >> 2) & (WordsPerPage - 1)
	return b[w>>6]&(1<<(w&63)) != 0
}

// Len returns the number of words in the set.
func (k *KnownSet) Len() int { return k.words }

// Pages returns the number of pages with at least one word in the set.
func (k *KnownSet) Pages() int { return k.tab.count }

// Reset empties the set in O(directory).
func (k *KnownSet) Reset() {
	k.tab.reset()
	k.words = 0
}

// Clone returns an independent logical copy in O(directory): the page
// bitmaps become shared copy-on-write, so neither side's future inserts
// affect the other. Clone of a nil set returns nil.
func (k *KnownSet) Clone() *KnownSet {
	if k == nil {
		return nil
	}
	c := &KnownSet{words: k.words}
	k.tab.shareInto(&c.tab)
	return c
}

// RestoreFrom makes k an independent logical copy of s, as s.Clone() would
// return, but in place, recycling the bitmaps k owns alone (see
// Memory.RestoreFrom). A nil s empties k. s must not be k.
func (k *KnownSet) RestoreFrom(s *KnownSet) {
	k.tab.recycle()
	k.words = 0
	if s != nil {
		s.tab.shareInto(&k.tab)
		k.words = s.words
	}
}

// Words returns the word addresses in ascending order.
func (k *KnownSet) Words() []uint32 {
	out := make([]uint32, 0, k.words)
	k.tab.forEach(func(pi uint32, b *knownBits) {
		base := pi << PageShift
		for i, word := range b {
			for word != 0 {
				bit := uint32(bits.TrailingZeros64(word))
				out = append(out, base|(uint32(i)<<6|bit)<<2)
				word &= word - 1
			}
		}
	})
	return out
}
