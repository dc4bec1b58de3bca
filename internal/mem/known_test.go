package mem

import (
	"math/rand"
	"sort"
	"testing"
)

// TestKnownSetBasics: word granularity, byte-address normalization, and
// counts.
func TestKnownSetBasics(t *testing.T) {
	k := NewKnownSet()
	if k.Has(0x1000) || k.Len() != 0 {
		t.Fatal("fresh set not empty")
	}
	k.Add(0x1001) // any byte of the word marks the word
	if !k.Has(0x1000) || !k.Has(0x1003) {
		t.Error("word containing the added byte not known")
	}
	if k.Has(0x1004) {
		t.Error("neighboring word leaked in")
	}
	k.Add(0x1002) // same word: no growth
	if k.Len() != 1 {
		t.Errorf("Len = %d, want 1", k.Len())
	}
	k.Add(0xFFFF_FFFC) // top of the address space
	if !k.Has(0xFFFF_FFFF) || k.Len() != 2 {
		t.Error("top-of-space word mishandled")
	}
	words := k.Words()
	if len(words) != 2 || words[0] != 0x1000 || words[1] != 0xFFFF_FFFC {
		t.Errorf("Words = %#x", words)
	}
	k.Reset()
	if k.Len() != 0 || k.Has(0x1000) || k.Pages() != 0 {
		t.Error("Reset left residue")
	}
}

// TestKnownSetCloneIsolation: clones share nothing observable.
func TestKnownSetCloneIsolation(t *testing.T) {
	k := NewKnownSet()
	k.Add(0x4000)
	c := k.Clone()
	k.Add(0x4004)
	c.Add(0x8000)
	if c.Has(0x4004) {
		t.Error("clone saw parent insert")
	}
	if k.Has(0x8000) {
		t.Error("parent saw clone insert")
	}
	if k.Len() != 2 || c.Len() != 2 {
		t.Errorf("lens = %d, %d", k.Len(), c.Len())
	}
	var nilSet *KnownSet
	if nilSet.Clone() != nil {
		t.Error("nil clone must be nil")
	}
	nilSet.Parts(true, func(uint32, any) { t.Error("nil set must have no parts") })
}

// TestKnownSetVsMapParity drives the bitmap and the reference
// map[uint32]bool through an identical random schedule of inserts,
// membership probes, resets, and clone/mutate rounds — addresses chosen
// to cross page boundaries and hit partial words — and demands identical
// observable behavior throughout. This is the map-vs-bitmap parity
// property at the data-structure level; the replay-level parity lives in
// internal/core.
func TestKnownSetVsMapParity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKnownSet()
		ref := make(map[uint32]bool)
		// Clones with their reference copies, mutated independently.
		type pair struct {
			k   *KnownSet
			ref map[uint32]bool
		}
		var clones []pair
		randAddr := func() uint32 {
			// Mix page-interior, page-boundary and partial-word addresses
			// over a few discontiguous regions.
			base := []uint32{0, PageSize - 4, 17 * PageSize, 0x7FFF_F000}[rng.Intn(4)]
			return base + uint32(rng.Intn(3*PageSize))
		}
		for i := 0; i < 4000; i++ {
			switch rng.Intn(12) {
			case 0: // probe
				a := randAddr()
				if k.Has(a) != ref[a&^3] {
					t.Fatalf("seed %d: Has(%#x) = %v, map says %v", seed, a, k.Has(a), ref[a&^3])
				}
			case 1: // reset, rarely
				if rng.Intn(10) == 0 {
					k.Reset()
					ref = make(map[uint32]bool)
				}
			case 2: // clone
				cp := make(map[uint32]bool, len(ref))
				for a := range ref {
					cp[a] = true
				}
				clones = append(clones, pair{k: k.Clone(), ref: cp})
			case 3: // mutate a clone
				if len(clones) > 0 {
					c := clones[rng.Intn(len(clones))]
					a := randAddr()
					c.k.Add(a)
					c.ref[a&^3] = true
				}
			default: // insert
				a := randAddr()
				k.Add(a)
				ref[a&^3] = true
			}
		}
		check := func(name string, k *KnownSet, ref map[uint32]bool) {
			if k.Len() != len(ref) {
				t.Fatalf("seed %d %s: Len = %d, map has %d", seed, name, k.Len(), len(ref))
			}
			want := make([]uint32, 0, len(ref))
			for a := range ref {
				want = append(want, a)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := k.Words()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: Words[%d] = %#x, want %#x", seed, name, i, got[i], want[i])
				}
			}
		}
		check("main", k, ref)
		for _, c := range clones {
			check("clone", c.k, c.ref)
		}
	}
}
