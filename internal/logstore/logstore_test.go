package logstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// payload builds a distinguishable encoded blob for an item.
func payload(cid uint32) []byte {
	return []byte(fmt.Sprintf("encoded-log-%d", cid))
}

func TestUnlimitedRetainsAll(t *testing.T) {
	s := New(0)
	for i := 0; i < 100; i++ {
		if err := s.Append(Item{TID: i % 3, CID: uint32(i), Timestamp: uint64(i), Bytes: 100, Instructions: 10}, payload(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.RetainedCount != 100 || st.EvictedCount != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.RetainedEncodedBytes == 0 {
		t.Errorf("encoded bytes not accounted: %+v", st)
	}
	if s.ReplayWindow(0) != 340 { // 34 items x 10
		t.Errorf("replay window = %d", s.ReplayWindow(0))
	}
}

func TestBudgetEvictsOldestFirst(t *testing.T) {
	s := New(250)
	s.Append(Item{CID: 1, Timestamp: 1, Bytes: 100}, payload(1))
	s.Append(Item{CID: 2, Timestamp: 2, Bytes: 100}, payload(2))
	s.Append(Item{CID: 3, Timestamp: 3, Bytes: 100}, payload(3)) // 300 > 250: evict CID 1
	items := s.All()
	if len(items) != 2 || items[0].CID != 2 || items[1].CID != 3 {
		t.Fatalf("items = %+v", items)
	}
	st := s.Stats()
	if st.EvictedCount != 1 || st.EvictedBytes != 100 || st.RetainedBytes != 200 {
		t.Errorf("stats = %+v", st)
	}
	// The evicted item's bytes are gone; the retained ones load back.
	if _, err := s.Load(items[0].Seq); err != nil {
		t.Errorf("retained item failed to load: %v", err)
	}
	if _, err := s.Load(0); !errors.Is(err, ErrEvicted) {
		t.Errorf("evicted load error = %v; want ErrEvicted", err)
	}
}

func TestOversizeItemAlwaysKept(t *testing.T) {
	s := New(50)
	s.Append(Item{CID: 1, Bytes: 500}, payload(1))
	if len(s.All()) != 1 {
		t.Fatal("single oversize item must be retained (never evict the newest)")
	}
	s.Append(Item{CID: 2, Bytes: 10}, payload(2))
	items := s.All()
	if len(items) != 1 || items[0].CID != 2 {
		t.Errorf("items = %+v", items)
	}
}

func TestThreadFiltering(t *testing.T) {
	s := New(0)
	s.Append(Item{TID: 0, CID: 1, Bytes: 10, Instructions: 5}, payload(1))
	s.Append(Item{TID: 1, CID: 1, Bytes: 10, Instructions: 7}, payload(2))
	s.Append(Item{TID: 0, CID: 2, Bytes: 10, Instructions: 9}, payload(3))
	if got := s.Thread(0); len(got) != 2 || got[0].CID != 1 || got[1].CID != 2 {
		t.Errorf("Thread(0) = %+v", got)
	}
	if s.ReplayWindow(1) != 7 {
		t.Errorf("window(1) = %d", s.ReplayWindow(1))
	}
	if ts := s.Threads(); len(ts) != 2 || ts[0] != 0 || ts[1] != 1 {
		t.Errorf("Threads = %v", ts)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	s := New(0)
	for i := uint32(1); i <= 5; i++ {
		s.Append(Item{CID: i, Bytes: 10}, payload(i))
	}
	for _, it := range s.All() {
		data, err := s.Load(it.Seq)
		if err != nil {
			t.Fatalf("seq %d: %v", it.Seq, err)
		}
		if string(data) != string(payload(it.CID)) {
			t.Errorf("seq %d: data = %q", it.Seq, data)
		}
		if it.EncodedBytes != int64(len(data)) {
			t.Errorf("seq %d: encoded bytes %d != %d", it.Seq, it.EncodedBytes, len(data))
		}
	}
}

// statsInvariants checks the conservation laws the eviction accounting
// must uphold at every point of a store's life.
func statsInvariants(t *testing.T, s *Store) {
	t.Helper()
	st := s.Stats()
	if st.RetainedBytes+st.EvictedBytes != st.TotalBytes {
		t.Fatalf("byte conservation violated: %+v", st)
	}
	if st.RetainedCount+st.EvictedCount != st.TotalCount {
		t.Fatalf("count conservation violated: %+v", st)
	}
	if st.RetainedCount != len(s.All()) {
		t.Fatalf("retained count %d != len(All) %d", st.RetainedCount, len(s.All()))
	}
	if st.RetainedCount < 0 || st.RetainedBytes < 0 || st.RetainedEncodedBytes < 0 {
		t.Fatalf("negative occupancy: %+v", st)
	}
	var enc int64
	for _, it := range s.All() {
		enc += it.EncodedBytes
	}
	if enc != st.RetainedEncodedBytes {
		t.Fatalf("encoded accounting drifted: sum %d, stats %d", enc, st.RetainedEncodedBytes)
	}
}

// TestStatsInvariantsUnderBudgetPressure drives a store hard against its
// budget and checks the accounting conservation laws, the unlimited mode,
// and the newest-item-always-retained rule at every step.
func TestStatsInvariantsUnderBudgetPressure(t *testing.T) {
	for _, budget := range []int64{0, 1, 64, 1000} {
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			s := New(budget)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				cid := uint32(i)
				it := Item{CID: cid, Timestamp: uint64(i), Bytes: int64(1 + rng.Intn(200))}
				if err := s.Append(it, payload(cid)); err != nil {
					t.Fatal(err)
				}
				statsInvariants(t, s)
				items := s.All()
				if len(items) == 0 {
					t.Fatal("newest item evicted")
				}
				if newest := items[len(items)-1]; newest.CID != cid {
					t.Fatalf("newest retained is C%d, appended C%d", newest.CID, cid)
				}
				if st := s.Stats(); budget > 0 && st.RetainedBytes > budget && st.RetainedCount > 1 {
					t.Fatalf("over budget with evictable items: %+v", st)
				}
			}
			if st := s.Stats(); budget <= 0 && (st.EvictedCount != 0 || st.RetainedCount != 500) {
				t.Fatalf("unlimited budget evicted: %+v", st)
			}
		})
	}
}

// TestPropertyBudgetInvariant: after any append sequence, retained bytes
// never exceed the budget unless a single newest item alone exceeds it; and
// retained items remain in append order.
func TestPropertyBudgetInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(1 + rng.Intn(5000))
		s := New(budget)
		for i := 0; i < 300; i++ {
			s.Append(Item{
				CID:       uint32(i),
				Timestamp: uint64(i),
				Bytes:     int64(1 + rng.Intn(300)),
			}, payload(uint32(i)))
			st := s.Stats()
			if st.RetainedBytes > budget && st.RetainedCount > 1 {
				return false
			}
			items := s.All()
			for j := 1; j < len(items); j++ {
				if items[j].CID != items[j-1].CID+1 {
					return false // order broken or non-contiguous eviction
				}
			}
		}
		st := s.Stats()
		return st.TotalCount == 300 && st.RetainedCount+st.EvictedCount == 300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// BenchmarkMemoryAppendEvict is the memory region in steady state — at its
// budget, every append evicting what it displaces — at the two item sizes
// the benchmark's workloads produce: record_dense closes a 120 KB interval
// every 100 K instructions, fleet_triage a 1.2 KB one every 10 K, both
// into 512 KB regions.
func BenchmarkMemoryAppendEvict(b *testing.B) {
	for _, size := range []int{120 << 10, 1200} {
		b.Run(fmt.Sprintf("item_%dB", size), func(b *testing.B) {
			s := New(512 << 10)
			data := make([]byte, size)
			it := Item{Bytes: int64(size), Instructions: 1}
			for i := 0; i < 2*(512<<10)/size; i++ {
				s.Append(it, data)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Append(it, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
