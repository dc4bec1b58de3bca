package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"bugnet/internal/triage"
)

func scheduleFor(t *testing.T, seed int64, n int) []fleetOp {
	t.Helper()
	c, err := recordCorpus(triage.NewImageRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ops, err := buildSchedule(c, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// The seed orders the fleet schedule and nothing else: the same seed gives
// the same uploads, another seed another order of the same mix.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	const n = 360
	a, b, other := scheduleFor(t, 7, n), scheduleFor(t, 7, n), scheduleFor(t, 8, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	same := true
	for i := range a {
		if a[i].Bug != other[i].Bug || a[i].Dup != other[i].Dup {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 gave the same schedule")
	}

	for _, ops := range [][]fleetOp{a, other} {
		dups, perBug, seen := 0, map[int]int{}, map[string]bool{}
		for i, op := range ops {
			if op.Node != i%fleetNodes {
				t.Fatalf("op %d goes to node %d, want round-robin", i, op.Node)
			}
			if op.Dup {
				dups++
				if !seen[op.ID] {
					t.Fatalf("op %d duplicates an archive that was never sent", i)
				}
				continue
			}
			if seen[op.ID] {
				t.Fatalf("op %d: fresh archive %s was sent before", i, op.ID)
			}
			seen[op.ID] = true
			perBug[op.Bug]++
		}
		// Three of every ten, but for the first ops, which have nothing to copy.
		if want := dupsPerTen * n / 10; dups > want || dups < want-5*dupsPerTen {
			t.Errorf("%d duplicates in %d ops, want just under %d", dups, n, want)
		}
		lo, hi := n, 0
		for _, k := range perBug {
			lo, hi = min(lo, k), max(hi, k)
		}
		if len(perBug) != 18 || hi-lo > 1 {
			t.Errorf("fresh archives per bug range %d..%d over %d bugs, want every bug equally often", lo, hi, len(perBug))
		}
	}
}

func TestSeekPositionsCoverTheWindow(t *testing.T) {
	const window = 1_000_000
	a, b, other := seekPositions(window, 3), seekPositions(window, 3), seekPositions(window, 4)
	var deciles [10]int
	differs := false
	for i := 0; i < 500; i++ {
		p := a()
		if p != b() {
			t.Fatal("the same seed gave two different position sequences")
		}
		differs = differs || p != other()
		if p < 1 || p > window {
			t.Fatalf("position %d outside [1, %d]", p, window)
		}
		deciles[(p-1)*10/window]++
	}
	if !differs {
		t.Error("seeds 3 and 4 gave the same positions")
	}
	for d, k := range deciles {
		if k < 40 || k > 60 {
			t.Errorf("decile %d got %d of 500 positions, want about 50", d, k)
		}
	}
}

// Simulated counts must not depend on the host: two recordings of the same
// workload read the same at the snapshot and retain the same bytes.
func TestRecordCountsRepeatExactly(t *testing.T) {
	def := workloadByName("record_mt_spill") // the cheapest to record, and the one with disk regions and two threads
	snap := func() *recording {
		f, err := newFixture(def, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		r, err := startRecording(f, newHostMeter(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.finish(); err != nil {
			t.Fatal(err)
		}
		res := newResult(nil)
		verifyWindow(r.img, r.archive, res)
		if res.Failed > 0 || res.Attempted == 0 {
			t.Fatalf("retained window does not replay: %v", res.Failures)
		}
		return r
	}
	a, b := snap(), snap()
	if !bytes.Equal(a.archive, b.archive) {
		t.Error("two recordings retained different windows")
	}
	type counts struct {
		instr, logged, total uint64
		intervals, segments  int
		fll, mrl, cache, d   any
		windowK              float64
	}
	of := func(r *recording) counts {
		return counts{r.instr, r.loggedOps, r.totalOps, r.intervals, r.segments, r.fll, r.mrl, r.cache, r.dict, r.windowK}
	}
	if !reflect.DeepEqual(of(a), of(b)) {
		t.Errorf("counts differ between two recordings:\n%+v\n%+v", of(a), of(b))
	}
	if a.instr != snapshotSlices*sliceInstr || a.mrl.TotalBytes == 0 || a.fll.EvictedCount == 0 {
		t.Errorf("snapshot after %d instructions, %d MRL bytes, %d evictions: the workload should record %d instructions, log races and evict",
			a.instr, a.mrl.TotalBytes, a.fll.EvictedCount, snapshotSlices*sliceInstr)
	}
}
