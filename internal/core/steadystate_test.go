package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/kernel"
	"bugnet/internal/logstore"
	"bugnet/internal/workload"
)

// allocatedBy returns the heap bytes allocated while m runs n more steps.
func allocatedBy(m *kernel.Machine, done *uint64, n uint64) uint64 {
	var before, after runtime.MemStats
	*done += n
	m.SetMaxSteps(*done)
	runtime.ReadMemStats(&before)
	m.Run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// ownHeap reads the heap profile: the bytes allocated so far at each stack
// that holds a frame of this module's code, so the allocations of the
// testing package and of the runtime's own goroutines are left out. So are
// the scheduler's records for a goroutine that blocks or starts (the
// innermost frame runtime.acquireSudog or runtime.malg): the runtime takes
// them from per-processor caches and allocates them only when a cache is
// empty, which depends on the core count and the goroutines' timing, not on
// what the code keeps. ownHeap's own allocations are left out too.
// Accurate only at MemProfileRate 1.
func ownHeap() map[[32]uintptr]int64 {
	runtime.GC() // publishes every allocation made before it
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+n/8+16)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	heap := make(map[[32]uintptr]int64)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		ours := false
		for i := 0; ; i++ {
			f, more := frames.Next()
			if i == 0 && (f.Function == "runtime.acquireSudog" || f.Function == "runtime.malg") ||
				f.Function == "bugnet/internal/core.ownHeap" {
				ours = false
				break
			}
			ours = ours || strings.HasPrefix(f.Function, "bugnet/")
			if !more {
				break
			}
		}
		if ours {
			heap[r.Stack0] += r.AllocBytes
		}
	}
	return heap
}

// ownAllocatedBy returns the heap bytes this module's code allocates while
// m runs n more steps (see ownHeap), and the innermost function of each
// stack that allocated them.
func ownAllocatedBy(m *kernel.Machine, done *uint64, n uint64) (bytes int64, sites []string) {
	*done += n
	m.SetMaxSteps(*done)
	before := ownHeap()
	m.Run()
	for stk, b := range ownHeap() {
		if d := b - before[stk]; d > 0 {
			bytes += d
			f, _ := runtime.CallersFrames(stk[:]).Next()
			sites = append(sites, fmt.Sprintf("%s (%d B)", f.Function, d))
		}
	}
	slices.Sort(sites)
	return bytes, sites
}

// TestRecordSteadyStateDoesNotAllocate: once the log region has filled and
// the writers, the encode buffers and the region's blocks have grown to
// the guest's interval size, continuous recording costs the collector
// nothing — the paper's recorder drains into a fixed piece of memory
// (§4.7) and so does this one. Measured against the same guest running
// unrecorded, so what Machine.Run itself allocates is not counted, and by
// the heap profile, so only what this module's code allocates is (see
// ownHeap): the guard holds at any core count.
func TestRecordSteadyStateDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// A sweep over 16 KB, twice the tiny L2: every load is a first load,
	// and every interval logs about as much as the one before.
	img := asm.MustAssemble("sweep.s", `
        .data
arr:    .space 16384
        .text
main:   la   s0, arr
        li   s1, 4096
outer:  mv   t0, s0
        mv   t2, s1
inner:  lw   t1, (t0)
        addi t1, t1, 1
        sw   t1, (t0)
        addi t0, t0, 4
        addi t2, t2, -1
        bnez t2, inner
        j    outer
`)
	const interval, warm, measured = 2_000, 200, 50
	var done, idle uint64
	unrecorded := kernel.New(img, kernel.Config{}, nil)
	ownAllocatedBy(unrecorded, &idle, warm*interval)
	control, _ := ownAllocatedBy(unrecorded, &idle, measured*interval)

	m := kernel.New(img, kernel.Config{}, nil)
	rec := NewRecorder(m, Config{IntervalLength: interval, FLLBudget: 16 << 10, Cache: tinyCache()})
	ownAllocatedBy(m, &done, warm*interval)
	before := rec.FLLStore().Stats()
	if before.EvictedCount == 0 {
		t.Fatal("the region never filled; shrink the budget")
	}
	got, sites := ownAllocatedBy(m, &done, measured*interval)
	after := rec.FLLStore().Stats()
	if n := after.TotalCount - before.TotalCount; n < 20 {
		t.Fatalf("measured only %d intervals; want at least 20", n)
	}
	if after.TotalBytes-before.TotalBytes < 20<<10 {
		t.Fatalf("the measured intervals logged %d bytes; the guest was meant to log a kilobyte each", after.TotalBytes-before.TotalBytes)
	}
	if got > control {
		t.Errorf("recording %d intervals in steady state allocated %d bytes (the guest alone: %d); want none; at %v",
			after.TotalCount-before.TotalCount, got-control, control, sites)
	}
	rec.Flush()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordSteadyStateDiskSpill: the configuration with the most moving
// parts — two threads sharing lines, MRLs, both regions spilling to
// disk — allocates per segment file (a name, a handle: 36 bytes an
// interval here), not per interval or per access.
func TestRecordSteadyStateDiskSpill(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	const interval, warm, measured, perInterval = 2_000, 150, 100, 128
	dir := t.TempDir()
	open := func(name string, budget int64) *logstore.Store {
		d, err := logstore.OpenDisk(filepath.Join(dir, name), logstore.DiskOptions{SegmentBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		s, err := logstore.Open(budget, d)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	w := workload.MTShare()
	var done uint64
	m := w.Machine(0, nil)
	rec := NewRecorder(m, Config{IntervalLength: interval, FLLStore: open("fll", 32<<10), MRLStore: open("mrl", 8<<10)})
	allocatedBy(m, &done, warm*interval)
	before, mrlBefore := rec.FLLStore().Stats(), rec.MRLStore().Stats()
	if before.EvictedCount == 0 || mrlBefore.EvictedCount == 0 {
		t.Fatalf("a region never filled (fll %+v, mrl %+v); shrink the budgets", before, mrlBefore)
	}
	got := allocatedBy(m, &done, measured*interval)
	n := rec.FLLStore().Stats().TotalCount - before.TotalCount
	if n < 20 {
		t.Fatalf("measured only %d intervals; want at least 20", n)
	}
	if got > uint64(n)*perInterval {
		t.Errorf("recording %d intervals in steady state allocated %d bytes, %d per interval; want at most %d",
			n, got, got/uint64(n), perInterval)
	}
	rec.Flush()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
}
