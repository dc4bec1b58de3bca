package core_test

import (
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"

	bitio "bugnet/internal/bits"
	"bugnet/internal/core"
	"bugnet/internal/fll"
	"bugnet/internal/workload"
)

// TestHookCallsMatchLogs: on a machine that tracks no known set, replay of
// the pinned gzip window calls the loggable hook for exactly the operations
// the logs say reach it, and reads memory for exactly the ones they say
// feed the dictionary (countOps); a machine that tracks the known set
// calls it for every loggable operation, and reads for the same ones.
func TestHookCallsMatchLogs(t *testing.T) {
	logs := pinnedGzip(t)
	img := workload.ByName("gzip").Image
	want := countOps(t, core.WrapFLLs(logs))
	if want.hooked >= want.ops {
		t.Fatalf("the logs hook %d of %d operations; the window should pass some", want.hooked, want.ops)
	}
	for _, known := range []bool{false, true} {
		var hooked, reads uint64
		m := core.NewReplayerLogs(img, logs).Machine(core.MachineOptions{TrackKnown: known})
		m.CountHooks(&hooked, &reads)
		if _, err := m.StepN(math.MaxUint64); err != nil {
			t.Fatal(err)
		}
		wantHooked := want.hooked
		if known {
			wantHooked = want.ops
		}
		if hooked != wantHooked || reads != want.reads {
			t.Errorf("TrackKnown %v: %d hook calls, %d reads; the logs count %d and %d", known, hooked, reads, wantHooked, want.reads)
		}
	}
}

// reencode returns a copy of l whose entry stream holds entries, with the
// trailer's bit counts to match.
func reencode(l *fll.Log, entries []fll.RawEntry) *fll.Log {
	c := *l
	fullLC, rank := uint(bits.Len64(l.IntervalLimit)), uint(bits.Len32(l.DictSize-1))
	var w bitio.Writer
	c.UncompressedBits = 0
	for _, e := range entries {
		lc, long := uint(5), uint64(0)
		if e.LongLC {
			lc, long = fullLC, 1
		}
		w.WriteBits(long<<lc|e.Skip, 1+lc)
		if e.FromDict {
			w.WriteBits(uint64(e.Rank), 1+rank)
		} else {
			w.WriteBits(1<<32|uint64(e.Value), 1+32)
		}
		c.UncompressedBits += 1 + uint64(lc) + 32
	}
	c.Entries = append([]byte(nil), w.Bytes()...)
	c.EntryBits = w.Len()
	c.NumEntries = uint64(len(entries))
	return &c
}

// TestLongLCountLeavesEntriesUnconsumed: an interval whose last L-Count
// runs past the operations it executes fails with unconsumed log entries
// while the core is still counting that L-Count down, with the same error
// as a machine that hooks every operation.
func TestLongLCountLeavesEntriesUnconsumed(t *testing.T) {
	logs := pinnedGzip(t)
	img := workload.ByName("gzip").Image
	// An interval whose last entry is no rank: the core counts its L-Count
	// down.
	var entries []fll.RawEntry
	i := len(logs) / 2
	for ; ; i++ {
		var err error
		if entries, err = logs[i].DumpEntries(0); err != nil {
			t.Fatal(err)
		}
		if !entries[len(entries)-1].FromDict {
			break
		}
	}
	// More than every operation after the entry before it.
	last := &entries[len(entries)-1]
	last.Skip, last.LongLC = logs[i].Ops, true
	long := reencode(logs[i], entries)
	window := append([]*fll.Log(nil), logs...)
	window[i] = long
	// Every hook call the logs count but the last entry's.
	wantHooked := countOps(t, core.WrapFLLs([]*fll.Log{long})).hooked - 1

	var msgs [2]string
	for k, known := range []bool{false, true} {
		var hooked, reads uint64
		m := core.NewReplayerLogs(img, window).Intervals(i, i+1).Machine(core.MachineOptions{TrackKnown: known})
		m.CountHooks(&hooked, &reads)
		_, err := m.StepN(math.MaxUint64)
		if !errors.Is(err, core.ErrDiverged) || !strings.Contains(err.Error(), "unconsumed log entries") {
			t.Fatalf("TrackKnown %v: replay returned %v; want unconsumed log entries", known, err)
		}
		msgs[k] = err.Error()
		if !known && (hooked != wantHooked || m.Passing() == 0) {
			t.Fatalf("the counting machine hooked %d operations and has %d left to pass; want %d and some",
				hooked, m.Passing(), wantHooked)
		}
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("the counting machine failed with %q, the hooked one with %q", msgs[0], msgs[1])
	}
}

// TestSnapshotMidCountdownReplaysIdentically: a snapshot taken while the
// core of a machine without a known set is counting an L-Count down,
// restored after the machine ran on, replays to the same end as the run it
// was taken from and as an uninterrupted replay.
func TestSnapshotMidCountdownReplaysIdentically(t *testing.T) {
	logs := pinnedGzip(t)
	img := workload.ByName("gzip").Image
	want, err := core.NewReplayerLogs(img, logs).Run()
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewReplayerLogs(img, logs).Machine(core.MachineOptions{})
	if _, err := m.StepN(want.Instructions / 3); err != nil {
		t.Fatal(err)
	}
	// Stop inside an entry's L-Count, not past an interval's last entry.
	for p := m.Passing(); p < 2 || p > math.MaxUint32; p = m.Passing() {
		if err := m.StepOne(); err != nil || m.Done() {
			t.Fatalf("no countdown found after %d instructions (%v)", m.Pos(), err)
		}
	}
	snap, passing := m.Snapshot(), m.Passing()
	check := func(what string) {
		t.Helper()
		if _, err := m.StepN(math.MaxUint64); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got := m.Result()
		if got.Final != want.Final || got.Instructions != want.Instructions || got.Injected != want.Injected {
			t.Fatalf("%s: replay ended at pc %#x after %d instructions, %d injected; want %#x, %d, %d",
				what, got.Final.PC, got.Instructions, got.Injected, want.Final.PC, want.Instructions, want.Injected)
		}
	}
	check("run on from the snapshot")
	m.Restore(snap)
	if m.Passing() != passing {
		t.Fatalf("restore left %d operations to pass; the snapshot was taken with %d", m.Passing(), passing)
	}
	check("run from the restored snapshot")
}
