package core

import (
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/kernel"
)

// TestFlushIdempotent: Flush finalizes the open partial intervals exactly
// once; further Flush calls (or a Flush after the fault path already
// collected the logs) must not append empty duplicate intervals to the
// stores.
func TestFlushIdempotent(t *testing.T) {
	img := asm.MustAssemble("spin.s", `
        .data
w:      .word 7
        .text
main:   la   t0, w
loop:   lw   t1, (t0)
        addi t1, t1, 1
        sw   t1, (t0)
        j    loop
`)
	m := kernel.New(img, kernel.Config{MaxSteps: 5_000}, nil)
	rec := NewRecorder(m, Config{IntervalLength: 1_000, Cache: tinyCache()})
	m.Run() // step budget expires mid-interval

	rec.Flush()
	first := rec.FLLStore().Stats()
	if first.TotalCount == 0 {
		t.Fatal("flush finalized nothing")
	}
	for _, it := range rec.FLLStore().All() {
		if it.Instructions == 0 {
			t.Fatalf("flush appended an empty interval: %+v", it)
		}
	}

	rec.Flush()
	rec.Flush()
	if got := rec.FLLStore().Stats(); got != first {
		t.Fatalf("repeated Flush changed the store: first %+v, after %+v", first, got)
	}
	if got := rec.MRLStore().Stats().TotalCount; got != 0 {
		t.Fatalf("uniprocessor flush produced %d MRLs", got)
	}

	// The report built after double-Flush replays cleanly.
	rep := rec.Report()
	rr, err := NewReplayer(img, rep.FLLs[0]).Run()
	if err != nil {
		t.Fatalf("replay after double flush: %v", err)
	}
	if rr.Intervals != first.TotalCount {
		t.Errorf("replayed %d intervals, stores hold %d", rr.Intervals, first.TotalCount)
	}
}

// TestReportMetaCacheBounded: the recorder's metadata cache must track
// the retained window, not the whole run — continuous recording under a
// budget would otherwise regrow the RAM ceiling the disk backend removes.
func TestReportMetaCacheBounded(t *testing.T) {
	img := asm.MustAssemble("spin.s", `
        .data
w:      .word 7
        .text
main:   la   t0, w
loop:   lw   t1, (t0)
        addi t1, t1, 1
        sw   t1, (t0)
        j    loop
`)
	m := kernel.New(img, kernel.Config{MaxSteps: 60_000}, nil)
	rec := NewRecorder(m, Config{IntervalLength: 500, FLLBudget: 2_000, Cache: tinyCache()})
	m.Run()
	rec.Flush()
	st := rec.FLLStore().Stats()
	if st.EvictedCount == 0 {
		t.Fatal("budget never evicted; shrink it")
	}
	if rec.fllMeta.len() != st.RetainedCount {
		t.Fatalf("meta cache holds %d entries for %d retained intervals",
			rec.fllMeta.len(), st.RetainedCount)
	}
	// The cached path still produces a coherent, replayable report.
	rep := rec.Report()
	rr, err := NewReplayer(img, rep.FLLs[0]).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Instructions != rec.FLLStore().ReplayWindow(0) {
		t.Fatalf("replayed %d, window %d", rr.Instructions, rec.FLLStore().ReplayWindow(0))
	}
}

// TestFlushAfterFaultAppendsNothing: the crash path already finalizes
// every thread's interval; a defensive Flush afterwards must be a no-op.
func TestFlushAfterFaultAppendsNothing(t *testing.T) {
	img := asm.MustAssemble("crash.s", `
main:   li   t0, 0
boom:   lw   a0, (t0)
`)
	m := kernel.New(img, kernel.Config{}, nil)
	rec := NewRecorder(m, Config{Cache: tinyCache()})
	res := m.Run()
	if res.Crash == nil {
		t.Fatal("no crash")
	}
	before := rec.FLLStore().Stats()
	rec.Flush()
	if got := rec.FLLStore().Stats(); got != before {
		t.Fatalf("flush after fault changed the store: %+v vs %+v", got, before)
	}
}

// TestSeqFIFO: the metadata window slides with the store's — lookups hit
// exactly the live sequence numbers, and a put that skips a sequence
// number restarts it.
func TestSeqFIFO(t *testing.T) {
	var q seqFIFO[uint64]
	held := func(seq uint64) bool { _, ok := q.get(seq); return ok }
	for seq := uint64(100); seq < 400; seq++ {
		q.put(seq, seq*3)
		lo := uint64(100)
		if seq >= 110 {
			lo = seq - 9 // a window of ten, from seq 110 on
			q.prune(lo)
		}
		if q.len() != int(seq-lo+1) || held(lo-1) || held(seq+1) {
			t.Fatalf("after seq %d: window holds %d, want exactly [%d, %d]", seq, q.len(), lo, seq)
		}
		for s := lo; s <= seq; s++ {
			if v, ok := q.get(s); !ok || v != s*3 {
				t.Fatalf("after seq %d: get(%d) = %d, %v", seq, s, v, ok)
			}
		}
	}
	q.put(405, 7) // another writer took 400..404
	if v, _ := q.get(405); q.len() != 1 || held(399) || v != 7 {
		t.Errorf("a gap did not restart the window: len %d", q.len())
	}
	q.prune(500)
	if q.len() != 0 || held(405) {
		t.Errorf("pruning past the end left %d entries", q.len())
	}
}
