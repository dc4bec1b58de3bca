package parreplay

import (
	"errors"
	"reflect"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/cache"
	"bugnet/internal/core"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
)

func tinyCache() cache.Config {
	return cache.Config{
		L1: cache.LevelConfig{SizeBytes: 1 << 10, BlockBytes: 32, Assoc: 2},
		L2: cache.LevelConfig{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 4},
	}
}

const sumProgram = `
        .data
arr:    .space 256
        .text
main:   la   t0, arr
        li   t1, 0
        li   t2, 64
init:   slli t3, t1, 2
        add  t3, t0, t3
        sw   t1, (t3)
        addi t1, t1, 1
        blt  t1, t2, init
        li   t1, 0
        li   a0, 0
sum:    slli t3, t1, 2
        add  t3, t0, t3
        lw   t4, (t3)
        add  a0, a0, t4
        addi t1, t1, 1
        blt  t1, t2, sum
        li   a7, 1
        syscall
`

const crashProgram = `
        .data
p:      .word 0
        .text
main:   li t0, 200
work:   addi t0, t0, -1
        bnez t0, work
        la t1, p
        lw t2, (t1)
deref:  lw a0, (t2)       # null deref
`

// racyProgram shares an unsynchronized counter between two threads, so
// its report carries MRLs and supports race detection.
const racyProgram = `
        .data
shared: .word 0
done:   .word 0
        .text
main:   la   a0, worker
        li   a7, 8
        syscall
        li   s2, 50
ml:     la   t0, shared
        lw   t1, (t0)
        addi t1, t1, 1
        sw   t1, (t0)
        addi s2, s2, -1
        bnez s2, ml
        la   t0, done
dwait:  amoadd t1, zero, (t0)
        beqz t1, dwait
        la   t0, shared
        lw   a0, (t0)
        li   a7, 1
        syscall

worker: li   s2, 50
wl2:    la   t0, shared
        lw   t1, (t0)
        addi t1, t1, 1
        sw   t1, (t0)
        addi s2, s2, -1
        bnez s2, wl2
        la   t0, done
        li   t1, 1
        amoswap t2, t1, (t0)
        li   a0, 0
        li   a7, 1
        syscall
`

func recordST(t *testing.T, src string, rcfg core.Config) (*core.CrashReport, *asm.Image) {
	t.Helper()
	img, err := asm.Assemble("pp.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	_, rep, _ := core.Record(img, kernel.Config{}, rcfg)
	return rep, img
}

// seqThread is the reference: the plain sequential Replayer.
func seqThread(img *asm.Image, logs []*fll.Ref, o Options) (*core.ReplayResult, error) {
	r := core.NewReplayer(img, logs)
	r.LogCodeLoads = o.LogCodeLoads
	r.DictOptions = o.DictOptions
	r.MaxPages = o.MaxPages
	r.TraceDepth = o.TraceDepth
	return r.Run()
}

// TestThreadParityManyIntervals is the core determinism property: a
// parallel replay of a many-interval window is byte-identical — final
// registers, counts, fault, and the reassembled backtrace ring — to the
// sequential replay, at several pool widths.
func TestThreadParityManyIntervals(t *testing.T) {
	rep, img := recordST(t, sumProgram,
		core.Config{IntervalLength: 100, DictSize: 64, Cache: tinyCache()})
	logs := rep.FLLs[0]
	if len(logs) < 4 {
		t.Fatalf("want several intervals, got %d", len(logs))
	}
	o := Options{TraceDepth: 64}
	want, err := seqThread(img, logs, o)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if len(want.Trace) != 64 {
		t.Fatalf("reference trace length %d; want a full ring", len(want.Trace))
	}
	for _, workers := range []int{1, 2, 8} {
		o.Workers = workers
		got, err := ReplayThread(img, logs, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: parallel result differs from sequential\n got: %+v\nwant: %+v",
				workers, got, want)
		}
	}
}

// TestThreadParityCrash checks the fault-carrying final interval: the
// fault record, final registers (the bad pointer), and trace must match.
func TestThreadParityCrash(t *testing.T) {
	rep, img := recordST(t, crashProgram,
		core.Config{IntervalLength: 50, DictSize: 64, Cache: tinyCache()})
	logs := rep.FLLs[0]
	if rep.Crash == nil {
		t.Fatal("program did not crash")
	}
	o := Options{Workers: 8, TraceDepth: 32}
	want, err := seqThread(img, logs, o)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	got, err := ReplayThread(img, logs, o)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if got.Fault == nil || want.Fault == nil {
		t.Fatalf("fault lost: got %v want %v", got.Fault, want.Fault)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("crash replay differs\n got: %+v\nwant: %+v", got, want)
	}
}

// TestThreadParityDivergenceError tampers with an interior interval and
// checks both paths report the same divergence (first failure in interval
// order wins, later intervals' outcomes are discarded).
func TestThreadParityDivergenceError(t *testing.T) {
	rep, img := recordST(t, sumProgram,
		core.Config{IntervalLength: 100, DictSize: 64, Cache: tinyCache()})
	logs := append([]*fll.Ref(nil), rep.FLLs[0]...)
	if len(logs) < 3 {
		t.Fatalf("want ≥3 intervals, got %d", len(logs))
	}
	l1, err := logs[1].Open()
	if err != nil {
		t.Fatal(err)
	}
	tampered := *l1
	tampered.State.PC = 0 // fetch from unmapped zero faults instantly
	logs[1] = core.WrapFLLs([]*fll.Log{&tampered})[0]

	_, seqErr := seqThread(img, logs, Options{})
	if seqErr == nil {
		t.Fatal("sequential replay of tampered log succeeded")
	}
	_, parErr := ReplayThread(img, logs, Options{Workers: 8})
	if parErr == nil {
		t.Fatal("parallel replay of tampered log succeeded")
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("divergence errors differ:\n seq: %v\n par: %v", seqErr, parErr)
	}
	if !errors.Is(parErr, core.ErrDiverged) {
		t.Errorf("parallel error does not wrap ErrDiverged: %v", parErr)
	}
}

// TestReportParitySingleThread drives the report-level entry point on a
// single-threaded crash report — the fleet-scale common case that takes
// the parallel path.
func TestReportParitySingleThread(t *testing.T) {
	rep, img := recordST(t, crashProgram,
		core.Config{IntervalLength: 50, DictSize: 64, Cache: tinyCache()})
	mr := core.NewMultiReplayer(img, rep)
	mr.TraceDepth = 32
	want, err := mr.Run()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	before := mIntervals.Value()
	got, err := ReplayReport(img, rep, ReportOptions{Options: Options{Workers: 8, TraceDepth: 32}})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report replay differs\n got: %+v\nwant: %+v", got, want)
	}
	if mIntervals.Value() == before {
		t.Error("parallel path replayed no intervals (fell back to sequential?)")
	}
}

// TestReportParityMultiThread covers the multithreaded report: it carries
// MRLs, so ReplayReport must route it to the sequential MultiReplayer and
// the results are identical by construction — the test pins the routing.
func TestReportParityMultiThread(t *testing.T) {
	img, err := asm.Assemble("mt.s", racyProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	_, rep, _ := core.Record(img, kernel.Config{Cores: 2},
		core.Config{IntervalLength: 1 << 20, Cache: tinyCache()})
	if len(rep.MRLs) == 0 {
		t.Fatal("expected MRLs from the racy program")
	}
	mr := core.NewMultiReplayer(img, rep)
	mr.DetectRaces = true
	want, err := mr.Run()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	before := SequentialFallbacks()
	got, err := ReplayReport(img, rep, ReportOptions{
		Options:     Options{Workers: 8},
		DetectRaces: true,
	})
	if err != nil {
		t.Fatalf("parallel entry: %v", err)
	}
	if SequentialFallbacks() == before {
		t.Error("MRL-carrying report with race detection was not routed sequentially")
	}
	if !reflect.DeepEqual(got.Races, want.Races) {
		t.Errorf("races differ: got %+v want %+v", got.Races, want.Races)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MT report replay differs\n got: %+v\nwant: %+v", got, want)
	}
}

// TestInteriorWindowRejectsFaultExemption pins the interval-index semantics
// the executor depends on: under LogCodeLoads a fault-terminated interval
// may stop one logged fetch short only when it really is the window's final
// interval. In a window where the same fault-terminated interval comes
// twice, core.Replayer.Intervals grants the exemption to the second alone;
// and a one-interval window its caller marks InteriorWindow (a window cut
// from a larger recording) is denied it.
func TestInteriorWindowRejectsFaultExemption(t *testing.T) {
	img, err := asm.Assemble("c.s", crashProgram)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, _ := core.Record(img, kernel.Config{},
		core.Config{IntervalLength: 1 << 20, Cache: tinyCache(), LogCodeLoads: true})
	logs := rep.FLLs[0]
	last := logs[len(logs)-1]
	if last.End != fll.EndFault {
		t.Fatalf("the recording ends %v, not in a fault", last.End)
	}

	r := core.NewReplayer(img, []*fll.Ref{last, last})
	r.LogCodeLoads = true
	if _, err := r.Intervals(1, 2).Run(); err != nil {
		t.Fatalf("final-interval replay should claim the exemption: %v", err)
	}
	if _, err := r.Intervals(0, 1).Run(); !errors.Is(err, core.ErrDiverged) {
		t.Errorf("interior interval claimed the final-interval fetch exemption: err=%v", err)
	}

	r = core.NewReplayer(img, []*fll.Ref{last})
	r.LogCodeLoads = true
	if _, err := r.Run(); err != nil {
		t.Fatalf("final-interval replay should claim the exemption: %v", err)
	}
	r.InteriorWindow = true
	if _, err := r.Run(); !errors.Is(err, core.ErrDiverged) {
		t.Errorf("interior window claimed the final-interval fetch exemption: err=%v", err)
	}
}

// TestEmptyLogs pins the degenerate inputs.
func TestEmptyLogs(t *testing.T) {
	img, err := asm.Assemble("e.s", sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seqThread(img, nil, Options{})
	if err != nil {
		t.Fatalf("sequential empty: %v", err)
	}
	got, err := ReplayThread(img, nil, Options{Workers: 8})
	if err != nil {
		t.Fatalf("parallel empty: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty replay differs: got %+v want %+v", got, want)
	}

	// A report thread with no retained logs, here the traced crashing
	// thread, replays to the result the sequential schedule gives it.
	rep, img := recordST(t, crashProgram,
		core.Config{IntervalLength: 50, DictSize: 64, Cache: tinyCache()})
	rep.FLLs[1] = nil
	rep.Crash.TID = 1
	mr := core.NewMultiReplayer(img, rep)
	mr.TraceDepth = 32
	wantRep, err := mr.Run()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	gotRep, err := ReplayReport(img, rep, ReportOptions{Options: Options{Workers: 8, TraceDepth: 32}})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("report with an empty thread differs\n got: %+v\nwant: %+v", gotRep, wantRep)
	}
}

// pageWalkProgram stores one word into each of 16 data pages in turn, so a
// window of short intervals maps a few new pages per interval and all 16
// over the whole window.
const pageWalkProgram = `
        .data
buf:    .space 65536
        .text
main:   la   t0, buf
        li   t1, 16
        li   t2, 4096
walk:   sw   t1, (t0)
        add  t0, t0, t2
        addi t1, t1, -1
        bnez t1, walk
        li   a0, 0
        li   a7, 1
        syscall
`

// TestReportVerdictIgnoresWidth: a single-threaded report whose intervals
// each map fewer pages than MaxPages but whose window maps more replays to
// the same result, errors included, at every pool width. The verdict is
// then a function of the report alone, which the triage verdict cache and
// a cluster's single replayer both rely on.
func TestReportVerdictIgnoresWidth(t *testing.T) {
	rep, img := recordST(t, pageWalkProgram,
		core.Config{IntervalLength: 16, DictSize: 64, Cache: tinyCache()})
	const maxPages = 8
	if len(rep.MRLs) != 0 || len(rep.FLLs[0]) < 4 {
		t.Fatalf("want an MRL-free report of several intervals: %d MRLs, %d intervals", len(rep.MRLs), len(rep.FLLs[0]))
	}
	// The report is over budget across its window: a sequential replay
	// under the same cap fails.
	if _, err := seqThread(img, rep.FLLs[0], Options{MaxPages: maxPages}); err == nil {
		t.Fatalf("sequential replay mapped the whole window within %d pages", maxPages)
	}
	type outcome struct {
		res *core.MultiReplayResult
		err error
	}
	replay := func(workers int) outcome {
		res, err := ReplayReport(img, rep, ReportOptions{Options: Options{Workers: workers, MaxPages: maxPages, TraceDepth: 16}})
		return outcome{res, err}
	}
	want := replay(1)
	if want.err != nil {
		t.Fatalf("workers=1: %v (each interval maps fewer than %d pages)", want.err, maxPages)
	}
	for _, workers := range []int{2, 4} {
		if got := replay(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: %+v, %v\nworkers=1: %+v, %v", workers, got.res, got.err, want.res, want.err)
		}
	}
}
