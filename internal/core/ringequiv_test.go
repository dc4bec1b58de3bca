package core_test

// ringequiv_test.go holds the backtrace ring, which a replay fills only over
// the last TraceDepth instructions before a point where it can be read, to
// the reference that keeps the fetch hook on for every instruction: the
// time-travel engine after every command, a bare machine after every StepN
// (the window ending before the count does), Run and RunOn, the multithreaded
// replayer's crash thread and the parallel replay's merged ring must show
// the same trail. After a divergence the gated ring holds only what was
// fetched since its untraced stretch ended: a suffix of the reference's,
// empty when the divergence fell inside the stretch.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu/cputest"
	"bugnet/internal/dict"
	"bugnet/internal/fll"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
	"bugnet/internal/mem"
	"bugnet/internal/parreplay"
	"bugnet/internal/timetravel"
	"bugnet/internal/workload"
)

// onReference runs fn with every replay machine keeping its fetch hook on.
func onReference(fn func()) {
	core.SetFetchHookAlways(true)
	defer core.SetFetchHookAlways(false)
	fn()
}

// ringWindow is one recorded (or crafted) report and the thread to debug.
type ringWindow struct {
	name     string
	img      *asm.Image
	rep      *core.CrashReport
	tid      int
	maxPages int
}

func (w ringWindow) logs() []*fll.Ref { return w.rep.FLLs[w.tid] }

// sweepProgram maps a new page every lap; under a page budget its replay
// diverges a few hundred instructions in, however long its log claims to be.
const sweepProgram = `
main:   sw   t1, (t0)
        add  t0, t0, t2
        j    main
`

var (
	ringOnce    sync.Once
	ringWindows []ringWindow
)

// ringCorpus records 24 K instructions of every SPEC analogue past an eighth
// of its warm-up, both threads of the shared-memory workload, gzip with code
// loads logged, the cpu fuzz corpus with and without code loads (without,
// the self-modifying inputs diverge), and a crafted sweep that exhausts its
// page budget.
func ringCorpus(t *testing.T) []ringWindow {
	ringOnce.Do(func() {
		record := func(w *workload.Workload, codeLoads bool) *core.CrashReport {
			m := w.Machine(w.Warmup/8, nil)
			m.Run()
			rec := core.NewRecorder(m, core.Config{IntervalLength: 5_000, LogCodeLoads: codeLoads})
			m.SetMaxSteps(w.Warmup/8 + 24_000)
			m.Run()
			rec.Flush()
			if err := rec.Err(); err != nil {
				t.Fatal(err)
			}
			return rec.Report()
		}
		for _, w := range workload.SPEC() {
			ringWindows = append(ringWindows, ringWindow{name: w.Name, img: w.Image, rep: record(w, false)})
		}
		mt := workload.MTShare()
		rep := record(mt, false)
		for tid := range rep.FLLs {
			ringWindows = append(ringWindows, ringWindow{name: fmt.Sprintf("mtshare/T%d", tid), img: mt.Image, rep: rep, tid: tid})
		}
		gz := workload.ByName("gzip")
		ringWindows = append(ringWindows, ringWindow{name: "gzip/code-loads", img: gz.Image, rep: record(gz, true)})
		for i, data := range cputest.FuzzSeeds() {
			img := cputest.FuzzImage(cputest.FuzzWords(data))
			for _, codeLoads := range []bool{false, true} {
				_, rep, _ := core.Record(img, kernel.Config{MaxSteps: 2_000},
					core.Config{IntervalLength: 97, LogCodeLoads: codeLoads})
				if len(rep.FLLs[0]) > 0 {
					ringWindows = append(ringWindows, ringWindow{name: fmt.Sprintf("cputest/%d/code-loads=%v", i, codeLoads), img: img, rep: rep})
				}
			}
		}
		ringWindows = append(ringWindows, sweepWindow())
	})
	if len(ringWindows) == 0 {
		t.Fatal("recording the corpus failed earlier")
	}
	return ringWindows
}

// sweepWindow is one crafted interval of sweepProgram claiming 10 K
// instructions under a 64-page budget.
func sweepWindow() ringWindow {
	img := asm.MustAssemble("sweep.s", sweepProgram)
	h := fll.Header{CID: 1, IntervalLimit: 1 << 20, DictSize: 64}
	h.State.PC = img.MustSymbol("main")
	for name, v := range map[string]uint32{"t0": mem.DataBase, "t1": 5, "t2": mem.PageSize} {
		h.State.Regs[regNum(name)] = v
	}
	l := fll.NewWriter(h, dict.New(64)).Close(10_000, fll.EndIntervalFull, nil)
	rep := &core.CrashReport{FLLs: map[int][]*fll.Ref{0: core.WrapFLLs([]*fll.Log{l})}}
	return ringWindow{name: "sweep", img: img, rep: rep, maxPages: 64}
}

func regNum(name string) uint8 {
	r, ok := isa.RegByName(name)
	if !ok {
		panic(name)
	}
	return r
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameRing: equal trails, or, after a divergence, a suffix of the
// reference's.
func sameRing(t *testing.T, what string, got, want []core.TraceEntry, diverged bool) {
	t.Helper()
	if !diverged || len(got) >= len(want) {
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ring %x, reference %x", what, got, want)
		}
		return
	}
	if !slices.Equal(got, want[len(want)-len(got):]) {
		t.Fatalf("%s: after a divergence the ring %x is no suffix of the reference's %x", what, got, want)
	}
}

func newReplayer(w ringWindow, depth int) *core.Replayer {
	r := core.NewReplayer(w.img, w.logs())
	r.TraceDepth = depth
	r.MaxPages = w.maxPages
	r.LogCodeLoads = w.rep.LogCodeLoads
	r.DictOptions = w.rep.DictOptions
	return r
}

// checkRuns compares Run and RunOn (on a Scratch every window passes
// through) at ring depths of one entry, the engine default, and longer than
// an interval.
func checkRuns(t *testing.T, w ringWindow, scratch *core.Scratch) {
	for _, depth := range []int{1, 16, 7_000} {
		var want *core.ReplayResult
		var werr error
		onReference(func() { want, werr = newReplayer(w, depth).Run() })
		got, err := newReplayer(w, depth).Run()
		lent, lerr := newReplayer(w, depth).RunOn(scratch)
		for _, c := range []struct {
			what string
			res  *core.ReplayResult
			err  error
		}{{"Run", got, err}, {"RunOn", lent, lerr}} {
			if errText(c.err) != errText(werr) || !reflect.DeepEqual(c.res, want) {
				t.Fatalf("%s: %s at depth %d: %+v, %v; reference %+v, %v", w.name, c.what, depth, c.res, c.err, want, werr)
			}
		}
		if want != nil && depth == 16 {
			// The merged ring of the parallel replay.
			par, err := parreplay.ReplayThread(w.img, w.logs(), parreplay.Options{Workers: 2, TraceDepth: depth,
				MaxPages: w.maxPages, LogCodeLoads: w.rep.LogCodeLoads, DictOptions: w.rep.DictOptions})
			if err != nil || !reflect.DeepEqual(par, want) {
				t.Fatalf("%s: parallel replay %+v, %v; reference %+v", w.name, par, err, want)
			}
		}
	}
}

// checkMachine steps a bare machine by random counts until the window
// ends, mostly with a count past what is left, comparing the ring after
// every call.
func checkMachine(t *testing.T, w ringWindow, seed int64) {
	build := func() *core.ReplayMachine { return newReplayer(w, 16).Machine(core.MachineOptions{}) }
	got := build()
	var ref *core.ReplayMachine
	onReference(func() { ref = build() })
	rng := rand.New(rand.NewSource(seed))
	counts := []uint64{1, 16, 17, 1_000, 1 << 40}
	for i := 0; !got.Done(); i++ {
		n := counts[rng.Intn(len(counts))]
		done, err := got.StepN(n)
		var rdone uint64
		var rerr error
		onReference(func() { rdone, rerr = ref.StepN(n) })
		label := fmt.Sprintf("%s, seed %d, call %d (StepN(%d) at %d)", w.name, seed, i, n, got.Pos()-done)
		if done != rdone || errText(err) != errText(rerr) || got.Done() != ref.Done() {
			t.Fatalf("%s: %d, %v, done %v; reference %d, %v, done %v", label, done, err, got.Done(), rdone, rerr, ref.Done())
		}
		sameRing(t, label, got.Trace(), ref.Trace(), err != nil)
		if err != nil {
			return
		}
	}
}

// checkMulti compares the multithreaded replayer's crash-thread ring, on the
// batched schedule and on the one-instruction-per-turn one race detection
// uses, and the parallel report replay's.
func checkMulti(t *testing.T, w ringWindow) {
	rep := *w.rep
	rep.Crash = &kernel.CrashInfo{TID: w.tid}
	for _, races := range []bool{false, true} {
		run := func() (*core.MultiReplayResult, error) {
			mr := core.NewMultiReplayer(w.img, &rep)
			mr.TraceDepth = 16
			mr.DetectRaces = races
			return mr.Run()
		}
		var want *core.MultiReplayResult
		var werr error
		onReference(func() { want, werr = run() })
		got, err := run()
		if errText(err) != errText(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: multithreaded replay (races %v): %v; reference %v", w.name, races, err, werr)
		}
		if werr != nil || races {
			continue
		}
		par, err := parreplay.ReplayReport(w.img, &rep, parreplay.ReportOptions{Options: parreplay.Options{Workers: 2, TraceDepth: 16}})
		if err != nil || !reflect.DeepEqual(par.Threads[w.tid].Trace, want.Threads[w.tid].Trace) {
			t.Fatalf("%s: parallel report replay's crash-thread ring differs: %v", w.name, err)
		}
	}
}

// checkEngine drives a debugger and its reference through one random
// schedule of steps, seeks, reverse steps and reverse continues, with
// breakpoints and watchpoints coming and going, comparing the outcome and
// the backtrace after every command.
func checkEngine(t *testing.T, w ringWindow, parallelism int, seed int64) {
	cfg := timetravel.Config{CheckpointEvery: 1_000, MaxPages: w.maxPages, ScanParallelism: parallelism}
	got, _, err := timetravel.NewEngineForThread(w.img, w.rep, w.tid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ref *timetravel.Engine
	onReference(func() { ref, _, err = timetravel.NewEngineForThread(w.img, w.rep, w.tid, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	counts := []uint64{1, 3, 16, 17, 250, 4_000, 1 << 40}
	for i := 0; i < 40; i++ {
		var cmd func(e *timetravel.Engine) (timetravel.StopReason, error)
		what := ""
		switch op := rng.Intn(10); op {
		case 0, 1:
			n := counts[rng.Intn(len(counts))]
			what, cmd = fmt.Sprintf("step %d", n), func(e *timetravel.Engine) (timetravel.StopReason, error) { return e.Step(n) }
		case 2:
			what, cmd = "continue", (*timetravel.Engine).Continue
		case 3, 4:
			pos := rng.Uint64() % (got.Window() + 1)
			what, cmd = fmt.Sprintf("seek %d", pos), func(e *timetravel.Engine) (timetravel.StopReason, error) { return timetravel.StopStep, e.SeekTo(pos) }
		case 5, 6:
			n := counts[rng.Intn(len(counts)-1)]
			what, cmd = fmt.Sprintf("reverse step %d", n), func(e *timetravel.Engine) (timetravel.StopReason, error) { return e.ReverseStep(n) }
		case 7:
			what, cmd = "reverse continue", (*timetravel.Engine).ReverseContinue
		case 8:
			// A breakpoint on an instruction the trail shows, or none.
			pcs := got.Backtrace()
			if len(pcs) == 0 || len(got.Breakpoints()) > 0 {
				for _, pc := range got.Breakpoints() {
					got.ClearBreak(pc)
					ref.ClearBreak(pc)
				}
				continue
			}
			pc := pcs[rng.Intn(len(pcs))].PC
			got.AddBreak(pc)
			ref.AddBreak(pc)
			continue
		case 9:
			// A watch on a known word a register points at, or none.
			if len(got.Watches()) > 0 {
				for _, a := range got.Watches() {
					got.ClearWatch(a)
					ref.ClearWatch(a)
				}
				continue
			}
			regs := got.Registers().Regs
			if a := regs[rng.Intn(len(regs))] &^ 3; a != 0 {
				if _, known := got.ReadWord(a); known {
					got.AddWatch(a)
					ref.AddWatch(a)
				}
			}
			continue
		}
		why, err := cmd(got)
		var rwhy timetravel.StopReason
		var rerr error
		onReference(func() { rwhy, rerr = cmd(ref) })
		label := fmt.Sprintf("%s, parallelism %d, seed %d, command %d (%s)", w.name, parallelism, seed, i, what)
		if why != rwhy || errText(err) != errText(rerr) || got.Pos() != ref.Pos() {
			t.Fatalf("%s: %v at %d, %v; reference %v at %d, %v", label, why, got.Pos(), err, rwhy, ref.Pos(), rerr)
		}
		sameRing(t, label, got.Backtrace(), ref.Backtrace(), err != nil)
	}
}

// TestRingMatchesHookOnEveryFetch runs every comparison over the corpus.
func TestRingMatchesHookOnEveryFetch(t *testing.T) {
	var scratch core.Scratch
	for i, w := range ringCorpus(t) {
		t.Run(w.name, func(t *testing.T) {
			checkRuns(t, w, &scratch)
			checkMachine(t, w, int64(i))
			checkMulti(t, w)
			for _, par := range []int{1, 4} {
				checkEngine(t, w, par, int64(i))
			}
		})
	}
}

// TestRingAfterDivergence pins what the ring holds when replay diverges:
// nothing, if the divergence fell inside the call's untraced stretch; the
// PCs fetched since the stretch ended, if it fell after; the reference's
// whole trail, if the call was short enough to trace throughout.
func TestRingAfterDivergence(t *testing.T) {
	w := sweepWindow()
	machine := func() *core.ReplayMachine {
		return newReplayer(w, 16).Machine(core.MachineOptions{TrackKnown: true})
	}
	var ref *core.ReplayMachine
	var at uint64
	var rerr error
	onReference(func() {
		ref = machine()
		at, rerr = ref.StepN(10_000)
	})
	want := ref.Trace()
	if rerr == nil || len(want) != 16 || at < 100 {
		t.Fatalf("vacuous: the sweep replayed %d instructions, err %v, ring of %d", at, rerr, len(want))
	}

	m := machine()
	if _, err := m.StepN(10_000); errText(err) != errText(rerr) {
		t.Fatalf("error %v, reference %v", err, rerr)
	}
	if got := m.Trace(); len(got) != 0 {
		t.Errorf("divergence inside the untraced stretch: ring %x, want it empty", got)
	}

	m = machine()
	if _, err := m.StepN(at - 5); err != nil {
		t.Fatal(err)
	}
	// Four untraced instructions, then the last clean one and the faulting
	// fetch.
	if _, err := m.StepN(20); errText(err) != errText(rerr) {
		t.Fatalf("error %v, reference %v", err, rerr)
	}
	if got := m.Trace(); !slices.Equal(got, want[len(want)-2:]) {
		t.Errorf("divergence after the untraced stretch: ring %x, want the reference's last two %x", got, want[len(want)-2:])
	}

	m = machine()
	if _, err := m.StepN(at - 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StepN(10); errText(err) != errText(rerr) {
		t.Fatalf("error %v, reference %v", err, rerr)
	}
	if got := m.Trace(); !slices.Equal(got, want) {
		t.Errorf("divergence in a call traced throughout: ring %x, reference %x", got, want)
	}
}
