package parreplay

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/dict"
	"bugnet/internal/fll"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
	"bugnet/internal/mem"
	"bugnet/internal/workload"
)

// What follows, down to referenceRun's closing brace, is the executor as it
// stood before a worker kept its machine, verbatim but for the two names,
// which units carry a ring (every unit of the traced thread, now) and how a
// unit names its interval (core.Replayer.Intervals, now):
// one core.Replayer — a new memory, core, block cache and dictionary — per
// unit, units handed over an unbuffered channel, results sorted afterwards.
// The differential tests below hold the lent machine to its every result.

// referenceReplayUnit replays one interval in isolation. A panic is captured, not
// propagated: workers run on pool goroutines, and an uncaught panic there
// would kill the process instead of reaching the caller's recover (triage
// demotes replay panics to failed verdicts).
func referenceReplayUnit(img *asm.Image, u unit, o Options) (r unitResult) {
	r.unit = u
	defer func() {
		if v := recover(); v != nil {
			r.panicked, r.panicVal = true, v
		}
	}()
	rep := u.r.Intervals(u.idx, u.idx+1)
	rep.LogCodeLoads = o.LogCodeLoads
	rep.DictOptions = o.DictOptions
	rep.MaxPages = o.MaxPages
	if u.tid == o.traceTID {
		rep.TraceDepth = o.TraceDepth
	}
	r.res, r.err = rep.Run()
	return r
}

// referenceRun fans units across the pool and returns every result, sorted by
// (thread, interval).
func referenceRun(img *asm.Image, units []unit, o Options) []unitResult {
	workers := o.workers()
	if workers > len(units) {
		workers = len(units)
	}
	in := make(chan unit)
	out := make(chan unitResult, len(units))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range in {
				mWorkersBusy.Inc()
				r := referenceReplayUnit(img, u, o)
				mWorkersBusy.Dec()
				mIntervals.Inc()
				out <- r
			}
		}()
	}
	for _, u := range units {
		in <- u
	}
	close(in)
	wg.Wait()
	close(out)
	results := make([]unitResult, 0, len(units))
	for r := range out {
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].tid != results[j].tid {
			return results[i].tid < results[j].tid
		}
		return results[i].idx < results[j].idx
	})
	return results
}

// gadgets is text appended to a recorded workload's image, for the hostile
// units to run: no recording executes it, so a log may point a header at it
// with any registers it likes. Position-independent.
const gadgets = `
store:  sw   t1, (t0)
load:   lw   a0, (t0)
patch:  lw   a1, (t0)       # t0 = &victim; the log injects a new word there
        j    victim         # ends the block: victim is decoded after the patch
victim: addi a2, zero, 1
        addi a3, zero, 2
sweep:  sw   t1, (t0)       # one page a lap
        add  t0, t0, t2
        j    sweep
`

// hostileImage is img with the gadgets after its text, and where each went.
func hostileImage(t testing.TB, img *asm.Image) (*asm.Image, func(string) uint32) {
	g, err := asm.Assemble("gadgets.s", gadgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Text)%4 != 0 {
		t.Fatalf("text of %s is %d bytes", img.Name, len(img.Text))
	}
	ext := *img
	ext.Text = append(append([]byte(nil), img.Text...), g.Text...)
	base := img.TextBase + uint32(len(img.Text))
	return &ext, func(sym string) uint32 { return base + g.MustSymbol(sym) - g.TextBase }
}

func reg(name string) uint8 {
	r, ok := isa.RegByName(name)
	if !ok {
		panic(name)
	}
	return r
}

// crafted builds a unit no recorder wrote: it starts at pc with the given
// registers, claims length instructions, and logs the given first-load
// values, each for the very next loggable operation.
func crafted(img *asm.Image, pc uint32, regs map[string]uint32, length uint64, values ...uint32) unit {
	h := fll.Header{CID: 7, IntervalLimit: 1 << 20, DictSize: 64}
	h.State.PC = pc
	for name, v := range regs {
		h.State.Regs[reg(name)] = v
	}
	w := fll.NewWriter(h, dict.New(64))
	for _, v := range values {
		w.Op(v, true)
	}
	return oneUnit(img, core.WrapFLLs([]*fll.Log{w.Close(length, fll.EndIntervalFull, nil)})[0])
}

// oneUnit is the unit of a one-interval window.
func oneUnit(img *asm.Image, ref *fll.Ref) unit {
	return unit{r: core.NewReplayer(img, []*fll.Ref{ref})}
}

// reuseMaxPages is the page budget the differential runs under: above what
// an interval of the workloads touches, so clean units replay, and small
// enough to sweep past.
const reuseMaxPages = 512

// hostileUnits are the three the issue names, each preceded by what makes
// a leak visible and followed by the probe a leak would fail:
//
//   - a store of a marker, then a load of the same word that the log does
//     not carry: it must read the zero of a new page, not the marker;
//   - a logged load that rewrites the instruction at victim and then runs
//     it (so a block decoded from the rewritten word is in the cache), then
//     a unit that starts at victim: it must run the image's instruction;
//   - a sweep that maps pages until the budget refuses, then a sweep of
//     exactly the budget: it must fit.
func hostileUnits(img *asm.Image, at func(string) uint32) []unit {
	const scratch = mem.DataBase + 0x0100_0000
	addi77 := isa.MustEncode(isa.Instruction{Op: isa.OpADDI, Rd: reg("a2"), Rs1: reg("zero"), Imm: 77})
	return []unit{
		crafted(img, at("store"), map[string]uint32{"t0": scratch, "t1": 0xDEADBEEF}, 1),
		crafted(img, at("load"), map[string]uint32{"t0": scratch}, 1),
		crafted(img, at("patch"), map[string]uint32{"t0": at("victim")}, 4, addi77),
		crafted(img, at("victim"), nil, 2),
		crafted(img, at("sweep"), map[string]uint32{"t0": scratch, "t1": 5, "t2": mem.PageSize}, 3*(reuseMaxPages+8)),
		crafted(img, at("sweep"), map[string]uint32{"t0": scratch, "t1": 6, "t2": mem.PageSize}, 3*reuseMaxPages-2),
	}
}

// TestHostileUnitsBite pins what the hostile units do on a new machine, so
// the differential below cannot pass because they went soft.
func TestHostileUnitsBite(t *testing.T) {
	img, at := hostileImage(t, workload.ByName("gzip").Image)
	o := Options{MaxPages: reuseMaxPages}
	var got []unitResult
	for _, u := range hostileUnits(img, at) {
		got = append(got, referenceReplayUnit(img, u, o))
	}
	for i, r := range got {
		if r.panicked || (r.err != nil) != (i == 4) {
			t.Fatalf("hostile unit %d: err %v, panic %v", i, r.err, r.panicVal)
		}
	}
	if v := got[1].res.Final.Regs[reg("a0")]; v != 0 {
		t.Errorf("the unlogged load read %#x from a new memory", v)
	}
	if v := got[2].res.Final.Regs[reg("a2")]; v != 77 {
		t.Errorf("the patching unit ran victim as a2=%d; want the patched 77", v)
	}
	if v := got[3].res.Final.Regs[reg("a2")]; v != 1 {
		t.Errorf("victim on a new machine set a2=%d", v)
	}
}

// window is one recorded workload, cut into units, plus the hostile ones.
type window struct {
	name  string
	img   *asm.Image
	logs  [][]*fll.Ref // each recorded thread's window
	units []unit       // the recorded threads' units in (thread, interval) order, then the hostile six
	clean int          // how many of them were recorded
}

var (
	windowsOnce sync.Once
	windowsMade []window
)

// windows records 60 K instructions of mcf, gzip, crafty and the two-thread
// shared-memory workload at 2 K-instruction intervals, once a test binary.
func windows(t testing.TB) []window {
	windowsOnce.Do(func() {
		for _, w := range []*workload.Workload{workload.ByName("mcf"), workload.ByName("gzip"),
			workload.ByName("crafty"), workload.MTShare()} {
			kcfg := w.Kernel
			kcfg.MaxSteps = w.Warmup
			m := kernel.New(w.Image, kcfg, nil)
			m.Run()
			rec := core.NewRecorder(m, core.Config{IntervalLength: 2_000})
			m.SetMaxSteps(w.Warmup + 60_000)
			m.Run()
			rec.Flush()
			if err := rec.Err(); err != nil {
				t.Fatal(err)
			}
			rep := rec.Report()
			img, at := hostileImage(t, w.Image)
			win := window{name: w.Name, img: img}
			for tid := 0; tid < len(rep.FLLs); tid++ {
				win.logs = append(win.logs, rep.FLLs[tid])
				win.units = threadUnits(win.units, img, tid, rep.FLLs[tid])
			}
			win.clean = len(win.units)
			for i, u := range hostileUnits(img, at) {
				u.tid = 100 + i
				win.units = append(win.units, u)
			}
			windowsMade = append(windowsMade, win)
		}
	})
	if len(windowsMade) != 4 {
		t.Fatal("recording the windows failed earlier")
	}
	return windowsMade
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameResults holds run's results, unit for unit, to the reference's.
func sameResults(t testing.TB, what string, got, want []unitResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.unit != w.unit {
			t.Fatalf("%s: result %d is of unit T%d/%d, want T%d/%d", what, i, g.tid, g.idx, w.tid, w.idx)
		}
		if g.panicked != w.panicked || !reflect.DeepEqual(g.panicVal, w.panicVal) {
			t.Fatalf("%s: unit T%d/%d: panic %v, a new machine %v", what, w.tid, w.idx, g.panicVal, w.panicVal)
		}
		if errString(g.err) != errString(w.err) {
			t.Fatalf("%s: unit T%d/%d:\n  lent machine: %v\n   new machine: %v", what, w.tid, w.idx, g.err, w.err)
		}
		if !reflect.DeepEqual(g.res, w.res) {
			t.Fatalf("%s: unit T%d/%d:\n  lent machine: %+v\n   new machine: %+v", what, w.tid, w.idx, g.res, w.res)
		}
	}
}

// shuffled is units in a seeded order. Order is what a worker's history is
// made of: with one worker, unit i runs on the machine units 0..i-1 left.
func shuffled(units []unit, seed int64) []unit {
	out := append([]unit(nil), units...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkReuse replays one order of a window's units on lent machines and on
// new ones. run returns results in the order given, the reference sorted:
// the reference is run one unit at a time to keep the given order.
func checkReuse(t testing.TB, win window, order []unit, workers int) {
	t.Helper()
	o := Options{Workers: workers, TraceDepth: 16, MaxPages: reuseMaxPages}
	want := make([]unitResult, len(order))
	for i, u := range order {
		want[i] = referenceReplayUnit(win.img, u, o)
	}
	sameResults(t, fmt.Sprintf("%s, %d workers", win.name, workers), run(order, o), want)
}

// TestWorkerReuseVsReference: whatever a worker's machine replayed before,
// the next unit's result — registers, counts, trace, error string — is the
// one a new machine gives. Every window is replayed with its hostile units
// first (each before its probe, all before the recorded units), then in
// seeded random orders, on one, two and four workers.
func TestWorkerReuseVsReference(t *testing.T) {
	for _, win := range windows(t) {
		hostileFirst := append(append([]unit(nil), win.units[win.clean:]...), win.units[:win.clean]...)
		for _, workers := range []int{1, 2, 4} {
			checkReuse(t, win, hostileFirst, workers)
			for seed := int64(1); seed <= 3; seed++ {
				checkReuse(t, win, shuffled(win.units, seed), workers)
			}
		}
		// The recorded units alone, in recording order, against the old
		// executor end to end (channel, sort and all).
		o := Options{Workers: 4, TraceDepth: 16, MaxPages: reuseMaxPages}
		want := referenceRun(win.img, win.units[:win.clean], o)
		for _, r := range want {
			if r.err != nil || r.panicked {
				t.Fatalf("%s: recorded unit T%d/%d does not replay on a new machine: %v %v", win.name, r.tid, r.idx, r.err, r.panicVal)
			}
		}
		sameResults(t, win.name+", recording order", run(win.units[:win.clean], o), want)
	}
}

// FuzzWorkerReuseVsReference lets the fuzzer pick the window, the pool width
// and the order (a seed, and which units to repeat: a unit after itself is
// a history the shuffles never produce).
func FuzzWorkerReuseVsReference(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(1), []byte{})
	f.Add(uint8(1), uint8(2), int64(2), []byte{0, 0, 3})
	f.Add(uint8(2), uint8(4), int64(3), []byte{200, 5, 200})
	f.Add(uint8(3), uint8(1), int64(4), []byte{31, 33, 35, 32, 34, 35})
	f.Fuzz(func(t *testing.T, which, workers uint8, seed int64, repeat []byte) {
		if len(repeat) > 64 {
			t.Skip()
		}
		wins := windows(t)
		win := wins[int(which)%len(wins)]
		order := shuffled(win.units, seed)
		for _, b := range repeat {
			order = append(order, win.units[int(b)%len(win.units)])
		}
		checkReuse(t, win, order, 1+int(workers)%4)
	})
}

// TestMergedTraceDepths: every unit carries a ring filled over its last
// TraceDepth instructions only, and the merged backtrace is still the
// sequential replay's ring at every depth — none, one entry, the served
// default, longer than an interval, longer than the window.
func TestMergedTraceDepths(t *testing.T) {
	win := windows(t)[1]
	logs := win.logs[0]
	for _, depth := range []int{0, 1, 16, 2_000, 2_001, 5_000, 1 << 20} {
		o := Options{TraceDepth: depth}
		want, err := seqThread(win.img, logs, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			o.Workers = workers
			got, err := ReplayThread(win.img, logs, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("depth %d, %d workers: merged result differs from the sequential replay's\n got trace: %d entries\nwant trace: %d entries",
					depth, workers, len(got.Trace), len(want.Trace))
			}
		}
	}
}

// TestSingleUnitRunsOnCaller: a window of one unit, or a pool of one, is
// replayed where the caller stands — no goroutine is started — and a panic
// in it still reaches the caller as the value that was thrown.
func TestSingleUnitRunsOnCaller(t *testing.T) {
	win := windows(t)[0]
	// A lazy ref's loader runs where its unit is replayed; the caller's
	// frames are on that stack only if it is the caller's goroutine.
	var onCaller, opened int
	watched := func(i int) unit {
		l, err := win.logs[0][i].Open()
		if err != nil {
			t.Fatal(err)
		}
		enc := l.Marshal()
		return oneUnit(win.img, fll.NewLazyRef(l.Meta, int64(len(enc)), func() ([]byte, error) {
			buf := make([]byte, 16<<10)
			opened++
			if strings.Contains(string(buf[:runtime.Stack(buf, false)]), "TestSingleUnitRunsOnCaller") {
				onCaller++
			}
			return enc, nil
		}))
	}
	one := []unit{watched(0)}
	several := []unit{watched(0), watched(1), watched(2)}
	for _, tc := range []struct {
		units   []unit
		workers int
	}{{one, 4}, {several, 1}} {
		onCaller, opened = 0, 0
		want := make([]unitResult, len(tc.units))
		for i, u := range tc.units {
			want[i] = referenceReplayUnit(win.img, u, Options{})
		}
		onCaller, opened = 0, 0
		sameResults(t, "on the caller's goroutine", run(tc.units, Options{Workers: tc.workers}), want)
		if opened != len(tc.units) || onCaller != opened {
			t.Errorf("%d units, %d workers: %d of %d units replayed on the caller's goroutine", len(tc.units), tc.workers, onCaller, opened)
		}
	}

	// A log loader that panics does so inside the replayer, which opens
	// each interval as it reaches it.
	l, err := win.logs[0][0].Open()
	if err != nil {
		t.Fatal(err)
	}
	bad := fll.NewLazyRef(l.Meta, int64(len(l.Marshal())), func() ([]byte, error) { panic("fll loader fault") })
	for _, workers := range []int{1, 4} {
		units := []unit{oneUnit(win.img, bad), win.units[1]}
		want := referenceReplayUnit(win.img, units[0], Options{})
		if !want.panicked {
			t.Fatal("a panicking log loader did not panic the reference")
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			firstFailure(run(units, Options{Workers: workers}))
			return nil
		}()
		if !reflect.DeepEqual(got, want.panicVal) {
			t.Errorf("%d workers: caller recovered %v, want %v", workers, got, want.panicVal)
		}
		// The unit after the panic ran on a machine of its own making.
		res := run(units, Options{Workers: workers})
		sameResults(t, "after a panic", res[1:], []unitResult{referenceReplayUnit(win.img, units[1], Options{})})
	}
}

// TestWorkerAllocatesNoMachineAfterFirstUnit: past a worker's first unit,
// a unit costs the replayer's small per-run state — not pages, page-table
// leaves (8 KB each), a core or a block-cache array (32 KB). Measured over
// a gzip window's units replayed many times on one worker.
func TestWorkerAllocatesNoMachineAfterFirstUnit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	win := windows(t)[1]
	// Logs held as their bytes: a log-store ref copies its log out of the
	// store on every Open, on either kind of machine.
	var held []*fll.Log
	for _, ref := range win.logs[0] {
		l, err := ref.Open()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, l)
	}
	units := threadUnits(nil, win.img, 0, core.WrapFLLs(held))
	var long []unit
	for i := 0; i < 8; i++ {
		long = append(long, units...)
	}
	o := Options{Workers: 1}
	allocated := func(us []unit) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(us, o)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, eight := allocated(units), allocated(long)
	perUnit := (eight - one) / uint64(len(long)-len(units))
	// A unit's own state: the decoded blocks of the text it runs (a few
	// KB), a reader, the hooks. One page-table leaf alone is 8 KB and every
	// unit of this window maps several pages.
	if perUnit > 6<<10 {
		t.Errorf("a unit after the worker's first allocates %d bytes; want under 6 KB (the first pass: %d bytes for %d units)",
			perUnit, one, len(units))
	}
	fresh := uint64(0)
	{
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, u := range units {
			referenceReplayUnit(win.img, u, o)
		}
		runtime.ReadMemStats(&after)
		fresh = (after.TotalAlloc - before.TotalAlloc) / uint64(len(units))
	}
	if fresh < 4*perUnit {
		t.Errorf("a new machine per unit allocates %d bytes a unit, a lent one %d: the guard measures nothing", fresh, perUnit)
	}
	t.Logf("per unit: %d bytes on a lent machine, %d on a new one", perUnit, fresh)
}
