package timetravel

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/cache"
	"bugnet/internal/core"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
)

func tinyCache() cache.Config {
	return cache.Config{
		L1: cache.LevelConfig{SizeBytes: 1 << 10, BlockBytes: 32, Assoc: 2},
		L2: cache.LevelConfig{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 4},
	}
}

// corruptorProgram is the canonical time-travel scenario: a loop bound of
// 9 overflows the 8-slot buf, and the 9th store lands on ptr — the
// faulting store. The crash then dereferences the corrupted pointer.
const corruptorProgram = `
        .data
buf:    .space 32
ptr:    .word 1024
        .text
main:   li   s0, 0
        la   s1, buf
fill:   slli t0, s0, 2
        add  t0, s1, t0
store:  sw   s0, (t0)
        addi s0, s0, 1
        li   t1, 9
        blt  s0, t1, fill
        la   t2, ptr
        lw   t3, (t2)
boom:   lw   a0, (t3)
`

// recordCrash records src and returns the report plus image; the program
// must crash.
func recordCrash(t testing.TB, src string, interval uint64) (*core.CrashReport, *asm.Image) {
	t.Helper()
	img := asm.MustAssemble("tt.s", src)
	res, rep, _ := core.Record(img, kernel.Config{},
		core.Config{IntervalLength: interval, Cache: tinyCache()})
	if res.Crash == nil {
		t.Fatal("program did not crash")
	}
	return rep, img
}

// openFilled opens an engine committed to the whole window: its first
// Continue is the forward pass over every interval from the window start,
// laying the checkpoint grid over all of it, which the tests of that pass,
// its budget and its eviction assert on.
func openFilled(img *asm.Image, rep *core.CrashReport, tid int, cfg Config) (*Engine, int, error) {
	e, tid, err := NewEngineForThread(img, rep, tid, cfg)
	if err != nil {
		return nil, tid, err
	}
	return e, tid, e.fill(nil) // a fresh engine fills nothing: no trigger to count
}

func newTestEngine(t testing.TB, ckptEvery uint64) (*Engine, *asm.Image) {
	t.Helper()
	rep, img := recordCrash(t, corruptorProgram, 16)
	eng, tid, err := NewEngineForThread(img, rep, -1, Config{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatal(err)
	}
	if tid != 0 {
		t.Fatalf("crashing tid = %d", tid)
	}
	return eng, img
}

func TestEngineForwardAndBreak(t *testing.T) {
	eng, img := newTestEngine(t, 8)
	if eng.Pos() != 0 || eng.Done() || eng.PC() != img.Entry || eng.Window() == 0 {
		t.Fatalf("fresh engine: pos=%d done=%v pc=%#x window=%d", eng.Pos(), eng.Done(), eng.PC(), eng.Window())
	}
	if reason, err := eng.Step(2); err != nil || reason != StopStep || eng.Pos() != 2 {
		t.Fatalf("step 2: %v, %v, pos %d", reason, err, eng.Pos())
	}
	store := img.MustSymbol("store")
	eng.AddBreak(store)
	for hit := uint32(0); hit < 2; hit++ {
		reason, err := eng.Continue()
		if err != nil || reason != StopBreak {
			t.Fatalf("continue: %v, %v", reason, err)
		}
		if eng.PC() != store {
			t.Fatalf("stopped at %#x, want %#x", eng.PC(), store)
		}
		if s0 := eng.Registers().Regs[isa.RegS0]; s0 != hit {
			t.Fatalf("s0 at store hit %d = %d", hit, s0)
		}
	}
	if got := eng.Breakpoints(); len(got) != 1 || got[0] != store {
		t.Fatalf("breakpoints = %#x", got)
	}
	// Run to the end: the faulting instruction is next.
	eng.ClearBreak(store)
	reason, err := eng.Continue()
	if err != nil || reason != StopEnd {
		t.Fatalf("continue to end: %v, %v", reason, err)
	}
	boom := img.MustSymbol("boom")
	if f := eng.Fault(); f == nil || f.PC != boom {
		t.Fatalf("fault = %+v", eng.Fault())
	}
	// The corrupted pointer the crash dereferences is in t3.
	if t3 := eng.Registers().Regs[isa.RegT3]; t3 != 8 {
		t.Fatalf("t3 at the crash = %#x, want 8", t3)
	}

	// §7.1: only what the window touched is known. The stored slots hold
	// their values, text is always known (the developer has the binary),
	// an address the program never reached is not.
	buf := img.MustSymbol("buf")
	for i := uint32(0); i < 8; i++ {
		if v, known := eng.ReadWord(buf + i*4); !known || v != i {
			t.Fatalf("buf[%d] = %d (known %v), want %d", i, v, known, i)
		}
	}
	if _, known := eng.ReadWord(img.Entry); !known {
		t.Error("text reported unknown")
	}
	if _, known := eng.ReadWord(0x30000000); known {
		t.Error("untouched memory reported known")
	}

	for _, tc := range []struct {
		pc   uint32
		want string
	}{{store, "store"}, {store + 4, "store+0x4"}} {
		if got := eng.SymbolAt(tc.pc); got != tc.want {
			t.Errorf("SymbolAt(%#x) = %q, want %q", tc.pc, got, tc.want)
		}
	}
	if got := eng.Disasm(boom); got != "lw a0, 0(t3)" {
		t.Errorf("Disasm(boom) = %q", got)
	}
	if got := eng.Disasm(4); got != "<outside text>" {
		t.Errorf("Disasm(4) = %q", got)
	}
}

func TestEngineReverseStepBacktracksExactly(t *testing.T) {
	eng, _ := newTestEngine(t, 8)
	// Walk forward recording reference states, then reverse-step through
	// them backwards.
	type ref struct {
		pc   uint32
		regs [32]uint32
	}
	var states []ref
	for !eng.Done() {
		states = append(states, ref{eng.PC(), eng.Registers().Regs})
		if _, err := eng.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(states) - 1; i >= 0; i-- {
		reason, err := eng.ReverseStep(1)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(i) != eng.Pos() {
			t.Fatalf("reverse-step landed at %d, want %d", eng.Pos(), i)
		}
		if eng.PC() != states[i].pc || eng.Registers().Regs != states[i].regs {
			t.Fatalf("state at pos %d differs after reverse-step", i)
		}
		if i > 0 && reason != StopStep {
			t.Fatalf("reason = %v", reason)
		}
	}
	// One more reverse-step at the window start clamps.
	reason, err := eng.ReverseStep(5)
	if err != nil || reason != StopStart {
		t.Fatalf("reverse past start: %v, %v", reason, err)
	}
}

func TestEngineWatchpointForwardAndReverse(t *testing.T) {
	eng, img := newTestEngine(t, 8)
	ptr := img.MustSymbol("ptr")
	store := img.MustSymbol("store")
	eng.AddWatch(ptr)

	// Forward: the watch fires just after the 9th store commits.
	reason, err := eng.Continue()
	if err != nil || reason != StopWatch {
		t.Fatalf("continue: %v, %v", reason, err)
	}
	hit := eng.LastWatch()
	if hit == nil || hit.Addr != ptr&^3 {
		t.Fatalf("watch hit = %+v", hit)
	}
	if hit.OldKnown || !hit.NewKnown || hit.New != 8 {
		t.Fatalf("watch transition = %+v; want unknown -> 8", hit)
	}
	mutatorPos := eng.Pos() - 1

	// Run to the end, then reverse-continue: lands *on* the faulting
	// store, pre-commit, with the watched word still unknown (§7.1).
	if reason, err = eng.Continue(); err != nil || reason != StopEnd {
		t.Fatalf("to end: %v, %v", reason, err)
	}
	reason, err = eng.ReverseContinue()
	if err != nil || reason != StopWatch {
		t.Fatalf("reverse-continue: %v, %v", reason, err)
	}
	if eng.Pos() != mutatorPos {
		t.Fatalf("rcont landed at %d, want %d", eng.Pos(), mutatorPos)
	}
	if eng.PC() != store {
		t.Fatalf("rcont pc = %#x, want the store at %#x", eng.PC(), store)
	}
	if s0 := eng.Registers().Regs[isa.RegS0]; s0 != 8 {
		t.Fatalf("s0 at the faulting store = %d, want 8", s0)
	}
	if _, known := eng.ReadWord(ptr); known {
		t.Fatal("ptr must still be unknown before the corrupting store")
	}
	// A further reverse-continue finds nothing older and stops at 0.
	if reason, err = eng.ReverseContinue(); err != nil || reason != StopStart {
		t.Fatalf("second rcont: %v, %v", reason, err)
	}
}

func TestEngineReverseContinueBreakpoint(t *testing.T) {
	eng, img := newTestEngine(t, 8)
	store := img.MustSymbol("store")
	eng.AddBreak(store)
	// Forward: count hits.
	hits := 0
	var positions []uint64
	for {
		reason, err := eng.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if reason != StopBreak {
			break
		}
		hits++
		positions = append(positions, eng.Pos())
	}
	if hits != 9 {
		t.Fatalf("forward hits = %d, want 9", hits)
	}
	// Reverse: visits the same positions newest-first.
	for i := len(positions) - 1; i >= 0; i-- {
		reason, err := eng.ReverseContinue()
		if err != nil || reason != StopBreak {
			t.Fatalf("rcont: %v, %v", reason, err)
		}
		if eng.Pos() != positions[i] {
			t.Fatalf("rcont landed at %d, want %d", eng.Pos(), positions[i])
		}
	}
	if reason, err := eng.ReverseContinue(); err != nil || reason != StopStart {
		t.Fatalf("final rcont: %v, %v", reason, err)
	}
}

func TestEngineCheckpointEviction(t *testing.T) {
	rep, img := recordCrash(t, corruptorProgram, 16)
	eng, _, err := openFilled(img, rep, -1, Config{
		CheckpointEvery:  4,
		CheckpointBudget: 1, // absurdly small: everything but anchor+newest evicts
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Continue(); err != nil {
		t.Fatal(err)
	}
	count, _ := eng.Checkpoints()
	if count > 2 {
		t.Fatalf("budget ignored: %d checkpoints live", count)
	}
	// Reverse execution still works, just via wider gaps.
	end := eng.Pos()
	if _, err := eng.ReverseStep(3); err != nil {
		t.Fatal(err)
	}
	if eng.Pos() != end-3 {
		t.Fatalf("pos = %d, want %d", eng.Pos(), end-3)
	}
	if eng.store.list[0].pos != 0 {
		t.Fatal("the pos-0 anchor must never evict")
	}
}

// sameAsFresh fails unless the engine's registers, backtrace, known words
// and watched words equal those of a fresh replay of its logs stepped one
// instruction at a time to its position, not through the batches the
// engine's seeks run on. An engine on the tail is held to a fresh replay
// of the tail.
func sameAsFresh(t *testing.T, eng *Engine, when string) {
	t.Helper()
	p := eng.Pos()
	r := core.NewReplayer(eng.img, eng.logs)
	r.LogCodeLoads = eng.rep.LogCodeLoads
	r.DictOptions = eng.rep.DictOptions
	r.TraceDepth = TraceDepth
	first := 0
	if eng.store.anchor() > 0 {
		first, _ = eng.tail()
	}
	ref := r.Intervals(first, len(eng.logs)).Machine(core.MachineOptions{TrackKnown: true})
	for ref.Pos() < p && !ref.Done() {
		if err := ref.StepOne(); err != nil {
			t.Fatalf("%s: fresh replay to %d: %v", when, p, err)
		}
	}
	if ref.Pos() != p {
		t.Fatalf("%s: fresh replay to %d stopped at %d", when, p, ref.Pos())
	}
	if eng.Registers() != ref.Registers() {
		t.Fatalf("%s: registers at %d differ:\n  engine: %+v\n   fresh: %+v", when, p, eng.Registers(), ref.Registers())
	}
	if bt, want := eng.Backtrace(), ref.Trace(); !slices.Equal(bt, want) {
		t.Fatalf("%s: backtrace at %d differs:\n  engine: %v\n   fresh: %v", when, p, bt, want)
	}
	words, want := eng.m.KnownWords(), ref.KnownWords()
	if !slices.Equal(words, want) {
		t.Fatalf("%s: known sets at %d differ: %d words vs %d", when, p, len(words), len(want))
	}
	for _, addr := range append(words, eng.Watches()...) {
		va, ka := eng.ReadWord(addr)
		vb, kb := ref.ReadWord(addr)
		if va != vb || ka != kb {
			t.Fatalf("%s: word %#x at %d: %#x/%v vs %#x/%v", when, addr, p, va, ka, vb, kb)
		}
	}
}

// TestSeekDeterminismProperty is the reverse-execution determinism
// property the subsystem rests on: for random positions p, SeekTo(p) —
// whatever checkpoint it restores through — yields byte-identical
// registers and known-memory to a fresh forward replay to p. Exercised
// over a single-threaded crash report and a thread of a multithreaded
// one, then over random schedules of every motion command (see
// seekSchedule).
func TestSeekDeterminismProperty(t *testing.T) {
	mtProgram := `
        .data
shared: .word 0
        .text
main:   la   a0, worker
        li   a7, 8
        syscall
        li   t0, 200
mloop:  addi t0, t0, -1
        bnez t0, mloop
mspin:  j    mspin          # main spins forever; worker crashes
worker: li   t0, 100
        la   t1, shared
wloop:  lw   t2, (t1)
        addi t2, t2, 1
        sw   t2, (t1)
        addi t0, t0, -1
        bnez t0, wloop
boom:   lw   a0, (zero)
`
	cases := []struct {
		name  string
		rep   *core.CrashReport
		img   *asm.Image
		tid   int
		cores int
	}{}
	{
		rep, img := recordCrash(t, corruptorProgram, 16)
		cases = append(cases, struct {
			name  string
			rep   *core.CrashReport
			img   *asm.Image
			tid   int
			cores int
		}{"singlethread", rep, img, -1, 1})
	}
	{
		img := asm.MustAssemble("mt.s", mtProgram)
		res, rep, _ := core.Record(img, kernel.Config{Cores: 2},
			core.Config{IntervalLength: 32, Cache: tinyCache()})
		if res.Crash == nil || res.Crash.TID != 1 {
			t.Fatalf("mt crash = %+v", res.Crash)
		}
		cases = append(cases, struct {
			name  string
			rep   *core.CrashReport
			img   *asm.Image
			tid   int
			cores int
		}{"multithread", rep, img, 1, 2})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, err := NewEngineForThread(tc.img, tc.rep, tc.tid, Config{CheckpointEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			window := eng.Window()
			if window < 4 {
				t.Fatalf("window too small: %d", window)
			}
			// Warm the checkpoint set by visiting the whole window once.
			if _, err := eng.Continue(); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 40; i++ {
				p := uint64(rng.Int63n(int64(window + 1)))
				if err := eng.SeekTo(p); err != nil {
					t.Fatalf("SeekTo(%d): %v", p, err)
				}
				if eng.Pos() != p {
					t.Fatalf("SeekTo(%d) landed at %d", p, eng.Pos())
				}
				sameAsFresh(t, eng, fmt.Sprintf("SeekTo(%d)", p))
			}
		})
	}

	// A 5 K-instruction page storm: at K = 100, δ = 15, so most seeks and
	// reverse steps of up to 3δ plant, restore or replace the near
	// checkpoint.
	rep, img := recordCrash(t, strings.Replace(pageStormProgram, "li   s2, 6000", "li   s2, 600", 1), 1_000)
	for _, b := range []struct {
		name  string
		bytes int64
	}{{"1B", 1}, {"64KB", 64 << 10}, {"unlimited", unlimited}} {
		t.Run("schedule/"+b.name, func(t *testing.T) {
			seekSchedule(t, rep, img, b.bytes, false)
		})
	}
	t.Run("schedule/tail", func(t *testing.T) {
		seekSchedule(t, rep, img, unlimited, true)
	})
}

// unlimited is a checkpoint budget no window of the tests reaches.
const unlimited = 1 << 62

// seekSchedule runs a seeded random schedule of 150 commands — seeks,
// reverse steps of 1 to 3δ, steps, continues and reverse-continues, with a
// breakpoint and a watchpoint toggled on and off — on an engine at K = 100
// under budget, and holds the engine to a fresh replay and to the store's
// reach bound after every command (see mustReach). The engine starts cold,
// so early seeks run past its newest checkpoint and plant the near
// checkpoint there; the budgets range from one that evicts every
// checkpoint it can, the near one last but as soon as it is planted, to
// one that evicts none. With tail set the engine opens on the tail, by a
// Continue before the stops are set, and holds the tail alone until a
// command needs older history.
func seekSchedule(t *testing.T, rep *core.CrashReport, img *asm.Image, budget int64, tail bool) {
	cfg := Config{CheckpointEvery: 100, CheckpointBudget: budget}
	open := openFilled
	if tail {
		open = NewEngineForThread
	}
	eng, _, err := open(img, rep, -1, cfg)
	if err == nil && tail {
		_, err = eng.Continue()
	}
	if err != nil {
		t.Fatal(err)
	}
	// skipped is the grid checkpoint a tail open laid, over the hole below
	// it; 0 on an engine that holds the whole window from the start.
	var skipped uint64
	if tail {
		if eng.store.anchor() == 0 {
			t.Fatal("the Continue did not open the engine on the tail")
		}
		skipped = eng.store.list[1].pos
	}
	loop, pool := img.MustSymbol("loop"), img.MustSymbol("pool")
	word := pool + 8
	if tail {
		// A word the tail touched, so watching it needs no older history.
		for _, a := range eng.m.KnownWords() {
			if a > pool && (a-pool)%4096 == 8 {
				word = a
				break
			}
		}
	}
	eng.AddBreak(loop)
	eng.AddWatch(word)
	delta, window := eng.store.nearDistance(), eng.Window()
	rng := rand.New(rand.NewSource(budget))
	for i := 0; i < 150; i++ {
		var op string
		var err error
		before := reachOf(eng)
		k := rng.Intn(12)
		switch {
		case k < 3:
			p := uint64(rng.Int63n(int64(window) + 1))
			op = fmt.Sprintf("seek %d", p)
			err = eng.SeekTo(p)
		case k < 7:
			n := 1 + uint64(rng.Int63n(int64(3*delta)))
			op = fmt.Sprintf("rstep %d", n)
			_, err = eng.ReverseStep(n)
		case k < 8:
			n := 1 + uint64(rng.Intn(200))
			op = fmt.Sprintf("step %d", n)
			_, err = eng.Step(n)
		case k < 9:
			op = "continue"
			_, err = eng.Continue()
		case k < 10:
			op = "rcont"
			_, err = eng.ReverseContinue()
		case k < 11:
			op = "toggle break"
			if len(eng.Breakpoints()) > 0 {
				eng.ClearBreak(loop)
			} else {
				eng.AddBreak(loop)
			}
		default:
			op = "toggle watch"
			if len(eng.Watches()) > 0 {
				eng.ClearWatch(word)
			} else {
				eng.AddWatch(word)
			}
		}
		if err != nil {
			t.Fatalf("op %d %s: %v", i, op, err)
		}
		when := fmt.Sprintf("op %d %s", i, op)
		mustKeepGrid(t, eng, when)
		sameAsFresh(t, eng, when)
		mustReach(t, eng, before, k < 7 || k == 9, k == 7 || k == 8, when)
		if budget == unlimited {
			mustSpanK(t, eng, skipped, when)
		}
	}
}

// reach is what a command's reach bound is measured against: the engine's
// position, re-execution count, and checkpoints before it.
type reach struct {
	pos, reexecuted uint64
	ckpts           []uint64
}

func reachOf(e *Engine) reach {
	r := reach{pos: e.Pos(), reexecuted: e.reexecuted}
	for _, c := range e.store.list {
		r.ckpts = append(r.ckpts, c.pos)
	}
	return r
}

// mustReach holds a command to the store's reach bound (see
// checkpointStore): a jump — a seek, a reverse step, a reverse-continue's
// landing — re-executes at most from the latest checkpoint at or before
// where it lands, or from where it started when that is closer; a forward
// motion exactly the distance it moves; any other command nothing. A
// command that fills in older history first replays the window up to
// where the engine stood, so it is held to no bound.
func mustReach(t *testing.T, e *Engine, was reach, jump, forward bool, when string) {
	t.Helper()
	pos, reexecuted := e.Pos(), e.reexecuted-was.reexecuted
	switch from := was.pos; {
	case e.store.anchor() != was.ckpts[0]: // the command filled
	case jump:
		if i, _ := slices.BinarySearch(was.ckpts, pos+1); from > pos || was.ckpts[i-1] > from {
			from = was.ckpts[i-1]
		}
		if reexecuted > pos-from {
			t.Fatalf("%s: landed on %d re-executing %d instructions; the store before it could from %d", when, pos, reexecuted, from)
		}
	case forward:
		if reexecuted != pos-from {
			t.Fatalf("%s: moved from %d to %d re-executing %d instructions", when, from, pos, reexecuted)
		}
	default:
		if reexecuted != 0 {
			t.Fatalf("%s: re-executed %d instructions", when, reexecuted)
		}
	}
}

// mustSpanK fails unless no two consecutive checkpoints stand more than K
// apart, as under an unlimited budget, but on the tail below skipped, the
// grid checkpoint its open laid.
func mustSpanK(t *testing.T, e *Engine, skipped uint64, when string) {
	t.Helper()
	k, tail, list := e.cfg.CheckpointEvery, e.store.anchor() > 0, e.store.list
	for i := 1; i < len(list); i++ {
		if lo, hi := list[i-1].pos, list[i].pos; hi-lo > k && !(tail && hi <= skipped) {
			t.Fatalf("%s: checkpoints at %d and %d, more than K = %d apart", when, lo, hi, k)
		}
	}
}

// TestReverseStepsReexecuteTheDistanceMoved pins what the near checkpoint
// buys: consecutive single reverse steps from the end of an mcf window
// re-execute G/δ + δ/2 instructions each on average, δ = ⌈√(2K)⌉ and G
// the widest gap between the checkpoints the steps restore from, where
// restoring the checkpoint before each target re-executed about G/2. Under
// the default budget the grid fits and G = K. Over budget, the near
// checkpoint must outlast the grid checkpoints eviction thins: by gap it
// would be the first to go, at once, and every step would pay G/2 again.
func TestReverseStepsReexecuteTheDistanceMoved(t *testing.T) {
	rep, img := specWindow(t, "mcf", 400_000, 100_000)
	open := func(budget int64) *Engine {
		e, _, err := openFilled(img, rep, -1, Config{CheckpointBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Continue(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	grid, fits := open(0).Checkpoints()
	for _, b := range []struct {
		name  string
		bytes int64
	}{{"fits", 0}, {"over_budget", fits / 2}} {
		t.Run(b.name, func(t *testing.T) {
			e := open(b.bytes)
			k, delta := e.cfg.CheckpointEvery, e.store.nearDistance()
			const steps = 1000
			end, before := e.Pos(), e.reexecuted
			// widest is the widest gap, the near checkpoint aside, that
			// holds a target of the steps.
			widest := func() (g uint64) {
				prev := e.store.list[0]
				for _, c := range append(e.store.list[1:], &checkpoint{pos: end}) {
					if c != e.store.near {
						if c.pos > end-steps {
							g = max(g, c.pos-prev.pos)
						}
						prev = c
					}
				}
				return g
			}
			gap := widest()
			if b.bytes > 0 {
				count, bytes := e.Checkpoints()
				if count >= grid {
					t.Fatalf("a budget of %d bytes left all %d checkpoints", b.bytes, count)
				}
				// No slack left: every near checkpoint puts the engine
				// over budget.
				e.store.budget = bytes
			}
			for i := uint64(1); i <= steps; i++ {
				if _, err := e.ReverseStep(1); err != nil || e.Pos() != end-i {
					t.Fatalf("reverse step %d from %d landed on %d: %v", i, end-i+1, e.Pos(), err)
				}
				gap = max(gap, widest())
			}
			reexecuted := e.reexecuted - before
			if bound := steps * (gap/delta + delta); reexecuted > bound {
				t.Errorf("%d reverse steps re-executed %d instructions; want at most %d", steps, reexecuted, bound)
			}
			t.Logf("%d reverse steps re-executed %d instructions, %d a step (K = %d, widest gap %d, δ = %d)",
				steps, reexecuted, reexecuted/steps, k, gap, delta)
		})
	}
}

// TestSeeksPlantOnlyAfterReverseSteps: a run of seeks or reverse-continue
// landings with no reverse step between them plants the near checkpoint
// at its first and never again, so traffic without reverse steps pays for
// one snapshot; the reverse step that ends the run plants, and so does
// the long seek after it.
func TestSeeksPlantOnlyAfterReverseSteps(t *testing.T) {
	rep, img := specWindow(t, "mcf", 400_000, 100_000)
	e, _, err := openFilled(img, rep, -1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Continue(); err != nil {
		t.Fatal(err)
	}
	k, delta := e.cfg.CheckpointEvery, e.store.nearDistance()
	// Every target lies K/2 past a grid checkpoint, so every seek is long.
	at := func(i uint64) uint64 { return (i%(e.Window()/k-1)+1)*k + k/2 }
	mustNear := func(when string, want uint64) {
		t.Helper()
		if e.store.near == nil {
			t.Fatalf("%s: no near checkpoint, want one at %d", when, want)
		}
		if e.store.near.pos != want {
			t.Fatalf("%s: near checkpoint at %d, want one at %d", when, e.store.near.pos, want)
		}
	}
	if err := e.SeekTo(at(0)); err != nil {
		t.Fatal(err)
	}
	mustNear("first seek", at(0)-delta)
	for i := uint64(1); i <= 50; i++ {
		if err := e.SeekTo(at(7 * i)); err != nil {
			t.Fatal(err)
		}
		mustNear(fmt.Sprintf("seek %d", i), at(0)-delta)
	}
	// A breakpoint on the instruction about to run lands each
	// reverse-continue a loop iteration or so back, a long seek each time.
	e.AddBreak(e.PC())
	for i := 0; i < 5; i++ {
		why, err := e.ReverseContinue()
		if err != nil || why != StopBreak {
			t.Fatalf("reverse-continue %d: %v, %v", i, why, err)
		}
		mustNear(fmt.Sprintf("reverse-continue %d", i), at(0)-delta)
	}
	e.ClearBreak(e.PC())
	pos := e.Pos()
	if _, err := e.ReverseStep(1); err != nil {
		t.Fatal(err)
	}
	if pos-1-e.store.list[e.store.at(pos-1)].pos > 2*delta {
		mustNear("reverse step", pos-1-delta)
	}
	if err := e.SeekTo(at(3)); err != nil {
		t.Fatal(err)
	}
	mustNear("seek after the reverse step", at(3)-delta)
}

func TestEngineExecProtocol(t *testing.T) {
	eng, img := newTestEngine(t, 8)
	out := eng.Exec(Command{Cmd: "break", Sym: "store"})
	if out.Error != "" || len(out.Breaks) != 1 {
		t.Fatalf("break: %+v", out)
	}
	out = eng.Exec(Command{Cmd: "cont"})
	if out.Stop != "breakpoint" || out.PC != img.MustSymbol("store") {
		t.Fatalf("cont: %+v", out)
	}
	out = eng.Exec(Command{Cmd: "regs"})
	if len(out.Regs) != isa.NumRegs {
		t.Fatalf("regs: %d entries", len(out.Regs))
	}
	out = eng.Exec(Command{Cmd: "mem", Sym: "ptr", N: 2})
	if len(out.Mem) != 2 {
		t.Fatalf("mem: %+v", out.Mem)
	}
	out = eng.Exec(Command{Cmd: "seek", Pos: 3})
	if out.Pos != 3 {
		t.Fatalf("seek: %+v", out)
	}
	out = eng.Exec(Command{Cmd: "backtrace"})
	if len(out.Backtrace) == 0 {
		t.Fatalf("backtrace empty: %+v", out)
	}
	out = eng.Exec(Command{Cmd: "nonsense"})
	if out.Error == "" {
		t.Fatal("unknown command must error")
	}
	out = eng.Exec(Command{Cmd: "break", Sym: "no_such_symbol"})
	if out.Error == "" {
		t.Fatal("unknown symbol must error")
	}
	out = eng.Exec(Command{Cmd: "delete", Sym: "store"})
	if out.Error != "" {
		t.Fatalf("delete: %+v", out)
	}
	// The faulting PC is reachable: a breakpoint there reports as hit even
	// though it coincides with the end of the window.
	out = eng.Exec(Command{Cmd: "runto", Sym: "boom"})
	if out.Error != "" || out.Stop != "breakpoint" || out.PC != img.MustSymbol("boom") || !out.Done {
		t.Fatalf("runto: %+v", out)
	}
}
