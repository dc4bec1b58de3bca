package timetravel

import (
	"math/rand"
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
	eng, _, err := NewEngineForThread(img, rep, -1, Config{
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
	if eng.ckpts[0].pos != 0 {
		t.Fatal("the pos-0 anchor must never evict")
	}
}

// TestSeekDeterminismProperty is the reverse-execution determinism
// property the subsystem rests on: for random positions p, SeekTo(p) —
// whatever checkpoint it restores through — yields byte-identical
// registers and known-memory to a fresh forward replay to p. Exercised
// over a single-threaded crash report and a thread of a multithreaded
// one.
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
			eng, tid, err := NewEngineForThread(tc.img, tc.rep, tc.tid, Config{CheckpointEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			logs := tc.rep.FLLs[tid]
			window := eng.Window()
			if window < 4 {
				t.Fatalf("window too small: %d", window)
			}
			// Warm the checkpoint set by visiting the whole window once.
			if _, err := eng.Continue(); err != nil {
				t.Fatal(err)
			}

			freshTo := func(p uint64) *core.ReplayMachine {
				r := core.NewReplayer(tc.img, logs)
				r.LogCodeLoads = tc.rep.LogCodeLoads
				r.DictOptions = tc.rep.DictOptions
				m := r.Machine(core.MachineOptions{TrackKnown: true})
				for m.Pos() < p && !m.Done() {
					if err := m.StepOne(); err != nil {
						t.Fatalf("fresh replay to %d: %v", p, err)
					}
				}
				return m
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
				ref := freshTo(p)
				if eng.Registers() != ref.Registers() {
					t.Fatalf("registers at %d differ:\n seek: %+v\nfresh: %+v", p, eng.Registers(), ref.Registers())
				}
				sk, fr := eng.m.KnownWords(), ref.KnownWords()
				if len(sk) != len(fr) {
					t.Fatalf("known-set sizes at %d differ: %d vs %d", p, len(sk), len(fr))
				}
				for j, addr := range sk {
					if fr[j] != addr {
						t.Fatalf("known set at %d differs at %#x vs %#x", p, addr, fr[j])
					}
					va, ka := eng.ReadWord(addr)
					vb, kb := ref.ReadWord(addr)
					if va != vb || ka != kb {
						t.Fatalf("word %#x at %d: %#x/%v vs %#x/%v", addr, p, va, ka, vb, kb)
					}
				}
			}
		})
	}
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
