package cpu

// block_test.go holds the cached ⇄ fresh-decode differential suite: Run
// in batches, re-executing cached blocks, must be instruction-identical to
// Run(1) with the block cache flushed before every instruction, which
// decodes each instruction from live memory — same registers, memory,
// faults, and the same hook stream with the same mid-instruction PC/IC
// observability the recorder and replayer depend on. Plus the
// self-modifying-code regression tests: a cached block must never execute
// stale decodes after guest stores, external code injection, or
// copy-on-write page replacement.

import (
	"fmt"
	"slices"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/cpu/cputest"
	"bugnet/internal/isa"
	"bugnet/internal/mem"
)

// hookEvent is one observed CPU hook firing, including the architectural
// state the hook could see (the recorder reads c.PC and c.IC mid-step).
type hookEvent struct {
	kind  byte // 'L' loggable, 'W' word store, 'F' fetch
	addr  uint32
	write bool
	pc    uint32
	ic    uint64
}

// instrument installs recording hooks on c.
func instrument(c *CPU, events *[]hookEvent) {
	c.OnLoggable = func(a uint32, w bool) {
		*events = append(*events, hookEvent{'L', a, w, c.PC, c.IC})
	}
	c.OnWordStore = func(a uint32) {
		*events = append(*events, hookEvent{'W', a, false, c.PC, c.IC})
	}
	c.OnFetch = func(pc uint32) {
		*events = append(*events, hookEvent{'F', pc, false, c.PC, c.IC})
	}
}

// driveFresh executes up to total instructions one Run(1) at a time with
// the block cache flushed before each, so every instruction is decoded
// from live memory, treating syscalls as NOPs (the replay protocol). It
// returns the final event and the IC after every instruction that left a
// breakpoint next: Run(1) runs its one instruction whatever it is.
func driveFresh(c *CPU, total uint64) (Event, []uint64) {
	var stops []uint64
	for n := uint64(0); n < total; n++ {
		c.InvalidateFetchCache()
		switch _, ev := c.Run(1); ev {
		case EventStep, EventSyscall:
		default:
			return ev, stops
		}
		if slices.Contains(c.Breakpoints(), c.PC) {
			stops = append(stops, c.IC)
		}
	}
	return EventStep, stops
}

// driveRun executes up to total instructions through the block engine in
// batches of at most batch, continuing through syscalls and breakpoints. It
// returns the final event and the IC at every breakpoint stop: where Run
// returned EventBreak, and where a call ended with a breakpoint next, which
// the following call runs without a stop (the replay machine stops there).
// A Run that ran past a breakpoint leaves its stop out.
func driveRun(c *CPU, total, batch uint64) (Event, []uint64) {
	var stops []uint64
	left := total
	for left > 0 {
		n, ev := c.Run(min(batch, left))
		left -= n
		switch ev {
		case EventStep, EventSyscall, EventBreak:
			if n == 0 {
				return ev, stops // no progress possible (defensive)
			}
		default:
			return ev, stops
		}
		if ev == EventBreak || slices.Contains(c.Breakpoints(), c.PC) {
			stops = append(stops, c.IC)
		}
	}
	return EventStep, stops
}

// breakTest runs img decoded fresh per instruction and through the block
// engine in batches of batch with breakpoints at pcs, and fails unless
// both stop at the same points, every one of them a breakpoint, with
// identical state. It returns the stops.
func breakTest(t *testing.T, img *asm.Image, total, batch uint64, pcs ...uint32) []uint64 {
	t.Helper()
	cs, cr := load(img), load(img)
	for _, pc := range pcs {
		cs.SetBreak(pc, true)
		cr.SetBreak(pc, true)
	}
	evS, want := driveFresh(cs, total)
	evR, got := driveRun(cr, total, batch)
	if evS != evR || !slices.Equal(got, want) {
		t.Fatalf("batch %d: run stops %v, %v; fresh %v, %v", batch, got, evR, want, evS)
	}
	compareCPUs(t, cs, cr)
	return want
}

// compareCPUs fails the test if the two cores' architectural state or
// memory contents differ.
func compareCPUs(t *testing.T, cs, cr *CPU) {
	t.Helper()
	if cs.PC != cr.PC {
		t.Errorf("PC: fresh %#x, run %#x", cs.PC, cr.PC)
	}
	if cs.IC != cr.IC {
		t.Errorf("IC: fresh %d, run %d", cs.IC, cr.IC)
	}
	if cs.Regs != cr.Regs {
		t.Errorf("registers diverged:\nfresh %v\nrun   %v", cs.Regs, cr.Regs)
	}
	if cs.Halted != cr.Halted {
		t.Errorf("Halted: fresh %v, run %v", cs.Halted, cr.Halted)
	}
	switch {
	case (cs.Fault == nil) != (cr.Fault == nil):
		t.Errorf("fault: fresh %v, run %v", cs.Fault, cr.Fault)
	case cs.Fault != nil && *cs.Fault != *cr.Fault:
		t.Errorf("fault: fresh %+v, run %+v", *cs.Fault, *cr.Fault)
	}
	sp, rp := cs.Mem.PageNumbers(), cr.Mem.PageNumbers()
	if len(sp) != len(rp) {
		t.Fatalf("mapped pages: fresh %d, run %d", len(sp), len(rp))
	}
	for i, num := range sp {
		if rp[i] != num {
			t.Fatalf("page sets differ: %v vs %v", sp, rp)
		}
		if *cs.Mem.Page(num) != *cr.Mem.Page(num) {
			t.Errorf("page %#x contents differ", num)
		}
	}
}

// twinTest assembles src, runs it decoded fresh per instruction and
// through the block cache in the given batch size, and asserts identical
// state, fault, and hook streams.
func twinTest(t *testing.T, src string, total, batch uint64, hooks bool) {
	t.Helper()
	img, err := asm.Assemble("twin.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cs, cr := load(img), load(img)
	var se, re []hookEvent
	if hooks {
		instrument(cs, &se)
		instrument(cr, &re)
	}
	evS, _ := driveFresh(cs, total)
	evR, _ := driveRun(cr, total, batch)
	if evS != evR {
		t.Errorf("final event: fresh %v, run %v", evS, evR)
	}
	compareCPUs(t, cs, cr)
	if hooks {
		if len(se) != len(re) {
			t.Fatalf("hook streams: fresh %d events, run %d", len(se), len(re))
		}
		for i := range se {
			if se[i] != re[i] {
				t.Fatalf("hook event %d: fresh %+v, run %+v", i, se[i], re[i])
			}
		}
	}
}

func TestRunMatchesStep(t *testing.T) {
	for name, src := range cputest.TwinPrograms {
		for _, batch := range []uint64{1, 3, 1 << 20} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				twinTest(t, src, 2000, batch, true)
			})
		}
	}
}

func TestRunMatchesStepNoHooks(t *testing.T) {
	for name, src := range cputest.TwinPrograms {
		t.Run(name, func(t *testing.T) {
			twinTest(t, src, 2000, 1<<20, false)
		})
	}
}

func TestRunBudgetExact(t *testing.T) {
	img := asm.MustAssemble("straight.s", `
        li   a0, 0
loop:   addi a0, a0, 1
        addi a1, a1, 2
        addi a2, a2, 3
        addi a3, a3, 4
        j    loop
`)
	c := load(img)
	for _, want := range []uint64{1, 2, 3, 7, 64} {
		before := c.IC
		n, ev := c.Run(want)
		if n != want || ev != EventStep {
			t.Fatalf("Run(%d) = (%d, %v)", want, n, ev)
		}
		if c.IC-before != want {
			t.Fatalf("IC advanced %d; want %d", c.IC-before, want)
		}
	}
}

// TestRunBreakParity: Run in batches stops at every breakpoint Run(1)
// over fresh decodes passes — mid-block, at a loop head a taken branch
// jumps to, and on a duplicate SetBreak — and nowhere else.
func TestRunBreakParity(t *testing.T) {
	img := asm.MustAssemble("b.s", cputest.TwinPrograms["arith-loop"])
	loop := img.Entry + 12 // the taken branch's target
	for _, batch := range []uint64{1, 3, 7, 1 << 20} {
		stops := breakTest(t, img, 2000, batch, loop, loop+8, loop)
		if len(stops) != 200 {
			t.Fatalf("batch %d: %d stops, want two each of 100 laps", batch, len(stops))
		}
	}
}

// TestRunBreakAddedAfterDecode: a breakpoint set inside a block the cache
// already holds splits it, so Run stops there; cleared, Run runs through.
func TestRunBreakAddedAfterDecode(t *testing.T) {
	img := asm.MustAssemble("b2.s", cputest.TwinPrograms["arith-loop"])
	c := load(img)
	if n, ev := c.Run(50); n != 50 || ev != EventStep {
		t.Fatalf("warmup Run = (%d, %v)", n, ev)
	}
	mid := img.Entry + 20 // the xor inside the cached loop block
	c.SetBreak(mid, true)
	if n, ev := c.Run(50); ev != EventBreak || c.PC != mid || n == 0 || n > 5 {
		t.Fatalf("Run after SetBreak = (%d, %v) at %#x; want a break at %#x within a lap", n, ev, c.PC, mid)
	}
	if n, ev := c.Run(50); ev != EventBreak || n != 5 || c.PC != mid {
		t.Fatalf("Run from the breakpoint = (%d, %v) at %#x; want one lap to it", n, ev, c.PC)
	}
	c.SetBreak(mid, false)
	if n, ev := c.Run(50); n != 50 || ev != EventStep {
		t.Fatalf("Run after clearing = (%d, %v)", n, ev)
	}
}

// TestRunSelfModifyingStore is the in-engine SMC regression: a guest
// store overwrites the *next* instruction of the currently executing
// block; the stale decode must not run. (The LogCodeLoads record/replay
// variant lives in core's TestReplaySelfModifyingCodeWithExtension.)
func TestRunSelfModifyingStore(t *testing.T) {
	patch := isa.MustEncode(isa.Instruction{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 2})
	src := fmt.Sprintf(`
        la   t0, patch
        lw   t1, (t0)
        la   t2, target
        sw   t1, (t2)
target: addi a0, a0, 1    # becomes addi a0, a0, 2
        syscall
        .data
patch:  .word %#x
`, patch)
	// Parity first: cached and fresh decodes must execute the patched
	// instruction.
	twinTest(t, src, 100, 1<<20, true)
	img := asm.MustAssemble("smc.s", src)
	c := load(img)
	if _, ev := c.Run(100); ev != EventSyscall {
		t.Fatalf("event = %v (fault %v)", ev, c.Fault)
	}
	if c.Regs[isa.RegA0] != 2 {
		t.Errorf("a0 = %d; want 2 (the patched increment)", c.Regs[isa.RegA0])
	}
}

// TestRunExternalInjectionInvalidate covers the documented external-write
// contract: mutate text through the Memory directly, call
// InvalidateFetchCache, and the block cache must re-decode.
func TestRunExternalInjectionInvalidate(t *testing.T) {
	img := asm.MustAssemble("inj.s", `
loop:   addi a0, a0, 1
        j    loop
`)
	c := load(img)
	if n, _ := c.Run(10); n != 10 {
		t.Fatal("warmup failed")
	}
	// Replace the loop body with a BREAK.
	brk := isa.MustEncode(isa.Instruction{Op: isa.OpBREAK})
	if err := c.Mem.StoreWord(img.Entry, brk); err != nil {
		t.Fatal(err)
	}
	c.InvalidateFetchCache()
	// The loop re-enters at img.Entry; the injected BREAK must fault
	// immediately instead of the stale addi executing.
	n, ev := c.Run(10)
	if n != 0 || ev != EventFault || c.Fault == nil || c.Fault.Cause != FaultBreak {
		t.Fatalf("after injection: Run = (%d, %v), fault %v; want an immediate break fault", n, ev, c.Fault)
	}
	// The 10-instruction warmup is 5 (addi, j) iterations.
	if a0 := c.Regs[isa.RegA0]; a0 != 5 {
		t.Errorf("a0 = %d; want 5 (stale instructions executed after injection)", a0)
	}
}

// TestRunGenInvalidation covers the mem.Gen path: a copy-on-write page
// replacement (snapshot + write through the live memory, no explicit
// invalidate call) must be detected by block-entry revalidation.
func TestRunGenInvalidation(t *testing.T) {
	img := asm.MustAssemble("gen.s", `
loop:   addi a0, a0, 1
        j    loop
`)
	c := load(img)
	if n, _ := c.Run(10); n != 10 {
		t.Fatal("warmup failed")
	}
	snap := c.Mem.Snapshot() // marks the text page shared
	gen := c.Mem.Gen()
	brk := isa.MustEncode(isa.Instruction{Op: isa.OpBREAK})
	if err := c.Mem.StoreWord(img.Entry, brk); err != nil { // COW replaces the page
		t.Fatal(err)
	}
	if c.Mem.Gen() == gen {
		t.Fatal("COW write did not bump Gen; test is vacuous")
	}
	_ = snap
	n, ev := c.Run(10)
	if ev != EventFault || c.Fault == nil || c.Fault.Cause != FaultBreak {
		t.Fatalf("after COW rewrite: Run = (%d, %v), fault %v; want a break fault", n, ev, c.Fault)
	}
}

// TestInvalidateFetchRange checks the kernel-facing ranged invalidation:
// external writes outside the decoded code pages keep cached blocks (and
// their stale bytes are never executed, because such writes cannot
// overlap decoded code), while writes into them flush.
func TestInvalidateFetchRange(t *testing.T) {
	img := asm.MustAssemble("rng.s", `
loop:   addi a0, a0, 1
        j    loop
`)
	c := load(img)
	if n, _ := c.Run(10); n != 10 {
		t.Fatal("warmup failed")
	}
	brk := isa.MustEncode(isa.Instruction{Op: isa.OpBREAK})
	if err := c.Mem.StoreWord(img.Entry, brk); err != nil {
		t.Fatal(err)
	}
	// A ranged invalidate that misses the code page must keep the cached
	// (now stale, but unreachable-by-contract) block: the loop keeps
	// running its decoded form.
	c.InvalidateFetchRange(img.DataBase, 64)
	if n, ev := c.Run(10); n != 10 || ev != EventStep {
		t.Fatalf("data-range invalidate flushed code blocks: Run = (%d, %v)", n, ev)
	}
	// One that covers the write must flush and surface the injected BREAK.
	c.InvalidateFetchRange(img.Entry, 4)
	if n, ev := c.Run(10); n != 0 || ev != EventFault || c.Fault.Cause != FaultBreak {
		t.Fatalf("code-range invalidate missed: Run = (%d, %v), fault %v", n, ev, c.Fault)
	}
}

func TestRunStopRequest(t *testing.T) {
	img := asm.MustAssemble("stop.s", `
        .data
buf:    .space 4
        .text
        la   t0, buf
loop:   lw   a1, (t0)
        addi a0, a0, 1
        j    loop
`)
	c := load(img)
	stops := 0
	c.OnLoggable = func(uint32, bool) {
		stops++
		if stops == 3 {
			c.Stop()
		}
	}
	n, ev := c.Run(1000)
	if ev != EventStep {
		t.Fatalf("event = %v", ev)
	}
	// The la expands to 2 instructions, each loop iteration is 3, and the
	// stop lands right after the instruction whose hook requested it (the
	// third lw, the first instruction of iteration 3).
	if want := uint64(2 + 2*3 + 1); n != want {
		t.Errorf("Run stopped after %d instructions; want %d", n, want)
	}
	// The request must not leak into the next Run.
	if n, _ := c.Run(5); n != 5 {
		t.Errorf("stale stop: next Run executed %d; want 5", n)
	}
}

func TestRunHaltedAndResume(t *testing.T) {
	img := asm.MustAssemble("halt.s", `
        li   a0, 1
        break
`)
	c := load(img)
	if n, ev := c.Run(10); ev != EventFault || n != 1 {
		t.Fatalf("Run = (%d, %v)", n, ev)
	}
	if n, ev := c.Run(10); ev != EventHalted || n != 0 {
		t.Fatalf("halted Run = (%d, %v)", n, ev)
	}
}

// TestRunAutoMap checks the replay configuration: AutoMap cores map
// missing data pages instead of faulting, identically cached and fresh.
func TestRunAutoMap(t *testing.T) {
	src := `
        lui  t0, 0x2000
        li   t1, 5
        sw   t1, 0(t0)
        lw   a0, 0(t0)
        lw   a1, 128(t0)
        syscall
`
	img := asm.MustAssemble("automap.s", src)
	cs, cr := load(img), load(img)
	cs.AutoMap, cr.AutoMap = true, true
	evS, _ := driveFresh(cs, 100)
	evR, _ := driveRun(cr, 100, 1<<20)
	if evS != evR {
		t.Fatalf("events: %v vs %v", evS, evR)
	}
	compareCPUs(t, cs, cr)
	if cs.Regs[isa.RegA0] != 5 {
		t.Errorf("a0 = %d; want 5", cs.Regs[isa.RegA0])
	}
}

// quick sanity check on mem constants used by the cache geometry.
func TestBlockCacheGeometry(t *testing.T) {
	if blockCacheSlots&blockCacheMask != 0 || blockCacheSlots < int(mem.PageSize/4) {
		t.Fatalf("block cache geometry: slots=%d mask=%#x page-words=%d",
			blockCacheSlots, blockCacheMask, mem.PageSize/4)
	}
}
