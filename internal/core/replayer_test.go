package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bugnet/internal/asm"
	"bugnet/internal/fll"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
)

// recordAndReplay runs src under the recorder and then replays thread 0,
// failing the test on any divergence.
func recordAndReplay(t *testing.T, src string, kcfg kernel.Config, rcfg Config) (*kernel.Result, *ReplayResult) {
	t.Helper()
	if rcfg.TraceDepth == 0 {
		rcfg.TraceDepth = 1 << 20
	}
	img, err := asm.Assemble("rr.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	res, rep, rec := Record(img, kcfg, rcfg)
	if err := VerifyReplay(img, rec); err != nil {
		t.Fatalf("verify: %v", err)
	}
	r := NewReplayer(img, rep.FLLs[0])
	r.LogCodeLoads = rcfg.LogCodeLoads
	rr, err := r.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return res, rr
}

func TestReplaySimpleComputation(t *testing.T) {
	res, rr := recordAndReplay(t, sumProgram, kernel.Config{},
		Config{IntervalLength: 500, Cache: tinyCache()})
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	// The final replayed state holds the sum in a0 at the exit syscall.
	if rr.Final.Regs[isa.RegA0] != 2016 {
		t.Errorf("replayed a0 = %d; want 2016", rr.Final.Regs[isa.RegA0])
	}
	if rr.Instructions != res.Instructions {
		t.Errorf("replayed %d instructions; recorded %d", rr.Instructions, res.Instructions)
	}
}

func TestReplayAcrossSyscalls(t *testing.T) {
	// The program reads input twice and combines it; replay never executes
	// the kernel, yet must reproduce the values via FLL headers and first
	// loads (paper's central claim).
	_, rr := recordAndReplay(t, `
        .data
buf:    .space 8
        .text
main:   li a0, 0
        la a1, buf
        li a2, 4
        li a7, 3          # read "ABCD"
        syscall
        la t0, buf
        lw s0, (t0)       # first load captures kernel-written data
        li a0, 0
        la a1, buf
        li a2, 4
        li a7, 3          # read "EFGH"
        syscall
        lw s1, (t0)
        add a0, s0, s1
        li a7, 1
        syscall
`, kernel.Config{Inputs: map[string][]byte{"stdin": []byte("ABCDEFGH")}},
		Config{Cache: tinyCache()})
	wantS0 := uint32(0x44434241) // "ABCD" little-endian
	wantS1 := uint32(0x48474645) // "EFGH"
	if rr.Final.Regs[isa.RegS0] != wantS0 || rr.Final.Regs[isa.RegS1] != wantS1 {
		t.Errorf("replayed s0=%#x s1=%#x; want %#x %#x",
			rr.Final.Regs[isa.RegS0], rr.Final.Regs[isa.RegS1], wantS0, wantS1)
	}
}

func TestReplayAcrossTimerInterrupts(t *testing.T) {
	res, rr := recordAndReplay(t, sumProgram,
		kernel.Config{TimerInterval: 97},
		Config{IntervalLength: 1 << 20, Cache: tinyCache()})
	if rr.Instructions != res.Instructions {
		t.Errorf("replayed %d != recorded %d", rr.Instructions, res.Instructions)
	}
	if rr.Final.Regs[isa.RegA0] != 2016 {
		t.Errorf("a0 = %d", rr.Final.Regs[isa.RegA0])
	}
	if rr.Intervals < 5 {
		t.Errorf("intervals = %d; timer should have split the run", rr.Intervals)
	}
}

func TestReplayAcrossDMA(t *testing.T) {
	// DMA lands mid-interval; the invalidation path must force re-logging
	// so replay sees the DMA'd data.
	_, rr := recordAndReplay(t, `
        .data
buf:    .space 16
        .text
main:   la  t0, buf
        lw  s0, (t0)      # pre-DMA: 0 (logged)
        li  a0, 0
        la  a1, buf
        li  a2, 16
        li  a7, 10        # dma_read
        syscall
        li  t1, 3000
spin:   addi t1, t1, -1
        bnez t1, spin
        la  t0, buf
        lw  s1, (t0)      # post-DMA: 'WXYZ' (must be re-logged)
        li  a7, 1
        mv  a0, s1
        syscall
`, kernel.Config{
		Inputs:     map[string][]byte{"stdin": []byte("WXYZ0123456789ab")},
		DMALatency: 100,
	}, Config{IntervalLength: 1 << 20, Cache: tinyCache()})
	if rr.Final.Regs[isa.RegS0] != 0 {
		t.Errorf("pre-DMA load = %#x; want 0", rr.Final.Regs[isa.RegS0])
	}
	if want := uint32(0x5A595857); rr.Final.Regs[isa.RegS1] != want { // "WXYZ"
		t.Errorf("post-DMA load = %#x; want %#x", rr.Final.Regs[isa.RegS1], want)
	}
}

func TestReplayToCrash(t *testing.T) {
	img := asm.MustAssemble("c.s", `
        .data
p:      .word 0           # null pointer
        .text
main:   li t0, 50
work:   addi t0, t0, -1
        bnez t0, work
        la t1, p
        lw t2, (t1)       # loads null
deref:  lw a0, (t2)       # crash: null deref
`)
	res, rep, rec := Record(img, kernel.Config{}, Config{Cache: tinyCache(), TraceDepth: 1 << 16})
	if res.Crash == nil {
		t.Fatal("program did not crash")
	}
	if err := VerifyReplay(img, rec); err != nil {
		t.Fatalf("verify: %v", err)
	}
	r := NewReplayer(img, rep.FLLs[0])
	rr, err := r.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rr.Fault == nil {
		t.Fatal("replay lost the fault record")
	}
	if rr.Fault.PC != img.MustSymbol("deref") {
		t.Errorf("fault PC = %#x; want deref at %#x", rr.Fault.PC, img.MustSymbol("deref"))
	}
	// The replayed final state is the state just before the crash: t2
	// holds the null pointer the developer is looking for.
	if rr.Final.Regs[isa.RegT2] != 0 {
		t.Errorf("replayed t2 = %#x; want 0 (the bad pointer)", rr.Final.Regs[isa.RegT2])
	}
	if rr.Final.PC != rr.Fault.PC {
		t.Errorf("replay stopped at %#x; want fault pc %#x", rr.Final.PC, rr.Fault.PC)
	}
}

func TestReplayPartialWindow(t *testing.T) {
	// With a tight FLL budget the oldest checkpoints are evicted; replay
	// starts at the first retained one and still reaches the same final
	// state.
	img := asm.MustAssemble("w.s", sumProgram)
	res, rep, _ := Record(img, kernel.Config{},
		Config{IntervalLength: 64, Cache: tinyCache(), FLLBudget: 3000})
	logs := rep.FLLs[0]
	if logs[0].CID == 0 {
		t.Skip("budget retained everything; test needs eviction")
	}
	r := NewReplayer(img, logs)
	rr, err := r.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rr.Final.Regs[isa.RegA0] != 2016 {
		t.Errorf("a0 = %d; want 2016", rr.Final.Regs[isa.RegA0])
	}
	if rr.Instructions >= res.Instructions {
		t.Error("partial window replayed the whole run")
	}
}

func TestReplayPreserveFLBits(t *testing.T) {
	// The paper's future-work extension: FL bits survive interval
	// boundaries. Replay must still be exact.
	res, rr := recordAndReplay(t, `
        .data
buf:    .space 64
        .text
main:   li a0, 0
        la a1, buf
        li a2, 64
        li a7, 3          # read fills buf
        syscall
        la t0, buf
        li t1, 16
        li s0, 0
l1:     lw t2, (t0)
        add s0, s0, t2
        addi t0, t0, 4
        addi t1, t1, -1
        bnez t1, l1
        li a7, 7          # time syscall: interval boundary
        syscall
        la t0, buf        # re-read same data after the boundary
        li t1, 16
l2:     lw t2, (t0)
        add s0, s0, t2
        addi t0, t0, 4
        addi t1, t1, -1
        bnez t1, l2
        mv a0, s0
        li a7, 1
        syscall
`, kernel.Config{Inputs: map[string][]byte{"stdin": []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")}},
		Config{Cache: tinyCache(), PreserveFLBits: true})
	if res.Crash != nil {
		t.Fatal("crash")
	}
	if rr.Final.Regs[isa.RegA0] == 0 {
		t.Error("sum came out zero")
	}
}

func TestPreserveFLBitsReducesLogging(t *testing.T) {
	src := `
        .data
buf:    .space 256
        .text
main:   li a0, 0
        la a1, buf
        li a2, 256
        li a7, 3
        syscall
        li s1, 20         # 20 passes, each ending with a time syscall
pass:   la t0, buf
        li t1, 64
lp:     lw t2, (t0)
        addi t0, t0, 4
        addi t1, t1, -1
        bnez t1, lp
        li a7, 7
        syscall           # interval boundary every pass
        addi s1, s1, -1
        bnez s1, pass
        li a7, 1
        syscall
`
	input := map[string][]byte{"stdin": make([]byte, 256)}
	img := asm.MustAssemble("p.s", src)
	_, _, recBase := Record(img, kernel.Config{Inputs: input}, Config{Cache: tinyCache()})
	_, _, recPres := Record(img, kernel.Config{Inputs: input}, Config{Cache: tinyCache(), PreserveFLBits: true})
	lBase, _ := recBase.LoggedOps()
	lPres, _ := recPres.LoggedOps()
	if lPres*2 > lBase {
		t.Errorf("PreserveFLBits logged %d vs baseline %d; expected large reduction", lPres, lBase)
	}
	// And it must still replay exactly.
	rep := recPres.Report()
	r := NewReplayer(img, rep.FLLs[0])
	if _, err := r.Run(); err != nil {
		t.Fatalf("preserve-FL replay: %v", err)
	}
}

func TestReplaySelfModifyingCodeWithExtension(t *testing.T) {
	// The program overwrites an addi with its encoded replacement, turning
	// a +1 into +2. Base BugNet cannot replay this; the LogCodeLoads
	// extension can (paper §5.3).
	src := `
        .text
main:   la   t0, patch
        lw   t1, (t0)     # read replacement instruction word
        la   t2, target
        sw   t1, (t2)     # self-modify
target: addi a0, a0, 1    # becomes addi a0, a0, 2
        li   a7, 1
        syscall
        .data
patch:  .word 0x494a0002  # addi a0, a0, 2
`
	img := asm.MustAssemble("smc.s", src)
	// Verify the patch constant matches the real encoding (guards against
	// encoding drift).
	want := isa.MustEncode(isa.Instruction{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 2})
	if got := uint32(0x494a0002); got != want {
		t.Fatalf("patch constant %#x stale; encoding is %#x — update the source", got, want)
	}

	res, rep, _ := Record(img, kernel.Config{}, Config{Cache: tinyCache(), LogCodeLoads: true})
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	if res.ExitCode != 2 {
		t.Fatalf("exit = %d; want 2 (the patched increment)", res.ExitCode)
	}
	r := NewReplayer(img, rep.FLLs[0])
	r.LogCodeLoads = true
	rr, err := r.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rr.Final.Regs[isa.RegA0] != 2 {
		t.Errorf("replayed a0 = %d; want 2", rr.Final.Regs[isa.RegA0])
	}
}

func TestReplayDetectsTamperedLog(t *testing.T) {
	img := asm.MustAssemble("t.s", sumProgram)
	_, rep, _ := Record(img, kernel.Config{}, Config{Cache: tinyCache()})
	logs := rep.FLLs[0]
	// Corrupt the instruction count of the first log (tamper the decoded
	// object and re-wrap it, so the mutation actually reaches replay — a
	// lazy view's metadata is display-only).
	l0, err := logs[0].Open()
	if err != nil {
		t.Fatal(err)
	}
	tampered := *l0
	tampered.Length += 3
	logs[0] = WrapFLLs([]*fll.Log{&tampered})[0]
	r := NewReplayer(img, logs)
	if _, err := r.Run(); err == nil {
		t.Error("replay of tampered log succeeded; want divergence error")
	}
}

// TestPropertyRandomProgramsReplayExactly generates random (but safe)
// straight-line programs over a scratch buffer and checks record/replay
// equivalence of final architectural state.
func TestPropertyRandomProgramsReplayExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng)
		img, err := asm.Assemble("rand.s", src)
		if err != nil {
			t.Logf("assemble: %v\n%s", err, src)
			return false
		}
		kcfg := kernel.Config{
			TimerInterval: uint64(50 + rng.Intn(400)),
			Inputs:        map[string][]byte{"stdin": randomBytes(rng, 128)},
		}
		rcfg := Config{
			IntervalLength: uint64(100 + rng.Intn(2000)),
			DictSize:       []int{8, 64, 256}[rng.Intn(3)],
			Cache:          tinyCache(),
			TraceDepth:     1 << 18,
			PreserveFLBits: rng.Intn(2) == 0,
		}
		res, rep, rec := Record(img, kcfg, rcfg)
		if res.Crash != nil {
			t.Logf("unexpected crash: %v\n%s", res.Crash, src)
			return false
		}
		if err := VerifyReplay(img, rec); err != nil {
			t.Logf("verify: %v (seed %d)", err, seed)
			return false
		}
		r := NewReplayer(img, rep.FLLs[0])
		rr, err := r.Run()
		if err != nil {
			t.Logf("replay: %v", err)
			return false
		}
		return rr.Instructions == res.Instructions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// randomProgram emits a loop that performs random arithmetic and scratch
// loads/stores plus occasional syscalls, always terminating cleanly.
func randomProgram(rng *rand.Rand) string {
	var b []byte
	add := func(s string) { b = append(b, s...); b = append(b, '\n') }
	add("        .data")
	add("scratch: .space 512")
	add("        .text")
	add("main:   la s0, scratch")
	add("        li s1, " + itoa(20+rng.Intn(60))) // outer iterations
	add("outer:")
	n := 3 + rng.Intn(12)
	for i := 0; i < n; i++ {
		off := rng.Intn(127) * 4
		switch rng.Intn(7) {
		case 0:
			add("        lw t0, " + itoa(off) + "(s0)")
		case 1:
			add("        sw t1, " + itoa(off) + "(s0)")
		case 2:
			add("        lb t2, " + itoa(rng.Intn(508)) + "(s0)")
		case 3:
			add("        sb t0, " + itoa(rng.Intn(508)) + "(s0)")
		case 4:
			add("        add t1, t1, t0")
			add("        xori t1, t1, " + itoa(rng.Intn(4096)))
		case 5:
			add("        sh t1, " + itoa(rng.Intn(250)*2) + "(s0)")
		case 6:
			add("        li a7, 7") // time syscall: interval churn
			add("        syscall")
			add("        add t0, t0, a0")
		}
	}
	add("        addi s1, s1, -1")
	add("        bnez s1, outer")
	add("        li a7, 1")
	add("        mv a0, t1")
	add("        syscall")
	return string(b)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestReplayReportsInjectionCount(t *testing.T) {
	_, rr := recordAndReplay(t, `
        .data
tbl:    .word 5, 6, 7, 8
        .text
main:   la t0, tbl
        lw a0, (t0)
        lw a1, 4(t0)
        lw a2, 8(t0)
        lw a3, 12(t0)
        lw a4, (t0)       # second load: not injected
        li a7, 1
        syscall
`, kernel.Config{}, Config{Cache: tinyCache()})
	if rr.Injected != 4 {
		t.Errorf("injected = %d; want 4 first loads", rr.Injected)
	}
	if rr.Final.Regs[isa.RegA4] != 5 {
		t.Errorf("regenerated load = %d; want 5", rr.Final.Regs[isa.RegA4])
	}
}

var _ = fll.EndExit // used in sibling test files

// TestReplayHashesRegistersOnlyUnderVerify: a replay's trace ring carries
// the same PCs either way, but the per-instruction register hash is paid
// only by VerifyReplay's replays — backtraces read PCs.
func TestReplayHashesRegistersOnlyUnderVerify(t *testing.T) {
	img, err := asm.Assemble("rr.s", sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, rec := Record(img, kernel.Config{}, Config{IntervalLength: 500, Cache: tinyCache(), TraceDepth: 64})
	if err := VerifyReplay(img, rec); err != nil {
		t.Fatalf("verify: %v", err)
	}
	run := func(verify bool) []TraceEntry {
		r := NewReplayer(img, rep.FLLs[0])
		r.TraceDepth = 64
		r.verifyRegs = verify
		res, err := r.Run()
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		return res.Trace
	}
	plain, hashed := run(false), run(true)
	if len(plain) != 64 || len(hashed) != 64 {
		t.Fatalf("trace lengths %d, %d; want full rings", len(plain), len(hashed))
	}
	recTrace := rec.Trace(0)
	for i := range plain {
		if plain[i].PC != hashed[i].PC || plain[i].RegHash != 0 {
			t.Fatalf("entry %d: plain %+v, hashed %+v", i, plain[i], hashed[i])
		}
		if hashed[i].RegHash == 0 {
			t.Fatalf("entry %d: verifying replay left the register hash empty", i)
		}
	}
	if got, want := hashed[63], recTrace[len(recTrace)-1]; got != want {
		// sumProgram exits by syscall: no faulting fetch or sentinel to drop.
		t.Errorf("last replayed entry %+v; recorder saw %+v", got, want)
	}
}
