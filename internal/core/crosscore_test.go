package core

import (
	"errors"
	"strings"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/fll"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
)

// crossCoreSMCProgram spawns a worker that counts in a loop, lets it run
// long enough to have decoded the loop, then overwrites the loop's addi
// with a word that decodes to no instruction, from the main thread: a
// guest store on one core into text another core runs. Main first
// rewrites the addi with itself, so the page is its own before the worker
// decodes from it and the patch is a plain store, not a copy-on-write
// fault that would make the worker re-decode anyway.
const crossCoreSMCProgram = `
main:   la   t1, slot
        lw   t2, (t1)
        sw   t2, (t1)
        la   a0, worker
        li   a7, 8
        syscall
        li   t0, 400
spin:   addi t0, t0, -1
        bnez t0, spin
        sw   zero, (t1)
mspin:  j    mspin
worker: li   t0, 2000
        li   t3, 0
slot:   addi t3, t3, 1
        addi t0, t0, -1
        bnez t0, slot
        lw   a0, (zero)
`

// TestCrossCoreCodeWriteReplays: the store lands while the worker's core
// holds a decode of its loop. The worker must fault on the new word at its
// next lap, as its replay does: the replay takes the word from the logged
// code load, so a worker that ran on from its stale decode diverges from
// its own replay.
func TestCrossCoreCodeWriteReplays(t *testing.T) {
	if op := isa.Decode(0).Op; op != isa.OpInvalid {
		t.Fatalf("the zero word decodes to %v", op)
	}
	img := asm.MustAssemble("xcore.s", crossCoreSMCProgram)
	m := kernel.New(img, kernel.Config{Cores: 2}, nil)
	rec := NewRecorder(m, Config{IntervalLength: 256, LogCodeLoads: true})
	res := m.Run()
	if res.Crash == nil || res.Crash.TID != 1 {
		t.Fatalf("crash = %+v; want the worker's", res.Crash)
	}
	if pc := res.Crash.Fault.PC; pc != img.MustSymbol("slot") {
		t.Errorf("the worker crashed at %#x, not on the overwritten word", pc)
	}
	r := NewReplayer(img, rec.Report().FLLs[1])
	r.LogCodeLoads = true
	got, err := r.Run()
	if errors.Is(err, ErrDiverged) {
		t.Fatalf("the worker's replay diverged: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Threads[1].CPU.State(); got.Final != want {
		t.Errorf("replayed worker ends in\n %+v\nrecorded\n %+v", got.Final, want)
	}
}

// countProgram counts t3 up by one per lap; the load gives the recorder a
// loggable operation to end full intervals on.
const countProgram = `
        .data
word:   .word 7
        .text
main:   la   t1, word
        li   t0, 2000
        li   t3, 0
slot:   addi t3, t3, 1
        lw   t5, (t1)
        addi t0, t0, -1
        bnez t0, slot
        lw   a0, (zero)
`

// TestRegisterOnlyDivergenceIsCaught: the recorded thread executes
// addi t3, t3, 1 where its replay executes addi t3, t3, 100 (a worker that
// ran a stale decode of a patched word gave replay exactly this, with the
// patched word in the logs). Memory and log consumption agree, so only
// the registers part; every interval restarts from its header, so without
// comparing the registers an interval ends with to the next header the
// replay runs clean to a different final state.
func TestRegisterOnlyDivergenceIsCaught(t *testing.T) {
	img := asm.MustAssemble("count.s", countProgram)
	m := kernel.New(img, kernel.Config{}, nil)
	rec := NewRecorder(m, Config{IntervalLength: 256})
	if res := m.Run(); res.Crash == nil {
		t.Fatal("the program did not crash")
	}
	fllLogs := rec.Report().FLLs[0]
	if len(fllLogs) < 3 || fllLogs[0].End != fll.EndIntervalFull {
		t.Fatalf("want several full intervals, got %d (first ends %v)", len(fllLogs), fllLogs[0].End)
	}
	patched := asm.MustAssemble("count.s", strings.Replace(countProgram, "addi t3, t3, 1", "addi t3, t3, 100", 1))
	got, err := NewReplayer(patched, fllLogs).Run()
	if errors.Is(err, ErrDiverged) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Errorf("replay ran clean to t3 = %d; the recorded thread ended with t3 = %d",
		got.Final.Regs[isa.RegT3], m.Threads[0].CPU.State().Regs[isa.RegT3])
}
