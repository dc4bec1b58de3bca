package core

import (
	"errors"
	"testing"

	"bugnet/internal/asm"
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
