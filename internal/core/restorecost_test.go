package core

import (
	"encoding/binary"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/fll"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
	"bugnet/internal/workload"
)

// restoreWindow records mcf for n instructions past its warmup at
// 10 K-instruction intervals: data writes on every page it touches,
// dictionary ranks, and no write to its text.
func restoreWindow(t *testing.T, n uint64) (*asm.Image, []*fll.Ref) {
	t.Helper()
	w := workload.ByName("mcf")
	kcfg := w.Kernel
	kcfg.MaxSteps = w.Warmup
	m := kernel.New(w.Image, kcfg, nil)
	m.Run()
	rec := NewRecorder(m, Config{IntervalLength: 10_000})
	m.SetMaxSteps(w.Warmup + n)
	m.Run()
	rec.Flush()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return w.Image, rec.Report().FLLs[0]
}

func mustStep(t *testing.T, m *ReplayMachine, n uint64) {
	t.Helper()
	if got, err := m.StepN(n); err != nil || got != n {
		t.Fatalf("StepN(%d) at %d: %d steps, %v", n, m.Pos(), got, err)
	}
}

// TestRestoreKeepsDecodedBlocks: restoring a machine over text nothing
// writes keeps its predecoded blocks — within an interval and across an
// interval boundary — and re-executes to the registers, known words and
// values a replay that never rewound reaches.
func TestRestoreKeepsDecodedBlocks(t *testing.T) {
	img, logs := restoreWindow(t, 30_000)
	build := func() *ReplayMachine {
		r := NewReplayer(img, logs)
		r.TraceDepth = 8
		return r.Machine(MachineOptions{TrackKnown: true})
	}
	for _, c := range []struct {
		name      string
		at, ahead uint64
	}{{"within", 2_000, 3_000}, {"across", 8_000, 6_000}} {
		t.Run(c.name, func(t *testing.T) {
			m, ref := build(), build()
			mustStep(t, m, c.at)
			snap := m.Snapshot()
			mustStep(t, m, c.ahead)
			if len(m.st.private()) == 0 {
				t.Fatal("vacuous: the machine dirtied nothing after the snapshot")
			}
			flushes := m.st.c.BlockFlushes()
			for i := 0; i < 3; i++ {
				m.Restore(snap)
				mustStep(t, m, c.ahead)
			}
			if got := m.st.c.BlockFlushes(); got != flushes {
				t.Errorf("three restores flushed the block cache %d times; want 0", got-flushes)
			}
			mustStep(t, ref, c.at+c.ahead)
			sameState(t, m, ref)
		})
	}
}

// patchProgram reads a new instruction from stdin over its own loop body
// fifty laps in: t0 counts laps one at a time before the patch and a
// hundred at a time after it, while s1 keeps counting laps.
const patchProgram = `
main:   li   t0, 0
        li   t1, 2000
        li   s1, 0
slot:   addi t0, t0, 1
        addi s1, s1, 1
        li   t2, 50
        bne  s1, t2, next
        li   a0, 0
        la   a1, slot
        li   a2, 4
        li   a7, 3
        syscall
next:   blt  t0, t1, slot
boom:   lw   a0, (zero)
`

// TestRestoreAcrossCodePatchFlushes: under LogCodeLoads a patched text word
// arrives as a logged code load that privatizes the text page, so restoring
// to before the patch recycles that page and flushes the block cache, and
// the loop re-executes its original instruction.
func TestRestoreAcrossCodePatchFlushes(t *testing.T) {
	img := asm.MustAssemble("patch.s", patchProgram)
	original := isa.MustEncode(isa.Instruction{Op: isa.OpADDI, Rd: isa.RegT0, Rs1: isa.RegT0, Imm: 1})
	patch := binary.LittleEndian.AppendUint32(nil,
		isa.MustEncode(isa.Instruction{Op: isa.OpADDI, Rd: isa.RegT0, Rs1: isa.RegT0, Imm: 100}))
	res, rep, _ := Record(img, kernel.Config{Inputs: map[string][]byte{"stdin": patch}},
		Config{IntervalLength: 256, Cache: tinyCache(), LogCodeLoads: true})
	if res.Crash == nil {
		t.Fatal("the patch program did not crash")
	}
	build := func() *ReplayMachine {
		r := NewReplayer(img, rep.FLLs[0])
		r.LogCodeLoads = true
		r.TraceDepth = 8
		return r.Machine(MachineOptions{TrackKnown: true})
	}
	m, ref := build(), build()
	slot := img.MustSymbol("slot")
	mustStep(t, m, 20)
	snap := m.Snapshot()
	mustStep(t, m, 300)
	if w, _ := m.ReadWord(slot); w == original {
		t.Fatal("vacuous: the loop is not patched 320 instructions in")
	}
	flushes := m.st.c.BlockFlushes()
	m.Restore(snap)
	if m.st.c.BlockFlushes() == flushes {
		t.Error("restoring to before the patch kept the blocks decoded from the patched page")
	}
	mustStep(t, m, 100)
	if w, _ := m.ReadWord(slot); w != original {
		t.Fatalf("the restored loop holds %#x; want the original %#x", w, original)
	}
	if r := m.Registers().Regs; r[isa.RegT0] != r[isa.RegS1] {
		t.Fatalf("t0 = %d after %d laps: the restored loop ran the patched instruction", r[isa.RegT0], r[isa.RegS1])
	}
	mustStep(t, ref, 120)
	sameState(t, m, ref)
}

// TestRestoreAllocatesNothing: a warmed machine restores a checkpoint and
// re-executes within one interval without allocating — memory pages, known
// bitmaps, dictionary, log reader and trace ring all come back in the
// machine's own storage, and no block is decoded again. The race detector
// allocates on the program's behalf, so the test skips under it.
func TestRestoreAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	img, logs := restoreWindow(t, 10_000)
	for _, known := range []bool{true, false} {
		r := NewReplayer(img, logs)
		r.TraceDepth = 8
		m := r.Machine(MachineOptions{TrackKnown: known})
		mustStep(t, m, 2_000)
		snap := m.Snapshot()
		run := func() {
			m.Restore(snap)
			mustStep(t, m, 3_000)
		}
		run()
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("known set %v: a restore and 3,000 steps allocated %.0f times; want 0", known, got)
		}
	}
}
