package core

import (
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/kernel"
)

// debugProgram: a crash with an identifiable history — i counts up, each
// value is stored to a slot, the crash dereferences a corrupted pointer.
const debugProgram = `
        .data
slots:  .space 64
ptr:    .word 0
        .text
main:   li   s0, 0
        la   s1, slots
fill:   slli t0, s0, 2
        add  t0, s1, t0
mark:   sw   s0, (t0)
        addi s0, s0, 1
        li   t1, 16
        blt  s0, t1, fill
        la   t2, ptr
        lw   t3, (t2)
boom:   lw   a0, (t3)
`

// machineOver records debugProgram and returns a tracking machine over the
// crashing thread's logs.
func machineOver(t *testing.T, traceDepth int) (*ReplayMachine, *asm.Image) {
	t.Helper()
	img := asm.MustAssemble("rm.s", debugProgram)
	res, rep, _ := Record(img, kernel.Config{}, Config{Cache: tinyCache()})
	if res.Crash == nil {
		t.Fatal("program did not crash")
	}
	r := NewReplayer(img, rep.FLLs[0])
	r.TraceDepth = traceDepth
	return r.Machine(MachineOptions{TrackKnown: true}), img
}

func stepTo(t *testing.T, m *ReplayMachine, pos uint64) {
	t.Helper()
	for m.Pos() < pos && !m.Done() {
		if err := m.StepOne(); err != nil {
			t.Fatalf("step at %d: %v", m.Pos(), err)
		}
	}
}

// sameState fatals unless a and b are at identical replay states:
// position, registers, and the full known-memory image.
func sameState(t *testing.T, a, b *ReplayMachine) {
	t.Helper()
	if a.Pos() != b.Pos() {
		t.Fatalf("pos %d != %d", a.Pos(), b.Pos())
	}
	if a.Registers() != b.Registers() {
		t.Fatalf("registers differ at pos %d:\n%+v\n%+v", a.Pos(), a.Registers(), b.Registers())
	}
	ka, kb := a.KnownWords(), b.KnownWords()
	if len(ka) != len(kb) {
		t.Fatalf("known sets differ: %d vs %d words", len(ka), len(kb))
	}
	for i, addr := range ka {
		if kb[i] != addr {
			t.Fatalf("known set differs at index %d: %#x vs %#x", i, addr, kb[i])
		}
		va, oka := a.ReadWord(addr)
		vb, okb := b.ReadWord(addr)
		if va != vb || oka != okb {
			t.Fatalf("word %#x: %#x/%v vs %#x/%v", addr, va, oka, vb, okb)
		}
	}
}

func TestReplayMachineSnapshotRestore(t *testing.T) {
	m, img := machineOver(t, 8)
	ref, _ := machineOver(t, 8)

	stepTo(t, m, 10)
	snap := m.Snapshot()
	if snap.Pos() != 10 {
		t.Fatalf("snapshot pos = %d", snap.Pos())
	}
	if snap.SizeBytes() <= 0 {
		t.Fatal("snapshot size must be positive")
	}

	// Run ahead, restore, and the machine must be back at the snapshot.
	stepTo(t, m, m.Window())
	if !m.Done() {
		t.Fatal("window not exhausted")
	}
	m.Restore(snap)
	stepTo(t, ref, 10)
	sameState(t, m, ref)

	// Re-execution from the restored state reaches the same end state as
	// an uninterrupted forward replay — including the trace ring.
	stepTo(t, m, m.Window())
	stepTo(t, ref, ref.Window())
	sameState(t, m, ref)
	ta, tb := m.Trace(), ref.Trace()
	if len(ta) != len(tb) {
		t.Fatalf("trace lengths differ: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("trace entry %d differs: %+v vs %+v", i, ta[i], tb[i])
		}
	}

	// Snapshots are immutable: restoring the same snapshot twice lands on
	// the same state again.
	m.Restore(snap)
	if m.Pos() != 10 || m.PC() == 0 {
		t.Fatalf("second restore: pos=%d pc=%#x", m.Pos(), m.PC())
	}
	_ = img
}

// TestReplayMachineRelease: a released machine holds nothing of the
// snapshot it restored — no page, no known word, no interval reader — and
// afterwards restores and replays like a fresh one.
func TestReplayMachineRelease(t *testing.T) {
	m, _ := machineOver(t, 8)
	scan, _ := machineOver(t, 8)
	ref, _ := machineOver(t, 8)
	stepTo(t, m, 10)
	snap := m.Snapshot()
	scan.Restore(snap)
	stepTo(t, scan, scan.Window())
	scan.Release()
	if st := scan.st; st.mem.MappedPages() != 0 || st.known.Len() != 0 || st.reader != nil || st.d != nil {
		t.Fatalf("released machine holds %d pages, %d known words, reader %v",
			st.mem.MappedPages(), st.known.Len(), st.reader != nil)
	}
	scan.Restore(snap)
	stepTo(t, ref, 10)
	sameState(t, scan, ref)
	stepTo(t, scan, scan.Window())
	stepTo(t, ref, ref.Window())
	sameState(t, scan, ref)
}

func TestReplayMachineRestoreMidIntervalCursor(t *testing.T) {
	// Small intervals force snapshots to land mid-interval with live
	// dictionary and reader cursors; a restore that mishandled them would
	// diverge on the very next injected load.
	img := asm.MustAssemble("rm2.s", debugProgram)
	res, rep, _ := Record(img, kernel.Config{}, Config{IntervalLength: 7, Cache: tinyCache()})
	if res.Crash == nil {
		t.Fatal("no crash")
	}
	build := func() *ReplayMachine {
		return NewReplayer(img, rep.FLLs[0]).Machine(MachineOptions{TrackKnown: true})
	}
	m, ref := build(), build()
	for p := uint64(3); p < m.Window(); p += 5 {
		snap := func() *ReplaySnapshot {
			stepTo(t, m, p)
			return m.Snapshot()
		}()
		stepTo(t, m, m.Window())
		m.Restore(snap)
		stepTo(t, m, m.Window()) // must replay cleanly to the end
		if ref.Pos() > p {
			ref = build()
		}
		stepTo(t, ref, ref.Window())
		sameState(t, m, ref)
		m.Restore(snap)
	}
}

// TestStepAllocatesNothing: on a warmed machine with nothing due — no
// interval to open, no block to decode — stepping allocates nothing, with
// the fetch hook switched off and on around an untraced stretch or left on.
// A hook bound per call (a method value evaluated each time) allocates.
func TestStepAllocatesNothing(t *testing.T) {
	img := asm.MustAssemble("cl.s", codeLoadProgram)
	_, rep, _ := Record(img, kernel.Config{}, Config{IntervalLength: 100_000})
	r := NewReplayer(img, rep.FLLs[0])
	r.TraceDepth = 16
	m := r.Machine(MachineOptions{TrackKnown: true})
	stepTo(t, m, 200)
	step := func() {
		if err := m.StepOne(); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("StepOne allocated %.1f times a call", got)
	}
	stretch := func() {
		if _, err := m.StepN(40); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, stretch); got != 0 {
		t.Errorf("StepN over an untraced stretch allocated %.1f times a call", got)
	}
	if m.Done() {
		t.Fatal("vacuous: the window ran out during the measurement")
	}
}
