package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/kernel"
	"bugnet/internal/mem"
)

// knownParityProgram walks a buffer that spans a page boundary with
// word, halfword and byte accesses (partial words exercise the
// read-modify-write loggable path), so the known-memory set collects
// page-interior, page-crossing and partial-word addresses.
const knownParityProgram = `
        .data
buf:    .space 8192
        .text
main:   la   s0, buf
        li   s1, 60          # iterations (60 × 128 B stays inside buf)
        li   s2, 0
loop:   slli t0, s2, 7       # stride 128 bytes across the buffer
        add  t1, s0, t0
        lw   t2, (t1)        # word load
        addi t2, t2, 3
        sw   t2, (t1)        # word store
        lh   t3, 4(t1)       # half load
        sh   t3, 6(t1)       # half store (partial-word RMW)
        lb   t4, 9(t1)       # byte load
        sb   t4, 11(t1)      # byte store (partial-word RMW)
        addi s2, s2, 1
        blt  s2, s1, loop
        li   a0, 0
        li   a7, 1
        syscall
`

// refKnown maintains the §7.1 semantics the pre-refactor map implemented
// directly: every loggable operation and word store marks its word.
type refKnown map[uint32]bool

func (r refKnown) sorted() []uint32 {
	out := make([]uint32, 0, len(r))
	for a := range r {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mustEqualKnown compares a machine's bitmap-backed view against the
// reference map: the word list, point probes, and ReadWord agreement.
func mustEqualKnown(t *testing.T, m *ReplayMachine, ref refKnown, label string) {
	t.Helper()
	want := ref.sorted()
	got := m.KnownWords()
	if len(got) != len(want) {
		t.Fatalf("%s: %d known words, reference map has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: known word %d = %#x, reference %#x", label, i, got[i], want[i])
		}
	}
	for _, a := range want {
		if !m.Known(a) || !m.Known(a+3) {
			t.Fatalf("%s: Known(%#x) lost a word the map has", label, a)
		}
		if _, known := m.ReadWord(a); !known {
			t.Fatalf("%s: ReadWord(%#x) unknown for a touched word", label, a)
		}
	}
	// Probe around the set: neighbors of known words must not leak in.
	for _, a := range want {
		for _, probe := range []uint32{a - 4, a + 4} {
			if m.Known(probe) != ref[probe&^3] {
				t.Fatalf("%s: Known(%#x) = %v, reference %v", label, probe, m.Known(probe), ref[probe&^3])
			}
		}
	}
}

// TestKnownTrackingParityST replays a page-crossing, partial-word
// workload while a reference map shadows the access hook, checking
// bitmap-vs-map parity continuously, across Reset, and across random
// Snapshot/Restore round trips.
func TestKnownTrackingParityST(t *testing.T) {
	img := asm.MustAssemble("kp.s", knownParityProgram)
	res, rep, _ := Record(img, kernel.Config{}, Config{IntervalLength: 64, Cache: tinyCache()})
	if res.Crash != nil {
		t.Fatalf("unexpected crash: %v", res.Crash)
	}
	logs := rep.FLLs[0]
	if len(logs) < 3 {
		t.Fatalf("want several intervals, got %d", len(logs))
	}

	ref := refKnown{}
	r := NewReplayer(img, logs)
	r.OnAccess = func(_ uint32, wordAddr uint32, _ bool) { ref[wordAddr] = true }
	// The machine chains the user hook after its own insert, so ref and
	// the bitmap advance in lockstep.
	m := r.Machine(MachineOptions{TrackKnown: true})

	rng := rand.New(rand.NewSource(7))
	type snap struct {
		s   *ReplaySnapshot
		ref refKnown
	}
	var snaps []snap
	for !m.Done() {
		if err := m.StepOne(); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(40) == 0 {
			mustEqualKnown(t, m, ref, "mid-replay")
			cp := refKnown{}
			for a := range ref {
				cp[a] = true
			}
			snaps = append(snaps, snap{s: m.Snapshot(), ref: cp})
		}
	}
	mustEqualKnown(t, m, ref, "end of window")
	if len(snaps) == 0 {
		t.Fatal("no snapshots taken; widen the sampling")
	}

	// Restoring each snapshot must reproduce exactly the set captured at
	// snapshot time — not the end-of-window superset.
	for _, sn := range snaps {
		m.Restore(sn.s)
		ref = refKnown{}
		for a := range sn.ref {
			ref[a] = true
		}
		mustEqualKnown(t, m, ref, "restored snapshot")
	}

	// Replay forward from the last restore point, shadowing again: the
	// bitmap must stay in lockstep after a restore as well.
	last := snaps[len(snaps)-1]
	m.Restore(last.s)
	ref = refKnown{}
	for a := range last.ref {
		ref[a] = true
	}
	for !m.Done() {
		if err := m.StepOne(); err != nil {
			t.Fatal(err)
		}
	}
	mustEqualKnown(t, m, ref, "re-run after restore")

	// Reset clears everything and re-derives from scratch.
	m.Reset()
	if len(m.KnownWords()) != 0 {
		t.Fatal("Reset left known words")
	}
	ref = refKnown{}
	for !m.Done() {
		if err := m.StepOne(); err != nil {
			t.Fatal(err)
		}
	}
	mustEqualKnown(t, m, ref, "after Reset")
}

// TestKnownTrackingParityMT: under the multithreaded replayer, each
// thread's known set must equal the set an independent single-thread
// replay of the same logs produces (FLLs are self-contained, §4.6), and
// the MT result must carry them when TrackKnown is set.
func TestKnownTrackingParityMT(t *testing.T) {
	_, rep, _, img := recordMT(t, lockedCounterProgram, 2,
		Config{IntervalLength: 2_000, Cache: tinyCache()})

	mr := NewMultiReplayer(img, rep)
	mr.TrackKnown = true
	out, err := mr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Known == nil {
		t.Fatal("TrackKnown set but result carries no known sets")
	}
	for tid, logs := range rep.FLLs {
		st := NewReplayer(img, logs).Machine(MachineOptions{TrackKnown: true})
		for !st.Done() {
			if err := st.StepOne(); err != nil {
				t.Fatalf("thread %d ST replay: %v", tid, err)
			}
		}
		want := st.KnownWords()
		got := out.Known[tid]
		if len(got) != len(want) {
			t.Fatalf("thread %d: MT known %d words, ST known %d", tid, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("thread %d: known word %d = %#x, ST has %#x", tid, i, got[i], want[i])
			}
		}
		if len(want) == 0 {
			t.Fatalf("thread %d: empty known set (test exercises nothing)", tid)
		}
	}

	// Without the option the hot path stays clean: no known sets.
	mr2 := NewMultiReplayer(img, rep)
	out2, err := mr2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out2.Known != nil {
		t.Fatal("known sets populated without TrackKnown")
	}
}

// TestKnownSnapshotCodecOverReplay: a real replay's known words, ascending
// and unique, rebuild a known set that lists the same words (the set's
// word form stays in sync with live bitmaps, not just synthetic ones).
func TestKnownSnapshotCodecOverReplay(t *testing.T) {
	img := asm.MustAssemble("kp2.s", knownParityProgram)
	_, rep, _ := Record(img, kernel.Config{}, Config{Cache: tinyCache()})
	m := NewReplayer(img, rep.FLLs[0]).Machine(MachineOptions{TrackKnown: true})
	for !m.Done() {
		if err := m.StepOne(); err != nil {
			t.Fatal(err)
		}
	}
	words := m.KnownWords()
	k := mem.NewKnownSet()
	for _, a := range words {
		k.Add(a)
	}
	if got := k.Words(); !slices.Equal(got, words) {
		t.Fatalf("rebuilt set lists %d words, replay knew %d (or they differ)", len(got), len(words))
	}
}
