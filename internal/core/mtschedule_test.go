package core

// mtschedule_test.go holds the multithreaded replay to its one schedule's
// promise: what a replay reports is a function of the recording. Every
// thread replays from its own logs, and the race detector's report is the
// same under every interleaving the MRL constraints admit (racedetect.go
// gives the argument and where it stops), so the shipped schedule (each
// thread runs to its next gate) must agree with one instruction per turn
// and with random admitted interleavings.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/kernel"
	"bugnet/internal/workload"
)

// mtRecording is one multithreaded recording the schedules replay.
type mtRecording struct {
	name string
	img  *asm.Image
	rep  *CrashReport
}

// fanoutProgram: the main thread writes x with a plain store and raises
// one plain flag per reader; two readers, running the same code, each spin
// on their own flag and then read x. Each flag's first read after the raise
// draws a reply from the writer, so both reads of x follow the write in
// every admitted interleaving, but nothing orders the two readers against
// each other: the two instances of the one static race (write x, read x)
// reach the detector in either order.
const fanoutProgram = `
        .data
x:      .word 0
        .space 252
f1:     .word 0
        .space 252
f2:     .word 0
        .space 252
done:   .word 0
        .text
main:   la   a0, reader
        la   a1, f1
        li   a7, 8
        syscall
        la   a0, reader
        la   a1, f2
        li   a7, 8
        syscall
        li   t1, 1
        la   t0, x
        sw   t1, (t0)       # racy write
        la   t0, f1
        sw   t1, (t0)
        la   t0, f2
        sw   t1, (t0)
        la   t0, done
        li   t2, 2
mwait:  amoadd t1, zero, (t0)
        blt  t1, t2, mwait
        li   a0, 0
        li   a7, 1
        syscall

reader: lw   t0, (a0)       # a0: this reader's flag
        beqz t0, reader
        la   t0, x
        lw   t1, (t0)       # racy read
        la   t0, done
        li   t1, 1
        amoadd t2, t1, (t0)
        li   a0, 0
        li   a7, 1
        syscall
`

// lateReaderProgram: the main thread writes x with a plain store after a
// 300-instruction delay; two readers running different code read it about
// 60 and 70 instructions later. The first read draws an MRL reply from the
// writer, but the second finds the block already shared with the first
// reader and draws none, so nothing orders it against the write: the race
// between them reaches the detector with its sides in either order.
const lateReaderProgram = `
        .data
x:      .word 0
        .space 252
done:   .word 0
        .text
main:   la   a0, early
        li   a7, 8
        syscall
        la   a0, late
        li   a7, 8
        syscall
        li   t0, 150
mdelay: addi t0, t0, -1
        bnez t0, mdelay
        li   t1, 1
        la   t0, x
        sw   t1, (t0)       # racy write
        la   t0, done
        li   t2, 2
mwait:  amoadd t1, zero, (t0)
        blt  t1, t2, mwait
        li   a0, 0
        li   a7, 1
        syscall

early:  li   t0, 180
edelay: addi t0, t0, -1
        bnez t0, edelay
        la   t0, x
        lw   t1, (t0)       # racy read, ordered by an MRL reply
        j    leave

late:   li   t2, 0
        li   t3, 185
ldelay: addi t2, t2, 1
        blt  t2, t3, ldelay
        la   t0, x
        lw   t1, (t0)       # racy read, ordered by nothing
leave:  la   t0, done
        li   t1, 1
        amoadd t2, t1, (t0)
        li   a0, 0
        li   a7, 1
        syscall
`

// mtScheduleRecordings records the programs the schedule property covers:
// the hand-written race programs, the five multithreaded Table 1
// analogues, mtshare, and an mtshare window whose oldest checkpoints and
// MRLs a tight budget evicted.
func mtScheduleRecordings(t *testing.T) []mtRecording {
	t.Helper()
	var out []mtRecording
	for _, p := range []struct {
		name, src string
		cores     int
	}{
		{"racy", racyProgram, 2}, {"locked", lockedCounterProgram, 2}, {"fanout", fanoutProgram, 3},
		{"late-reader", lateReaderProgram, 3},
	} {
		_, rep, _, img := recordMT(t, p.src, p.cores, Config{IntervalLength: 1_000, Cache: tinyCache()})
		out = append(out, mtRecording{p.name, img, rep})
	}
	for _, b := range workload.Bugs(100) {
		if !b.Multithreaded {
			continue
		}
		kcfg := b.Kernel
		kcfg.MaxSteps = 10_000_000
		_, rep, _ := Record(b.Image, kcfg, Config{IntervalLength: 10_000})
		out = append(out, mtRecording{b.Name, b.Image, rep})
	}
	w := workload.MTShare()
	kcfg := w.Kernel
	kcfg.MaxSteps = 200_000
	_, rep, _ := Record(w.Image, kcfg, Config{IntervalLength: 5_000})
	out = append(out, mtRecording{"mtshare", w.Image, rep})

	// The window TestMTReplayWithEvictedWindow replays.
	kcfg.MaxSteps = 400_000
	m := kernel.New(w.Image, kcfg, nil)
	rec := NewRecorder(m, Config{
		IntervalLength: 2_000,
		Cache:          tinyCache(),
		FLLBudget:      60_000,
		MRLBudget:      20_000,
	})
	m.Run()
	rec.Flush()
	out = append(out, mtRecording{"mtshare-evicted", w.Image, rec.Report()})
	return out
}

// replayRaces replays rec with race detection, turn picking how far each
// ready thread runs (nil: the shipped schedule).
func replayRaces(t *testing.T, rec mtRecording, turn func(tid int, gate uint64) uint64) *MultiReplayResult {
	t.Helper()
	mr := NewMultiReplayer(rec.img, rec.rep)
	mr.DetectRaces = true
	mr.turn = turn
	out, err := mr.Run()
	if err != nil {
		t.Fatalf("%s: %v", rec.name, err)
	}
	return out
}

// stepped runs one instruction per turn, round robin: the schedule race
// detection used to force.
func stepped(int, uint64) uint64 { return 1 }

// randomTurns returns an admitted schedule drawn from seed: each turn runs
// the ready thread a random distance short of or up to its gate, most
// often a few instructions, so the threads interleave finely as well as
// in long runs.
func randomTurns(seed int64) func(int, uint64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	return func(_ int, gate uint64) uint64 {
		if rng.Intn(2) == 0 {
			gate = min(gate, 8)
		}
		return 1 + uint64(rng.Int63n(int64(gate)))
	}
}

// TestMTRaceReportIsScheduleInvariant replays each recording under the
// shipped schedule, one instruction per turn, and 20 seeded random
// admitted schedules. The per-thread results, the constraint counts and
// the race report must be equal under all of them.
func TestMTRaceReportIsScheduleInvariant(t *testing.T) {
	const seeds = 20
	for _, rec := range mtScheduleRecordings(t) {
		t.Run(rec.name, func(t *testing.T) {
			want := replayRaces(t, rec, nil)
			t.Logf("%d constraints, %d dropped, %d races", want.Constraints, want.DroppedConstraints, len(want.Races))
			check := func(schedule string, got *MultiReplayResult) {
				t.Helper()
				if !reflect.DeepEqual(got.Threads, want.Threads) {
					for tid, w := range want.Threads {
						t.Errorf("%s: thread %d: %+v, shipped schedule %+v", schedule, tid, got.Threads[tid], w)
					}
				}
				if got.Constraints != want.Constraints || got.DroppedConstraints != want.DroppedConstraints {
					t.Errorf("%s: constraints %d (%d dropped), shipped schedule %d (%d dropped)", schedule,
						got.Constraints, got.DroppedConstraints, want.Constraints, want.DroppedConstraints)
				}
				if !reflect.DeepEqual(got.Races, want.Races) {
					t.Errorf("%s: races\n%v\nshipped schedule\n%v", schedule, got.Races, want.Races)
				}
			}
			check("stepped", replayRaces(t, rec, stepped))
			for seed := int64(1); seed <= seeds; seed++ {
				check(fmt.Sprintf("seed %d", seed), replayRaces(t, rec, randomTurns(seed)))
			}
		})
	}
}

// TestMTRaceReplayIsBatched: race detection runs on the batched schedule.
// A turn that runs instructions runs its thread to the next constraint
// gate or the end of its window, so the turns that run any are at most
// one per constraint plus one per thread, not one per instruction.
func TestMTRaceReplayIsBatched(t *testing.T) {
	w := workload.MTShare()
	kcfg := w.Kernel
	kcfg.MaxSteps = 2_000_000
	_, rep, _ := Record(w.Image, kcfg, Config{IntervalLength: 10_000})
	turns := 0
	out := replayRaces(t, mtRecording{"mtshare", w.Image, rep}, func(_ int, gate uint64) uint64 {
		turns++
		return gate
	})
	var instrs uint64
	for _, tr := range out.Threads {
		instrs += tr.Instructions
	}
	if limit := out.Constraints + len(out.Threads); turns > limit {
		t.Errorf("%d turns ran instructions; want at most %d constraints + %d threads", turns, out.Constraints, len(out.Threads))
	}
	t.Logf("%d instructions in %d turns, %d constraints, %d races", instrs, turns, out.Constraints, len(out.Races))
}
