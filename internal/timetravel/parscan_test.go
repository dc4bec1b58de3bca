package timetravel

import (
	"reflect"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/kernel"
)

// parScanProgram gives the reverse scan a long multithreaded history:
// the worker increments a shared word a hundred times and then crashes,
// so thread 1's window holds many checkpoint gaps with both breakpoint
// and watchpoint stops scattered through them.
const parScanProgram = `
        .data
shared: .word 0
        .text
main:   la   a0, worker
        li   a7, 8
        syscall
mspin:  j    mspin           # main spins forever; worker crashes
worker: li   t0, 100
        la   t1, shared
wloop:  lw   t2, (t1)
        addi t2, t2, 1
wstore: sw   t2, (t1)
        addi t0, t0, -1
        bnez t0, wloop
boom:   lw   a0, (zero)
`

// stop is one observed ReverseContinue stop, captured for comparison.
type stop struct {
	reason StopReason
	pos    uint64
	pc     uint32
	regs   [32]uint32
	watch  *WatchHit
}

// reverseWalk seeks the engine to the end of its window and then
// reverse-continues all the way back to the start on the scan of the given
// width — the sequential gap walk at 1, the speculative parallel scan above
// it — recording every stop. It calls the scan directly, so each walk runs
// the path it names whatever GOMAXPROCS, the width ReverseContinue reads.
func reverseWalk(t *testing.T, e *Engine, width int) []stop {
	t.Helper()
	if err := e.SeekTo(e.Window()); err != nil {
		t.Fatal(err)
	}
	scan := e.reverseContinueSequential
	if width > 1 {
		scan = func() (StopReason, error) { return e.reverseContinueParallel(width) }
	}
	var stops []stop
	for {
		reason, err := scan()
		if err != nil {
			t.Fatalf("reverse-continue after %d stops: %v", len(stops), err)
		}
		stops = append(stops, stop{reason, e.Pos(), e.PC(), e.Registers().Regs, e.LastWatch()})
		if reason == StopStart {
			break
		}
		if len(stops) > 10_000 {
			t.Fatal("reverse walk does not terminate")
		}
	}
	if width > 1 && len(e.scanners) == 0 {
		t.Fatal("parallel walk never engaged the speculative scan")
	}
	for k, m := range e.scanners {
		// Released after every call: no scan machine keeps a restored
		// checkpoint's parts, its known-memory bitmaps included.
		if n := len(m.KnownWords()); n != 0 {
			t.Fatalf("scan machine %d still holds %d known words", k, n)
		}
	}
	return stops
}

// TestReverseContinueParallelParity is the determinism property of the
// speculative scan: for every stop of a full reverse walk — breakpoints,
// watchpoints, and the final window start — the parallel scan at widths 2
// and 8 lands on the same position, reason, registers, and watch
// transition as the sequential walk. Run under -race this also exercises
// the scan workers' concurrent execution over shared copy-on-write
// snapshots.
func TestReverseContinueParallelParity(t *testing.T) {
	stRep, stImg := recordCrash(t, corruptorProgram, 16)

	mtImg := asm.MustAssemble("parscan.s", parScanProgram)
	mtRes, mtRep, _ := core.Record(mtImg, kernel.Config{Cores: 2},
		core.Config{IntervalLength: 32, Cache: tinyCache()})
	if mtRes.Crash == nil || mtRes.Crash.TID != 1 {
		t.Fatalf("mt crash = %+v", mtRes.Crash)
	}

	cases := []struct {
		name  string
		rep   *core.CrashReport
		img   *asm.Image
		tid   int
		setup func(e *Engine, img *asm.Image)
	}{
		{"breakpoints", stRep, stImg, -1, func(e *Engine, img *asm.Image) {
			e.AddBreak(img.MustSymbol("store"))
		}},
		{"watchpoint", stRep, stImg, -1, func(e *Engine, img *asm.Image) {
			e.AddWatch(img.MustSymbol("ptr"))
		}},
		{"multithread-mixed", mtRep, mtImg, 1, func(e *Engine, img *asm.Image) {
			e.AddBreak(img.MustSymbol("wstore"))
			e.AddWatch(img.MustSymbol("shared"))
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walk := func(par int) []stop {
				e, _, err := NewEngineForThread(tc.img, tc.rep, tc.tid, Config{CheckpointEvery: 8})
				if err != nil {
					t.Fatal(err)
				}
				tc.setup(e, tc.img)
				return reverseWalk(t, e, par)
			}
			seq := walk(1)
			for _, par := range []int{2, 8} {
				got := walk(par)
				if !reflect.DeepEqual(got, seq) {
					t.Errorf("parallelism %d: %d stops vs %d sequential", par, len(got), len(seq))
					for i := 0; i < len(got) && i < len(seq); i++ {
						if !reflect.DeepEqual(got[i], seq[i]) {
							t.Errorf("first divergence at stop %d:\n par: %+v\n seq: %+v",
								i, got[i], seq[i])
							break
						}
					}
				}
			}
			if len(seq) < 2 {
				t.Fatalf("scenario too weak: only %d stops", len(seq))
			}
		})
	}
}

// TestReverseContinueParallelSparseCheckpoints pins the speculative scan
// against an eviction-thinned checkpoint grid: with the budget forcing
// everything but the anchor and the newest checkpoint out, the gap
// decomposition degenerates to one or two wide gaps and the parallel walk
// must still land exactly where the sequential one does.
func TestReverseContinueParallelSparseCheckpoints(t *testing.T) {
	rep, img := recordCrash(t, corruptorProgram, 16)
	walk := func(par int) []stop {
		e, _, err := NewEngineForThread(img, rep, -1, Config{CheckpointEvery: 4, CheckpointBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.AddBreak(img.MustSymbol("store"))
		e.AddWatch(img.MustSymbol("ptr"))
		return reverseWalk(t, e, par)
	}
	seq := walk(1)
	if got := walk(4); !reflect.DeepEqual(got, seq) {
		t.Errorf("sparse-grid parallel walk diverges:\n par: %+v\n seq: %+v", got, seq)
	}
}
