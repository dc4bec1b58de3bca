package timetravel

import (
	"fmt"
	"math"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/kernel"
	"bugnet/internal/workload"
)

// benchWindow records a clean-exit loop workload of roughly `instrs`
// replayed instructions and returns its report and image.
func benchWindow(b *testing.B, instrs uint64) (*core.CrashReport, *asm.Image) {
	b.Helper()
	iters := instrs / 8 // 8 instructions per loop body
	src := fmt.Sprintf(`
        .data
buf:    .space 64
        .text
main:   li   s0, %d
        la   s1, buf
loop:   andi t0, s0, 15
        slli t0, t0, 2
        add  t0, s1, t0
        lw   t1, (t0)
        add  t1, t1, s0
        sw   t1, (t0)
        addi s0, s0, -1
        bnez s0, loop
        li   a0, 0
        li   a7, 1
        syscall
`, iters)
	img := asm.MustAssemble("bench.s", src)
	res, rep, _ := core.Record(img, kernel.Config{},
		core.Config{IntervalLength: 10_000, Cache: tinyCache()})
	if res.Crash != nil {
		b.Fatalf("bench workload crashed: %v", res.Crash)
	}
	return rep, img
}

// engineAtEnd builds an engine, runs it to the window end (populating the
// checkpoint set), and returns it.
func engineAtEnd(b *testing.B, rep *core.CrashReport, img *asm.Image) *Engine {
	b.Helper()
	eng, _, err := openFilled(img, rep, -1, Config{CheckpointEvery: 1000})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Continue(); err != nil {
		b.Fatal(err)
	}
	return eng
}

// specWindow records `steps` instructions of a SPEC analogue past its
// initialization phase, the way a deployed recorder would have been
// running when the program crashed.
func specWindow(b testing.TB, name string, steps, interval uint64) (*core.CrashReport, *asm.Image) {
	b.Helper()
	w := workload.ByName(name)
	m := w.Machine(w.Warmup, nil)
	m.Run()
	rec := core.NewRecorder(m, core.Config{IntervalLength: interval})
	m.SetMaxSteps(w.Warmup + steps)
	m.Run()
	rec.Flush()
	if err := rec.Err(); err != nil {
		b.Fatal(err)
	}
	return rec.Report(), w.Image
}

// openWindows are the two shapes a developer's open-to-crash takes: a
// 2 M-instruction pointer-chasing window whose every load is a first load
// (211 grid checkpoints that overflowed the 64 MB budget while each was
// charged its whole image), and a short window of 10 K intervals the
// budget never binds on.
var openWindows = []struct {
	name, prog      string
	steps, interval uint64
}{
	{"mcf_over_budget", "mcf", 2_100_000, 100_000},
	{"gzip_10k", "gzip", 1_330_000, 10_000},
}

// BenchmarkOpenToCrash measures opening a window and continuing to its
// end under the default configuration, checkpoints included: whole_window
// replays every interval and lays the grid over all of them, as every open
// did before the engine opened on the tail; tail is the open a developer
// gets, the last interval with its anchor and the last grid checkpoint
// before the crash; then_seek_start adds the SeekTo(0) that fills in the
// older history, the cost the tail defers; then_reverse_step adds a
// ReverseStep(1), which re-executes from that grid checkpoint; and
// then_reverse_far a ReverseStep(K+1), which goes below it and re-executes
// the tail from its anchor, laying the grid the open did not, the cost
// the open defers. reexec-instrs/op counts what the motion after the
// Continue re-executed.
func BenchmarkOpenToCrash(b *testing.B) {
	for _, w := range openWindows {
		b.Run(w.name, func(b *testing.B) {
			rep, img := specWindow(b, w.prog, w.steps, w.interval)
			for _, mode := range []string{"whole_window", "tail", "then_seek_start", "then_reverse_step", "then_reverse_far"} {
				b.Run(mode, func(b *testing.B) {
					open := NewEngineForThread
					if mode == "whole_window" {
						open = openFilled
					}
					b.ReportAllocs()
					b.ResetTimer()
					var count int
					var bytes int64
					var reexecuted uint64
					for i := 0; i < b.N; i++ {
						eng, _, err := open(img, rep, -1, Config{})
						if err != nil {
							b.Fatal(err)
						}
						if _, err := eng.Continue(); err != nil {
							b.Fatal(err)
						}
						before := eng.reexecuted
						switch mode {
						case "then_seek_start":
							err = eng.SeekTo(0)
						case "then_reverse_step":
							_, err = eng.ReverseStep(1)
						case "then_reverse_far":
							_, err = eng.ReverseStep(eng.cfg.CheckpointEvery + 1)
						}
						if err != nil {
							b.Fatal(err)
						}
						reexecuted += eng.reexecuted - before
						count, bytes = eng.Checkpoints()
					}
					b.ReportMetric(float64(count), "ckpts")
					b.ReportMetric(float64(bytes)/(1<<20), "ckpt-MB")
					b.ReportMetric(float64(reexecuted)/float64(b.N), "reexec-instrs/op")
				})
			}
		})
	}
}

// BenchmarkReverseStep measures one backward step at the end of windows of
// growing length. With checkpoints the cost is bounded by CheckpointEvery
// — the ns/op must stay near-constant as the window quadruples — where the
// re-execute-from-zero baseline below grows linearly. The rest run on the
// mcf window above: over_budget steps back from seeded positions, timing
// the step alone, which restores the near checkpoint its untimed seek
// left; seek_then_step times the pair, so the re-execution the seek took
// over from the step shows; consecutive steps back from the window end one
// instruction at a time, K/δ + δ/2 instructions re-executed a step.
func BenchmarkReverseStep(b *testing.B) {
	for _, timeSeek := range []bool{false, true} {
		name := "over_budget"
		if timeSeek {
			name = "seek_then_step"
		}
		b.Run(name, func(b *testing.B) {
			eng := mcfEngine(b)
			window := eng.Window()
			next := uint64(12345)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next = next*6364136223846793005 + 1442695040888963407
				if !timeSeek {
					b.StopTimer()
				}
				if err := eng.SeekTo(1 + next%window); err != nil {
					b.Fatal(err)
				}
				if !timeSeek {
					b.StartTimer()
				}
				if _, err := eng.ReverseStep(1); err != nil {
					b.Fatal(err)
				}
			}
			count, _ := eng.Checkpoints()
			b.ReportMetric(float64(count), "ckpts")
		})
	}
	b.Run("consecutive", func(b *testing.B) {
		eng := mcfEngine(b)
		var reexecuted uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if eng.Pos() == 0 {
				b.StopTimer()
				if err := eng.SeekTo(eng.Window()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			before := eng.reexecuted
			if _, err := eng.ReverseStep(1); err != nil {
				b.Fatal(err)
			}
			reexecuted += eng.reexecuted - before
		}
		b.ReportMetric(float64(reexecuted)/float64(b.N), "reexec-instrs/op")
	})
	for _, window := range []uint64{40_000, 80_000, 160_000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			rep, img := benchWindow(b, window)
			eng := engineAtEnd(b, rep, img)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.ReverseStep(1); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Step(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeek measures random absolute seeks across a warmed window:
// restore nearest checkpoint + at most CheckpointEvery forward steps. No
// reverse step follows them, so after the first they plant no near
// checkpoint; on the mcf window that is what the seek costs a developer
// who jumps about without stepping backward.
func BenchmarkSeek(b *testing.B) {
	seeks := func(b *testing.B, eng *Engine) {
		window := eng.Window()
		// A fixed pseudo-random walk, independent of b.N splits.
		next := uint64(12345)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next = next*6364136223846793005 + 1442695040888963407
			if err := eng.SeekTo(next % (window + 1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("window=160000", func(b *testing.B) {
		rep, img := benchWindow(b, 160_000)
		seeks(b, engineAtEnd(b, rep, img))
	})
	b.Run("mcf", func(b *testing.B) {
		seeks(b, mcfEngine(b))
	})
}

// BenchmarkContinue measures a Continue from the start of the warmed mcf
// window to its end: plain, and with one breakpoint no instruction
// reaches, which the block engine checks once a block and which keeps the
// fetch hook on to fill the backtrace.
func BenchmarkContinue(b *testing.B) {
	for _, name := range []string{"plain", "break_nohit"} {
		b.Run(name, func(b *testing.B) {
			eng := mcfEngine(b)
			if name == "break_nohit" {
				eng.AddBreak(math.MaxUint32 &^ 3) // no guest code lives there
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := eng.SeekTo(0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if why, err := eng.Continue(); err != nil || why != StopEnd {
					b.Fatalf("continue: %v, %v", why, err)
				}
			}
		})
	}
}

// BenchmarkReverseContinue/nohit measures a ReverseContinue from the end
// of the warmed mcf window with one breakpoint no instruction reaches: the
// scan re-executes every gap, GOMAXPROCS at a time, and lands on the start.
func BenchmarkReverseContinue(b *testing.B) {
	b.Run("nohit", func(b *testing.B) {
		eng := mcfEngine(b)
		eng.AddBreak(math.MaxUint32 &^ 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := eng.SeekTo(eng.Window()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if why, err := eng.ReverseContinue(); err != nil || why != StopStart {
				b.Fatalf("reverse-continue: %v, %v", why, err)
			}
		}
	})
}

// mcfEngine opens the mcf window of openWindows under the default
// configuration and continues to its end, laying the grid over the whole
// window.
func mcfEngine(b *testing.B) *Engine {
	w := openWindows[0]
	rep, img := specWindow(b, w.prog, w.steps, w.interval)
	eng, _, err := openFilled(img, rep, -1, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Continue(); err != nil {
		b.Fatal(err)
	}
	return eng
}
