package timetravel

import (
	"fmt"
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
	eng, _, err := NewEngineForThread(img, rep, -1, Config{CheckpointEvery: 1000})
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
// end under the default configuration, checkpoints included.
func BenchmarkOpenToCrash(b *testing.B) {
	for _, w := range openWindows {
		b.Run(w.name, func(b *testing.B) {
			rep, img := specWindow(b, w.prog, w.steps, w.interval)
			b.ReportAllocs()
			b.ResetTimer()
			var count int
			var bytes int64
			for i := 0; i < b.N; i++ {
				eng, _, err := NewEngineForThread(img, rep, -1, Config{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Continue(); err != nil {
					b.Fatal(err)
				}
				count, bytes = eng.Checkpoints()
			}
			b.ReportMetric(float64(count), "ckpts")
			b.ReportMetric(float64(bytes)/(1<<20), "ckpt-MB")
		})
	}
}

// BenchmarkReverseStep measures one backward step at the end of windows of
// growing length. With checkpoints the cost is bounded by CheckpointEvery
// — the ns/op must stay near-constant as the window quadruples — where the
// re-execute-from-zero baseline below grows linearly. over_budget steps
// back from seeded positions across the mcf window above, where the cost
// is the widest gap eviction left.
func BenchmarkReverseStep(b *testing.B) {
	b.Run("over_budget", func(b *testing.B) {
		w := openWindows[0]
		rep, img := specWindow(b, w.prog, w.steps, w.interval)
		eng, _, err := NewEngineForThread(img, rep, -1, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Continue(); err != nil {
			b.Fatal(err)
		}
		window := eng.Window()
		next := uint64(12345)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next = next*6364136223846793005 + 1442695040888963407
			b.StopTimer()
			if err := eng.SeekTo(1 + next%window); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := eng.ReverseStep(1); err != nil {
				b.Fatal(err)
			}
		}
		count, _ := eng.Checkpoints()
		b.ReportMetric(float64(count), "ckpts")
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
// restore nearest checkpoint + at most CheckpointEvery forward steps.
func BenchmarkSeek(b *testing.B) {
	rep, img := benchWindow(b, 160_000)
	eng := engineAtEnd(b, rep, img)
	window := eng.Window()
	// A fixed pseudo-random walk, independent of b.N splits.
	next := uint64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next = next*6364136223846793005 + 1442695040888963407
		if err := eng.SeekTo(next % (window + 1)); err != nil {
			b.Fatal(err)
		}
	}
}
