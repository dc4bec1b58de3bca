package parreplay

import (
	"testing"

	"bugnet/internal/core"
	"bugnet/internal/workload"
)

// BenchmarkUnitOverhead quantifies the fan-out tax: the same recorded
// window replayed as one sequential pass vs as per-interval units on a
// single-worker pool. The delta is pure executor overhead — per unit: the
// worker's memory emptied and the image's text mapped into it again, the
// block cache flushed and the unit's text decoded again, a reader, the
// merge — the term that bounds the parallel speedup. B/op is what the
// worker's machine saves: 1.8 MB a pass when every unit built its own,
// 0.3 MB now.
func BenchmarkUnitOverhead(b *testing.B) {
	w := workload.ByName("gzip")
	const window = 320_000
	m := w.Machine(w.Warmup, nil)
	m.Run()
	rec := core.NewRecorder(m, core.Config{IntervalLength: 20_000})
	m.SetMaxSteps(w.Warmup + window)
	m.Run()
	rec.Flush()
	if err := rec.Err(); err != nil {
		b.Fatal(err)
	}
	logs := rec.Report().FLLs[0]
	b.Logf("%d intervals", len(logs))

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewReplayer(w.Image, logs).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("units-1worker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReplayThread(w.Image, logs, Options{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
