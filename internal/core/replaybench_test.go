package core_test

import (
	"testing"

	"bugnet/internal/core"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
	"bugnet/internal/workload"
)

// opCounts are counts over a replay's loggable operations, derived from
// its logs alone.
type opCounts struct {
	ops    uint64 // loggable operations
	fed    uint64 // that update the dictionary
	hooked uint64 // that reach the replay hook on a machine that counts L-Counts down
	reads  uint64 // whose hook reads replay memory
}

// countOps counts, over logs, what replay does with each loggable
// operation. Every operation before the interval's last rank entry is
// injected updates the dictionary, none from there on. Up to and including
// that rank's operation each one reaches the hook, and the ones no entry
// logged read memory to feed the table; after it the core counts each
// L-Count down, and only the operations the entries log reach the hook.
// An interval without ranks hooks only its entries' operations.
func countOps(tb testing.TB, logs []*fll.Ref) (c opCounts) {
	for _, ref := range logs {
		l, err := ref.Open()
		if err != nil {
			tb.Fatal(err)
		}
		entries, err := l.DumpEntries(0)
		if err != nil {
			tb.Fatal(err)
		}
		// pos is the operation entry e is injected at; the last rank's
		// operation is the first that no longer updates the table.
		pos, last, lastIdx := uint64(0), uint64(0), -1
		for i, e := range entries {
			pos += e.Skip
			if e.FromDict {
				last, lastIdx = pos, i
			}
			pos++
		}
		c.ops += l.Ops
		c.fed += last
		c.hooked += uint64(len(entries))
		if lastIdx >= 0 {
			// Up to the last rank every operation is hooked, not only the
			// lastIdx+1 entries' ones.
			c.hooked += last - uint64(lastIdx)
			c.reads += last - uint64(lastIdx)
		}
	}
	return c
}

// BenchmarkReplayWindow times sequential replay of the window the
// benchmark's workloads retain: 8 M instructions recorded past each
// analogue's warm-up into a log budget that keeps the last 1–2 M — mcf as
// replay_debug records it, crafty as record_sparse, gzip at 10 K-instruction
// intervals as fleet_triage. Beside ns/instr it reports shares of the
// loggable operations, all counted from the logs (see countOps): those
// that update the dictionary, paper-fed/op under the paper's every-load
// rule and fed/op under the reader's stop after an interval's last rank;
// hooked/op, those that reach the replay hook; and reads/op, those whose
// hook reads replay memory.
func BenchmarkReplayWindow(b *testing.B) {
	for _, c := range []struct {
		name     string
		interval uint64
		budget   int64
	}{{"mcf", 100_000, 2560 << 10}, {"crafty", 100_000, 512 << 10}, {"gzip", 10_000, 512 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			w := workload.ByName(c.name)
			kcfg := w.Kernel
			kcfg.MaxSteps = w.Warmup
			m := kernel.New(w.Image, kcfg, nil)
			m.Run()
			rec := core.NewRecorder(m, core.Config{IntervalLength: c.interval, FLLBudget: c.budget, MRLBudget: 512 << 10})
			m.SetMaxSteps(w.Warmup + 8_000_000)
			m.Run()
			rec.Flush()
			if err := rec.Err(); err != nil {
				b.Fatal(err)
			}
			archive, err := report.Pack(rec.Report())
			if err != nil {
				b.Fatal(err)
			}
			rep, err := report.Unpack(archive)
			if err != nil {
				b.Fatal(err)
			}
			logs := rep.FLLs[0]
			c := countOps(b, logs)
			var instr uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.NewReplayer(w.Image, logs).Run()
				if err != nil {
					b.Fatal(err)
				}
				instr += res.Instructions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
			b.ReportMetric(1, "paper-fed/op")
			b.ReportMetric(float64(c.fed)/float64(c.ops), "fed/op")
			b.ReportMetric(float64(c.hooked)/float64(c.ops), "hooked/op")
			b.ReportMetric(float64(c.reads)/float64(c.ops), "reads/op")
		})
	}
}
