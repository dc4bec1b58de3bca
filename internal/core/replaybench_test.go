package core_test

import (
	"testing"

	"bugnet/internal/core"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
	"bugnet/internal/workload"
)

// dictFeeds counts, over logs, the loggable operations and those that
// update the dictionary in replay: every operation before the interval's
// last rank entry is injected, none from there on.
func dictFeeds(tb testing.TB, logs []*fll.Ref) (ops, fed uint64) {
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
		pos, last := uint64(0), uint64(0)
		for _, e := range entries {
			pos += e.Skip
			if e.FromDict {
				last = pos
			}
			pos++
		}
		ops += l.Ops
		fed += last
	}
	return ops, fed
}

// BenchmarkReplayWindow times sequential replay of the window the
// benchmark's workloads retain: 8 M instructions recorded past each
// analogue's warm-up into a log budget that keeps the last 1–2 M — mcf as
// replay_debug records it, crafty as record_sparse, gzip at 10 K-instruction
// intervals as fleet_triage. Beside ns/instr it reports the share of
// loggable operations that update the dictionary: paper-fed/op under the
// paper's every-load rule, fed/op under the reader's stop after an
// interval's last rank, both counted from the logs.
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
			ops, fed := dictFeeds(b, logs)
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
			b.ReportMetric(float64(fed)/float64(ops), "fed/op")
		})
	}
}
