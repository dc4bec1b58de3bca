package fll_test

import (
	"maps"
	"math/bits"
	"slices"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu/cputest"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/workload"
)

// recordedLogs returns every FLL of rep, in thread and recording order.
func recordedLogs(tb testing.TB, rep *core.CrashReport) []*fll.Log {
	var logs []*fll.Log
	for tid := 0; tid < len(rep.FLLs); tid++ {
		for _, ref := range rep.FLLs[tid] {
			l, err := ref.Open()
			if err != nil {
				tb.Fatal(err)
			}
			logs = append(logs, l)
		}
	}
	return logs
}

// checkRankCounts holds the reader's trailer-derived rank count to the
// ranks each log's stream really holds, and returns how many there were.
func checkRankCounts(t *testing.T, what string, logs []*fll.Log) uint64 {
	t.Helper()
	total := uint64(0)
	for i, l := range logs {
		entries, err := l.DumpEntries(0)
		if err != nil {
			t.Fatalf("%s interval %d: %v", what, i, err)
		}
		ranks := uint64(0)
		for _, e := range entries {
			if e.FromDict {
				ranks++
			}
		}
		indexBits := uint(bits.TrailingZeros32(l.DictSize))
		if got := fll.RankCount(&l.Meta, indexBits); got != ranks {
			t.Fatalf("%s interval %d (dictionary %d): trailer gives %d ranks; the stream holds %d",
				what, i, l.DictSize, got, ranks)
		}
		total += ranks
	}
	return total
}

// TestTrailerCountsRanks: on every interval the recorder writes, the rank
// count Reader derives from the trailer counters is the number of rank
// entries in the stream: over the wire-pin recordings, programs from the
// cpu package's generator at every dictionary size with code-load logging
// on and off, and the SPEC analogues past their warm-up.
func TestTrailerCountsRanks(t *testing.T) {
	if got := checkRankCounts(t, "wire pins", seedLogs(t)); got == 0 {
		t.Error("the wire-pin recordings hold no rank entry")
	}

	var imgs []*asm.Image
	for _, name := range slices.Sorted(maps.Keys(cputest.TwinPrograms)) {
		imgs = append(imgs, asm.MustAssemble(name+".s", cputest.TwinPrograms[name]))
	}
	for _, seed := range cputest.FuzzSeeds() {
		imgs = append(imgs, cputest.FuzzImage(cputest.FuzzWords(seed)))
	}
	generated := uint64(0)
	for dictLog := 1; dictLog <= 16; dictLog++ {
		for _, codeLoads := range []bool{false, true} {
			for _, img := range imgs {
				_, rep, _ := core.Record(img, kernel.Config{MaxSteps: 20_000},
					core.Config{IntervalLength: 997, DictSize: 1 << dictLog, LogCodeLoads: codeLoads})
				generated += checkRankCounts(t, img.Name, recordedLogs(t, rep))
			}
		}
	}
	if generated == 0 {
		t.Error("the generated programs hold no rank entry")
	}

	for _, w := range workload.SPEC() {
		kcfg := w.Kernel
		kcfg.MaxSteps = w.Warmup
		m := kernel.New(w.Image, kcfg, nil)
		m.Run()
		rec := core.NewRecorder(m, core.Config{IntervalLength: 20_000})
		m.SetMaxSteps(w.Warmup + 200_000)
		m.Run()
		rec.Flush()
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		checkRankCounts(t, w.Name, recordedLogs(t, rec.Report()))
	}
}
