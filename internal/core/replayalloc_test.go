//go:build !race

package core_test

import (
	"runtime"
	"testing"

	"bugnet/internal/core"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
	"bugnet/internal/workload"
)

// TestReplayDoesNotCopyTheLog: replaying an archive held in memory reads
// every interval where it lies in the archive. Sequential replay of a
// 2 M-instruction mcf window — about 1.2 KB of log per thousand
// instructions, the densest analogue — allocates less than the encoded
// FLL bytes it replays: the guest pages it maps (about 1 MB), and no copy
// of the log. One copy of the log — of each section at open, of each
// interval at load, or of each entry stream — would push the total past
// them. The file is left out under the race detector, which allocates on
// the program's behalf.
func TestReplayDoesNotCopyTheLog(t *testing.T) {
	w := workload.ByName("mcf")
	kcfg := w.Kernel
	kcfg.MaxSteps = w.Warmup
	m := kernel.New(w.Image, kcfg, nil)
	m.Run()
	rec := core.NewRecorder(m, core.Config{IntervalLength: 100_000})
	m.SetMaxSteps(w.Warmup + 2_000_000)
	m.Run()
	rec.Flush()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	archive, err := report.Pack(rec.Report())
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := report.OpenBytes(archive)
	if err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	res, err := core.NewReplayer(w.Image, rep.FLLs[0]).Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var fllBytes int64
	for _, ref := range rep.FLLs[0] {
		fllBytes += ref.EncodedLen()
	}
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("replayed %d instructions of %d intervals: %d FLL bytes, %d bytes allocated",
		res.Instructions, len(rep.FLLs[0]), fllBytes, allocated)
	if allocated >= fllBytes {
		t.Errorf("replay allocated %d bytes for %d bytes of FLL; want fewer", allocated, fllBytes)
	}
}
