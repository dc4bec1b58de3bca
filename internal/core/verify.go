package core

import (
	"fmt"

	"bugnet/internal/asm"
	"bugnet/internal/kernel"
)

// VerifyReplay replays every thread in the recorder's report and checks,
// instruction by instruction, that the replay reproduces the recorded
// execution: same PCs, same register-file contents. This is the lock-step
// debugging tool DESIGN.md §6 describes; it requires the recorder to have
// run with Config.TraceDepth > 0.
//
// The comparison is tail-aligned: the recorder's trace ring covers the last
// TraceDepth instructions of the whole run, while replay covers only the
// retained window, so the common suffix is what both sides observed.
func VerifyReplay(img *asm.Image, rec *Recorder) error {
	if rec.cfg.TraceDepth <= 0 {
		return fmt.Errorf("core: VerifyReplay needs Config.TraceDepth > 0")
	}
	rep := rec.Report()
	for tid, logs := range rep.FLLs {
		if len(logs) == 0 {
			continue
		}
		r := NewReplayer(img, logs)
		r.TraceDepth = rec.cfg.TraceDepth
		r.verifyRegs = true
		r.LogCodeLoads = rec.cfg.LogCodeLoads
		r.DictOptions = rec.cfg.DictOptions
		res, err := r.Run()
		if err != nil {
			return fmt.Errorf("thread %d: %w", tid, err)
		}
		recTrace := rec.Trace(tid)
		repTrace := res.Trace

		// The recorder's fetch hook fires for the faulting instruction,
		// which never commits and is not replayed; drop it before
		// aligning. A thread that exited by returning to the exit
		// sentinel likewise recorded one fetch at the sentinel address.
		if f := logs[len(logs)-1].Fault; f != nil && len(recTrace) > 0 &&
			recTrace[len(recTrace)-1].PC == f.PC {
			recTrace = recTrace[:len(recTrace)-1]
		}
		if len(recTrace) > 0 && recTrace[len(recTrace)-1].PC == kernel.ExitSentinel {
			recTrace = recTrace[:len(recTrace)-1]
		}

		n := len(recTrace)
		if len(repTrace) < n {
			n = len(repTrace)
		}
		if n == 0 && len(recTrace) != len(repTrace) {
			return fmt.Errorf("thread %d: %w: empty common trace (rec %d, replay %d)",
				tid, ErrDiverged, len(recTrace), len(repTrace))
		}
		for i := 1; i <= n; i++ {
			a := recTrace[len(recTrace)-i]
			b := repTrace[len(repTrace)-i]
			if a != b {
				return fmt.Errorf("thread %d: %w: %d instructions before the end: recorded pc=%#x hash=%#x, replayed pc=%#x hash=%#x",
					tid, ErrDiverged, i, a.PC, a.RegHash, b.PC, b.RegHash)
			}
		}
	}
	return nil
}
