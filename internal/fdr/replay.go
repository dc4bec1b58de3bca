package fdr

import (
	"errors"
	"fmt"

	"bugnet/internal/cpu"
	"bugnet/internal/isa"
)

// ErrUnsupported reports an FDR replay outside the implemented scope.
var ErrUnsupported = errors.New("fdr: replay supports uniprocessor recordings")

// ErrDiverged reports that FDR replay failed to reproduce the recording.
var ErrDiverged = errors.New("fdr: replay diverged from recording")

// ReplayResult summarizes an FDR full-system replay.
type ReplayResult struct {
	Instructions uint64 // instructions re-executed
	Final        cpu.Snapshot
	Faulted      bool
	FaultPC      uint32
}

// Replay reconstructs memory at the startIdx'th retained checkpoint from
// the core dump and the undo logs, restores the register checkpoint, and
// re-executes forward to the end of the recording, injecting logged
// syscall results, input bytes and DMA completions at their recorded
// steps. This is the FDR/SafetyNet replay procedure; it demonstrates that
// the recorded logs suffice for deterministic full-system replay on a
// uniprocessor (multiprocessor FDR replay additionally interleaves by the
// MRLs, which the BugNet side of this repository implements).
func Replay(rec *Recorder, startIdx int) (*ReplayResult, error) {
	if rec.coreEnd == nil {
		return nil, fmt.Errorf("fdr: no core dump; call Finalize or record a crash")
	}
	if rec.everMP {
		return nil, ErrUnsupported
	}
	items := rec.retained.All()
	if startIdx < 0 || startIdx >= len(items) {
		return nil, fmt.Errorf("fdr: checkpoint index %d out of range (%d retained)", startIdx, len(items))
	}
	cp, err := rec.checkpointAt(items[startIdx])
	if err != nil {
		return nil, fmt.Errorf("fdr: loading checkpoint %d: %w", startIdx, err)
	}

	// Uniprocessor scope: exactly one live thread at the checkpoint.
	var reg *regCheckpoint
	for i := range cp.regs {
		if cp.regs[i].live {
			if reg != nil {
				return nil, ErrUnsupported
			}
			reg = &cp.regs[i]
		}
	}
	if reg == nil || reg.tid != 0 {
		return nil, ErrUnsupported
	}

	// Rebuild memory at the checkpoint boundary: start from the core dump
	// and apply undo logs newest-first down to (and including) cp. Each
	// checkpoint is materialized from its encoded form for its walk step
	// and dropped again — the retained window never sits decoded at once.
	m := rec.coreEnd.Snapshot()
	for i := len(items) - 1; i >= startIdx; i-- {
		ci := cp
		if i != startIdx {
			if ci, err = rec.checkpointAt(items[i]); err != nil {
				return nil, fmt.Errorf("fdr: loading checkpoint %d: %w", i, err)
			}
		}
		for _, u := range ci.undo {
			if err := m.StoreBytes(u.addr, u.old); err != nil {
				return nil, fmt.Errorf("fdr: undo restore at %#x: %v", u.addr, err)
			}
		}
	}

	c := cpu.New(m)
	c.Restore(reg.state)
	c.IC = reg.ic

	// Tapes from the checkpoint on.
	inputs := rec.inputs
	for len(inputs) > 0 && inputs[0].step < cp.startStep {
		inputs = inputs[1:]
	}
	dmas := rec.dmas
	for len(dmas) > 0 && dmas[0].step < cp.startStep {
		dmas = dmas[1:]
	}

	res := &ReplayResult{}
	step := cp.startStep
	for {
		// Apply DMA completions due at this step (the machine ticked DMA
		// after every instruction). Like every logged write below, it
		// lands behind the core's back, so decodes it covers are dropped
		// as the kernel drops them when recording.
		for len(dmas) > 0 && dmas[0].step <= step {
			d := dmas[0]
			dmas = dmas[1:]
			if err := m.StoreBytes(d.addr, d.data); err != nil {
				return nil, fmt.Errorf("fdr: DMA replay at %#x: %v", d.addr, err)
			}
			c.InvalidateFetchRange(d.addr, uint32(len(d.data)))
		}
		if rec.finalSteps != 0 && step >= rec.finalSteps {
			break // end of recording (clean exit)
		}
		_, ev := c.Run(1)
		step++
		switch ev {
		case cpu.EventStep:
			res.Instructions++
		case cpu.EventSyscall:
			res.Instructions++
			// Re-apply the logged kernel effects for this step: memory
			// copy-ins first, then the register result.
			for len(inputs) > 0 && inputs[0].step <= step {
				in := inputs[0]
				inputs = inputs[1:]
				if len(in.data) > 0 {
					if err := m.StoreBytes(in.addr, in.data); err != nil {
						return nil, fmt.Errorf("fdr: input replay at %#x: %v", in.addr, err)
					}
					c.InvalidateFetchRange(in.addr, uint32(len(in.data)))
				}
				if in.valid {
					c.Regs[isa.RegA0] = in.a0
				}
			}
			// An exit syscall has no logged return; the recording ends
			// at finalSteps, which the loop head checks.
		case cpu.EventFault:
			res.Faulted = true
			res.FaultPC = c.Fault.PC
			res.Final = c.State()
			return res, nil
		case cpu.EventHalted:
			return nil, fmt.Errorf("%w: core halted unexpectedly", ErrDiverged)
		}
	}
	res.Final = c.State()
	return res, nil
}
