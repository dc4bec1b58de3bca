package core

// engineparity_test.go pins the block-engine rollout at the system level:
// batched kernel execution must record byte-identical logs regardless of
// how execution is chunked (mtschedule_test.go does the same for
// multithreaded replay).

import (
	"bytes"
	"testing"

	"bugnet/internal/kernel"
	"bugnet/internal/workload"
)

// TestQuantumInvariantRecording records the same single-thread window
// under different scheduler quanta. The quantum only chunks the batched
// cpu.Run calls — timer interrupts are IC-based and DMA completions
// step-based — so the packed logs must be byte-identical: the batching
// bounds in kernel.runQuantum may not move any event across an
// instruction boundary.
func TestQuantumInvariantRecording(t *testing.T) {
	w := workload.ByName("gzip")
	encode := func(quantum int) []byte {
		m := kernel.New(w.Image, kernel.Config{
			Quantum:       quantum,
			TimerInterval: 777, // deliberately misaligned with the quantum
			MaxSteps:      60_000,
			Inputs:        w.Kernel.Inputs,
		}, nil)
		rec := NewRecorder(m, Config{IntervalLength: 1000, Cache: tinyCache()})
		m.Run()
		rec.Flush()
		if err := rec.Err(); err != nil {
			t.Fatalf("quantum %d: %v", quantum, err)
		}
		var buf bytes.Buffer
		for _, it := range rec.FLLStore().All() {
			data, err := rec.FLLStore().Load(it.Seq)
			if err != nil {
				t.Fatalf("quantum %d: load seq %d: %v", quantum, it.Seq, err)
			}
			buf.Write(data)
		}
		return buf.Bytes()
	}
	base := encode(32)
	if len(base) == 0 {
		t.Fatal("recording produced no log bytes")
	}
	for _, q := range []int{1, 7, 1024} {
		if got := encode(q); !bytes.Equal(got, base) {
			t.Errorf("quantum %d produced different log bytes (%d vs %d)", q, len(got), len(base))
		}
	}
}
