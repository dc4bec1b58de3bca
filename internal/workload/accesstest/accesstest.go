// Package accesstest captures the memory-access stream of a SPEC analogue,
// so the benchmarks of the recorder's per-access layers (cache, dict, fll)
// run over the addresses and values a guest really produces instead of
// synthetic ones.
package accesstest

import (
	"fmt"

	"bugnet/internal/workload"
)

// interval is the checkpoint-interval length, in instructions, a stream is
// cut into: the 10 K of the triage corpus, ten times the reset rate of the
// 100 K default.
const interval = 10_000

// Access is one memory operation the recorder would see.
type Access struct {
	Addr, Val uint32 // word address and the word's value at the access
	// WordStore marks a full-word store (cpu.CPU.OnWordStore): it sets the
	// FL bit and logs nothing. Everything else is a loggable operation.
	WordStore bool
	// NewInterval marks the first access of a checkpoint interval, where
	// the recorder clears the FL bits and empties the dictionary: the
	// first access of the stream, then each first one interval or more
	// instructions after the last marked (the recorder's rotation check).
	NewInterval bool
}

// Capture runs the named SPEC analogue through its warm-up unobserved and
// returns the accesses of the next instrs instructions, in order.
func Capture(program string, instrs uint64) []Access {
	w := workload.ByName(program)
	if w == nil {
		panic(fmt.Sprintf("accesstest: no SPEC analogue %q", program))
	}
	m := w.Machine(w.Warmup, nil)
	m.Run()
	c := m.Threads[0].CPU
	var out []Access
	var began uint64 // c.IC where the current interval began
	rec := func(addr uint32, wordStore bool) {
		v, _ := m.Mem.LoadWord(addr) // the CPU validated the access before the hook
		a := Access{Addr: addr, Val: v, WordStore: wordStore}
		if len(out) == 0 || c.IC-began >= interval {
			a.NewInterval, began = true, c.IC
		}
		out = append(out, a)
	}
	c.OnLoggable = func(addr uint32, _ bool) { rec(addr, false) }
	c.OnWordStore = func(addr uint32) { rec(addr, true) }
	m.SetMaxSteps(w.Warmup + instrs)
	m.Run()
	return out
}

// Loggable returns the stream without its full-word stores — what the
// dictionary and the FLL writer see. An interval mark that sat on a dropped
// store moves to the next operation kept.
func Loggable(stream []Access) []Access {
	var out []Access
	mark := false
	for _, a := range stream {
		mark = mark || a.NewInterval
		if a.WordStore {
			continue
		}
		a.NewInterval, mark = mark, false
		out = append(out, a)
	}
	return out
}
