// Package core implements the BugNet architecture itself: the recorder
// that continuously captures First-Load Logs and Memory Race Logs during
// execution (paper §4), and the replayers that deterministically re-execute
// the recorded window (paper §5).
//
// The recorder plays the role of BugNet's hardware additions in Figure 1 —
// the Checkpoint Buffer, Memory Race Buffer, dictionary compressor, and the
// first-load bits in the caches — observing the machine through the hook
// interfaces of internal/cpu and internal/kernel. The replayers play the
// role of the authors' Simics-based replay prototype.
package core

import (
	"bugnet/internal/bus"
	"bugnet/internal/cache"
	"bugnet/internal/dict"
	"bugnet/internal/logstore"
)

// Config parameterizes the recorder.
type Config struct {
	// PID identifies the recorded process in log headers.
	PID uint32

	// IntervalLength is the checkpoint interval length in committed
	// instructions (paper default for the main results: 10 million).
	// Intervals may also terminate early on interrupts, system calls and
	// faults (paper §4.4). Default 10_000_000.
	IntervalLength uint64

	// DictSize is the dictionary compressor geometry (paper: 64-entry
	// fully associative). Must be a power of two. Default 64.
	DictSize int

	// DictOptions tunes dictionary details beyond the paper's fixed
	// design (counter width, insertion policy) for the design-space
	// ablation. Replayers must be configured identically.
	DictOptions dict.Options

	// Cache configures the per-processor hierarchy carrying the
	// first-load bits. Default cache.DefaultConfig.
	Cache cache.Config

	// FLLBudget and MRLBudget bound the log regions backing the Checkpoint
	// Buffer and Memory Race Buffer (paper §4.7). Oldest checkpoints are
	// discarded when a region fills. Non-positive budgets retain
	// everything (used by experiments measuring log growth).
	FLLBudget int64
	MRLBudget int64

	// FLLStore and MRLStore, when non-nil, are the pre-opened log regions
	// the recorder appends into — the hook for spill-to-disk recording
	// (build them with logstore.Open over a logstore.Disk backend). Nil
	// selects fresh in-memory regions bounded by FLLBudget/MRLBudget,
	// whose budgets are then ignored in favor of the stores' own.
	FLLStore *logstore.Store
	MRLStore *logstore.Store

	// MaxThreads sizes MRL entry fields; defaults to the machine's cores.
	MaxThreads int

	// PreserveFLBits enables the paper's future-work scheme (§4.4):
	// first-load bits survive interval boundaries instead of being
	// cleared, relying on kernel/DMA/coherence invalidations for
	// correctness. Reduces re-logging after interrupts.
	PreserveFLBits bool

	// LogCodeLoads enables first-load logging of instruction fetches so
	// self-modifying code can be replayed (paper §5.3's proposed option).
	LogCodeLoads bool

	// DisableNetzer turns off the transitive-reduction filter on Memory
	// Race Log entries (paper §4.6.3), for the ablation benchmark.
	DisableNetzer bool

	// TraceDepth, when positive, keeps a ring of the last TraceDepth
	// committed (pc, register-hash) pairs per thread. Replayers capture
	// the same trace, enabling instruction-exact divergence checks.
	TraceDepth int

	// Bus, when non-nil, receives instruction/miss/log-production events
	// for the recording-overhead experiment (paper §6.3). Shared across
	// cores, like the physical bus.
	Bus *bus.Model
}

func (c *Config) fillDefaults() {
	if c.IntervalLength == 0 {
		c.IntervalLength = 10_000_000
	}
	if c.DictSize == 0 {
		c.DictSize = dict.DefaultSize
	}
	if c.Cache.L1.SizeBytes == 0 {
		c.Cache = cache.DefaultConfig()
	}
}

// TraceEntry is one committed instruction's identity in a verification
// trace: its PC and a hash of the full register file afterwards. The
// recorder always fills RegHash; replay leaves it zero except under
// VerifyReplay, the one reader of it.
type TraceEntry struct {
	PC      uint32
	RegHash uint32
}

// traceRing is a bounded trace recorder.
type traceRing struct {
	buf  []TraceEntry
	next int
	full bool
}

func newTraceRing(n int) *traceRing { return &traceRing{buf: make([]TraceEntry, n)} }

func (t *traceRing) push(e TraceEntry) {
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
}

// reset empties the ring.
func (t *traceRing) reset() { t.next, t.full = 0, false }

// clone returns a deep copy of the ring, for replay checkpointing.
func (t *traceRing) clone() *traceRing {
	if t == nil {
		return nil
	}
	return &traceRing{buf: append([]TraceEntry(nil), t.buf...), next: t.next, full: t.full}
}

// entries returns the retained trace oldest-first.
func (t *traceRing) entries() []TraceEntry {
	if !t.full {
		return append([]TraceEntry(nil), t.buf[:t.next]...)
	}
	out := make([]TraceEntry, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// hashRegs mixes the register file into a 32-bit fingerprint (FNV-1a over
// the register words).
func hashRegs(regs *[32]uint32) uint32 {
	h := uint32(2166136261)
	for _, r := range regs {
		h ^= r
		h *= 16777619
	}
	return h
}
