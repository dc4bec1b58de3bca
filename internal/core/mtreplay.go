package core

import (
	"fmt"
	"sort"

	"bugnet/internal/asm"
)

// constraint is one cross-thread ordering requirement derived from an MRL
// entry, with instruction counts rebased to replay-local indices (counted
// from the start of each thread's retained window).
type constraint struct {
	local  uint64 // local instructions committed before the synchronizing op
	remote int    // remote thread id
	rIC    uint64 // required remote progress (replay-local)
}

// MultiReplayResult summarizes a multithreaded replay (paper §5.2).
type MultiReplayResult struct {
	// Threads holds each thread's single-thread replay result.
	Threads map[int]*ReplayResult
	// Order is the reconstructed valid sequential interleaving, as
	// (thread id) per executed instruction, retained only when
	// CollectOrder was set (it is O(total instructions)).
	Order []int
	// Constraints is the number of ordering constraints applied.
	Constraints int
	// DroppedConstraints counts constraints referencing checkpoints that
	// fell out of the retained window (treated as already satisfied).
	DroppedConstraints int
	// Races holds the data races inferred during replay.
	Races []Race
	// Known holds each thread's §7.1 known-memory words (ascending),
	// populated only when the replayer ran with TrackKnown.
	Known map[int][]uint32
}

// MultiReplayer replays every thread of a crash report and reconstructs a
// valid sequential order of the memory operations across threads from the
// Memory Race Logs, as described in paper §5.2. Each thread replays
// independently (its FLLs are self-contained); the MRLs only constrain the
// interleaving.
type MultiReplayer struct {
	img    *asm.Image
	report *CrashReport

	// CollectOrder retains the full interleaving in the result.
	CollectOrder bool
	// DetectRaces runs the synchronization-aware race analysis during
	// replay (see racedetect.go).
	DetectRaces bool
	// TraceDepth, when positive, keeps a trace ring of the crashing
	// thread's last TraceDepth instructions (report.Crash must be set),
	// delivered in that thread's ReplayResult.Trace.
	TraceDepth int
	// MaxPages caps each thread's replay memory (see Replayer.MaxPages).
	MaxPages int
	// TrackKnown maintains each thread's §7.1 known-memory bitmap during
	// replay and delivers the touched words in the result. Debug tooling
	// over multithreaded reports (and the map-vs-bitmap parity tests) use
	// it; the triage hot path leaves it off.
	TrackKnown bool
}

// NewMultiReplayer builds a replayer over all threads in the report,
// adopting the recording options the report carries.
func NewMultiReplayer(img *asm.Image, report *CrashReport) *MultiReplayer {
	return &MultiReplayer{img: img, report: report}
}

// threadCtx is one thread's replay machine plus its constraint queue. The
// machine's Pos is the thread's replay-local progress; its snapshot/restore
// capability is what a future parallel interval replay would checkpoint.
type threadCtx struct {
	tid         int
	m           *ReplayMachine
	constraints []constraint
	nextCon     int
}

// Run replays all threads under the MRL ordering constraints.
func (m *MultiReplayer) Run() (*MultiReplayResult, error) {
	if m.report.Binary.TextLen != 0 {
		if err := m.report.Binary.Matches(m.img); err != nil {
			return nil, err
		}
	}
	tids := make([]int, 0, len(m.report.FLLs))
	for tid := range m.report.FLLs {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	if len(tids) == 0 {
		return &MultiReplayResult{Threads: map[int]*ReplayResult{}}, nil
	}
	maxTID := tids[len(tids)-1]

	res := &MultiReplayResult{Threads: make(map[int]*ReplayResult)}
	ctxs := make([]*threadCtx, maxTID+1)
	var det *raceDetector
	if m.DetectRaces {
		det = newRaceDetector(m.img, maxTID+1)
	}

	// Replay-local base index of each (tid, cid) interval.
	base := make(map[int]map[uint32]uint64)
	for _, tid := range tids {
		base[tid] = make(map[uint32]uint64)
		var cum uint64
		for _, l := range m.report.FLLs[tid] {
			base[tid][l.CID] = cum
			cum += l.Length
		}
	}

	// Build per-thread constraint lists from the MRLs. Each MRL is
	// materialized once here (the constraints are compact) and dropped; a
	// log whose paired FLL fell out of the window is never decoded at all.
	for _, tid := range tids {
		tc := &threadCtx{tid: tid}
		ctxs[tid] = tc
		for _, mref := range m.report.MRLs[tid] {
			localBase, ok := base[tid][mref.CID]
			if !ok {
				res.DroppedConstraints += int(mref.NumEntries)
				continue // the paired FLL fell out of the window
			}
			ml, err := mref.Open()
			if err != nil {
				return nil, fmt.Errorf("core: materializing MRL T%d C%d: %w", tid, mref.CID, err)
			}
			for _, e := range ml.Entries {
				rt := int(e.RemoteTID)
				var remoteBase uint64
				haveRemote := false
				if rt <= maxTID && base[rt] != nil {
					remoteBase, haveRemote = base[rt][e.RemoteCID]
				}
				if !haveRemote {
					// The remote interval precedes the retained window:
					// everything in it happened before replay starts, so
					// the constraint is vacuously satisfied.
					res.DroppedConstraints++
					continue
				}
				tc.constraints = append(tc.constraints, constraint{
					local:  localBase + e.LocalIC,
					remote: rt,
					rIC:    remoteBase + e.RemoteIC,
				})
			}
		}
		sort.Slice(tc.constraints, func(i, j int) bool {
			return tc.constraints[i].local < tc.constraints[j].local
		})
		res.Constraints += len(tc.constraints)
	}

	// Build the replay states.
	for _, tid := range tids {
		tc := ctxs[tid]
		r := NewReplayer(m.img, m.report.FLLs[tid])
		r.LogCodeLoads = m.report.LogCodeLoads
		r.DictOptions = m.report.DictOptions
		r.MaxPages = m.MaxPages
		if m.TraceDepth > 0 && m.report.Crash != nil && tid == m.report.Crash.TID {
			r.TraceDepth = m.TraceDepth
		}
		if det != nil {
			tcc := tc
			r.OnAccess = func(pc uint32, wordAddr uint32, isWrite bool) {
				det.access(tcc.tid, tcc.m.Pos(), pc, wordAddr, isWrite)
			}
		}
		tc.m = r.Machine(MachineOptions{TrackKnown: m.TrackKnown})
	}

	// Interleave, honoring constraints.
	//
	// On the triage hot path (no order collection, no race detection) each
	// scheduling turn batches a thread through the block engine up to its
	// next constraint gate or the end of its window: every thread's replay
	// is independently deterministic (its FLLs are self-contained), and
	// batching only ever runs a thread *further* before others resume, so
	// any interleaving the batched schedule produces is one the MRL
	// constraints admit. Order collection and race detection observe every
	// access in a single global interleaving, so they keep the historical
	// one-instruction-per-turn schedule.
	batched := !m.CollectOrder && det == nil
	active := 0
	for _, tid := range tids {
		if !ctxs[tid].m.Done() {
			active++
		}
	}
	for active > 0 {
		progressed := false
		for _, tid := range tids {
			tc := ctxs[tid]
			if tc.m.Done() || !m.satisfied(tc, ctxs) {
				continue
			}
			var executed uint64
			var err error
			if batched {
				limit := tc.m.Window() - tc.m.Pos()
				if tc.nextCon < len(tc.constraints) {
					// satisfied consumed every constraint at the current
					// position, so the next gate is strictly ahead.
					if d := tc.constraints[tc.nextCon].local - tc.m.Pos(); d < limit {
						limit = d
					}
				}
				executed, err = tc.m.StepN(limit)
			} else {
				executed, err = m.stepThread(tc)
			}
			if err != nil {
				return nil, fmt.Errorf("thread %d: %w", tid, err)
			}
			if executed > 0 {
				progressed = true
				if m.CollectOrder {
					for i := uint64(0); i < executed; i++ {
						res.Order = append(res.Order, tid)
					}
				}
			}
			if tc.m.Done() {
				active--
				progressed = true
			}
		}
		if !progressed && active > 0 {
			return nil, fmt.Errorf("core: multithreaded replay deadlocked (inconsistent or truncated MRLs)")
		}
	}

	for _, tid := range tids {
		res.Threads[tid] = ctxs[tid].m.Result()
	}
	if m.TrackKnown {
		res.Known = make(map[int][]uint32, len(tids))
		for _, tid := range tids {
			res.Known[tid] = ctxs[tid].m.KnownWords()
		}
	}
	if det != nil {
		res.Races = det.races()
	}
	return res, nil
}

// satisfied reports whether tc may execute its next instruction: every
// constraint gating the instruction at the current progress index must see
// the remote thread far enough along.
func (m *MultiReplayer) satisfied(tc *threadCtx, ctxs []*threadCtx) bool {
	for tc.nextCon < len(tc.constraints) && tc.constraints[tc.nextCon].local == tc.m.Pos() {
		c := tc.constraints[tc.nextCon]
		rc := ctxs[c.remote]
		if rc == nil {
			tc.nextCon++ // remote thread left no logs at all: vacuous
			continue
		}
		if rc.m.Pos() < c.rIC {
			return false // must wait for the remote thread
		}
		tc.nextCon++
	}
	return true
}

// stepThread advances one thread by at most one instruction (the machine
// handles interval transitions). It reports how many instructions
// executed — crossing into end-of-window executes nothing.
func (m *MultiReplayer) stepThread(tc *threadCtx) (uint64, error) {
	before := tc.m.Pos()
	err := tc.m.StepOne()
	return tc.m.Pos() - before, err
}
