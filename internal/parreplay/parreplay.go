// Package parreplay is the parallel interval-replay executor: BugNet's
// record-once/replay-many economics made concrete.
//
// The paper's core property (§4.2) is that every checkpoint interval is
// independently replayable from its own First-Load Log: the header
// snapshots the full architectural state at the interval start, and the
// recorder clears all first-load bits when it creates a checkpoint, so
// every value the interval observes that its own execution did not produce
// is in the interval's log. Sequential replay exploits none of that — it
// walks the intervals one at a time on one goroutine. This package seeds
// one replay per interval and fans the intervals across a bounded worker
// pool, then merges the per-interval results in interval order so the
// outcome is byte-identical to the sequential path. A worker is one replay
// machine (core.Scratch) for the length of a call: every interval starts
// from empty memory holding only the image's text, a whole page budget, a
// zeroed core with nothing decoded and an empty dictionary, exactly as a
// new core.Replayer would build them, but the pages, page-table leaves,
// block-cache array and dictionary arrays the previous interval used are
// what the next one is built from. The merge:
//
//   - Instructions and Injected are sums over intervals;
//   - Final registers, TID and the fault record come from the last
//     interval (each interval restores its header state, so the final
//     state never depends on earlier intervals);
//   - the backtrace ring is reassembled from the trailing intervals'
//     rings: every interval of the traced thread carries one, holding the
//     last min(TraceDepth, interval length) PCs it fetched, so walking
//     intervals backward until TraceDepth entries accumulate reconstructs
//     the sequential ring exactly. A ring costs its interval the fetch hook
//     on those last TraceDepth instructions only (core.ReplayMachine.StepN);
//   - the first failure in (thread, interval) order wins, which is the
//     order the sequential batched schedule encounters failures in, and
//     later intervals' divergences are discarded exactly as the
//     sequential path never reaches them.
//
// Reports that need race detection are replayed sequentially: the
// vector-clock detector consumes the reconstructed global interleaving,
// and its verdict depends on that order, so only the sequential schedule
// reproduces it. ReplayReport routes such reports (any report carrying
// MRLs, or asking for race detection) to core.MultiReplayer unchanged;
// every other report takes the per-interval schedule at every pool width,
// one worker included, so the schedule is a function of the report alone.
// The fleet-scale common case, a single-threaded crash uploaded by
// thousands of machines, takes the per-interval path.
//
// The replay page budget (Options.MaxPages) binds each interval on the
// per-interval path, where core.Replayer applies it cumulatively over the
// whole window: a window over budget only cumulatively replays clean here
// at any width. Peak memory is MaxPages times the pool width, which also
// bounds what the workers keep between intervals: a worker retains no
// more pages than its largest interval mapped, and drops them when the
// call returns.
package parreplay

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/dict"
	"bugnet/internal/fll"
)

// Options tunes a parallel replay.
type Options struct {
	// Workers bounds the replay worker pool. <= 0 picks GOMAXPROCS; 1
	// replays interval by interval, each from empty memory, on the
	// caller's goroutine, while callers wanting the literal sequential
	// code path use core.Replayer / core.MultiReplayer directly.
	Workers int
	// TraceDepth is the backtrace ring length (0 = no trace).
	TraceDepth int
	// MaxPages caps each interval replay's memory in 4 KB pages (see
	// core.Replayer.MaxPages; per interval on this path).
	MaxPages int
	// LogCodeLoads and DictOptions must match the recording
	// configuration. ReplayReport overrides them from the report.
	LogCodeLoads bool
	DictOptions  dict.Options

	// traceTID is the thread whose intervals carry the ring: ReplayThread's
	// one thread is 0, ReplayReport sets the crashing thread.
	traceTID int
}

func (o *Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// unit is one (thread, interval) replay work item.
type unit struct {
	tid int
	idx int            // interval index within the thread's window
	r   *core.Replayer // the thread's whole window; Options set the rest
}

// unitResult is one finished work item.
type unitResult struct {
	unit
	res      *core.ReplayResult
	err      error
	panicked bool
	panicVal any
}

// replayUnit replays one interval in isolation on the worker's machine. A
// panic is captured, not propagated: workers run on pool goroutines, and an
// uncaught panic there would kill the process instead of reaching the
// caller's recover (triage demotes replay panics to failed verdicts). The
// machine a panic interrupted is dropped, not reused.
func replayUnit(u unit, o Options, m *core.Scratch) (r unitResult) {
	r.unit = u
	defer func() {
		if v := recover(); v != nil {
			r.panicked, r.panicVal = true, v
			*m = core.Scratch{}
		}
	}()
	rep := u.r.Intervals(u.idx, u.idx+1)
	rep.LogCodeLoads = o.LogCodeLoads
	rep.DictOptions = o.DictOptions
	rep.MaxPages = o.MaxPages
	if u.tid == o.traceTID {
		rep.TraceDepth = o.TraceDepth
	}
	r.res, r.err = rep.RunOn(m)
	return r
}

// run replays every unit and returns the results in the units' order,
// (thread, interval). Each worker keeps one machine for the call and claims
// the next unclaimed unit until none is left; a window of one unit, or a
// pool of one, is replayed on the caller's goroutine.
func run(units []unit, o Options) []unitResult {
	results := make([]unitResult, len(units))
	var next atomic.Int64
	work := func() {
		var m core.Scratch
		for i := next.Add(1) - 1; i < int64(len(units)); i = next.Add(1) - 1 {
			mWorkersBusy.Inc()
			results[i] = replayUnit(units[i], o, &m)
			mWorkersBusy.Dec()
			mIntervals.Inc()
		}
	}
	workers := min(o.workers(), len(units))
	if workers <= 1 {
		work()
		return results
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return results
}

// threadUnits appends one unit per interval of a thread's window.
func threadUnits(units []unit, img *asm.Image, tid int, logs []*fll.Ref) []unit {
	r := core.NewReplayer(img, logs)
	units = slices.Grow(units, len(logs))
	for i := range logs {
		units = append(units, unit{tid: tid, idx: i, r: r})
	}
	return units
}

// firstFailure scans (thread, interval)-ordered results for the first
// divergence or panic — the one the sequential schedule would have hit —
// and surfaces it: panics re-panic on the caller's goroutine so the
// caller's recover sees the identical value, and a divergence returns its
// unit's result.
func firstFailure(results []unitResult) *unitResult {
	for i := range results {
		if results[i].panicked {
			panic(results[i].panicVal)
		}
		if results[i].err != nil {
			return &results[i]
		}
	}
	return nil
}

// mergeThread folds one thread's interval results (already in interval
// order, all error-free) into the result sequential replay of the full
// window produces. A thread with no intervals replays to the zero result.
func mergeThread(results []unitResult, traceDepth int) *core.ReplayResult {
	if len(results) == 0 {
		return &core.ReplayResult{}
	}
	last := results[len(results)-1].res
	merged := &core.ReplayResult{
		TID:       last.TID,
		Final:     last.Final,
		Intervals: len(results),
		Fault:     last.Fault,
	}
	for _, r := range results {
		merged.Instructions += r.res.Instructions
		merged.Injected += r.res.Injected
	}
	if traceDepth > 0 {
		// Reassemble the last-TraceDepth ring: walk intervals backward,
		// prepending each interval's ring until enough entries accumulate.
		var trace []core.TraceEntry
		for i := len(results) - 1; i >= 0 && len(trace) < traceDepth; i-- {
			trace = append(append([]core.TraceEntry(nil), results[i].res.Trace...), trace...)
		}
		if len(trace) > traceDepth {
			trace = trace[len(trace)-traceDepth:]
		}
		merged.Trace = trace
	}
	return merged
}

// ReplayThread replays one thread's interval refs across the worker pool
// and merges the outcome. The result (and any error) is byte-identical to
// core.NewReplayer(img, logs).Run() with the same options.
func ReplayThread(img *asm.Image, logs []*fll.Ref, o Options) (*core.ReplayResult, error) {
	results := run(threadUnits(nil, img, 0, logs), o)
	if f := firstFailure(results); f != nil {
		return nil, f.err
	}
	return mergeThread(results, o.TraceDepth), nil
}

// ReportOptions tunes ReplayReport.
type ReportOptions struct {
	Options
	// DetectRaces requests the race analysis, which runs on
	// core.MultiReplayer's schedule.
	DetectRaces bool
}

// sequentialFallbacks counts report replays routed to the sequential
// MultiReplayer (races requested or an MRL-carrying report); exported for
// tests.
var sequentialFallbacks atomic.Uint64

// SequentialFallbacks returns how many ReplayReport calls took the
// sequential path.
func SequentialFallbacks() uint64 { return sequentialFallbacks.Load() }

// ReplayReport replays every thread of a crash report, adopting the
// recording options the report carries, with the per-thread interval
// replays fanned across the pool. Reports that need the reconstructed
// global interleaving — race detection requested, or any MRLs present
// (their constraint accounting is part of the sequential result) — are
// replayed by core.MultiReplayer unchanged. Which schedule runs depends on
// the report and DetectRaces alone, never on the pool width.
func ReplayReport(img *asm.Image, rep *core.CrashReport, o ReportOptions) (*core.MultiReplayResult, error) {
	if o.DetectRaces || len(rep.MRLs) > 0 {
		sequentialFallbacks.Add(1)
		mSequential.Inc()
		mr := core.NewMultiReplayer(img, rep)
		mr.DetectRaces = o.DetectRaces
		mr.MaxPages = o.MaxPages
		mr.TraceDepth = o.TraceDepth
		return mr.Run()
	}
	if rep.Binary.TextLen != 0 {
		if err := rep.Binary.Matches(img); err != nil {
			return nil, err
		}
	}
	tids := make([]int, 0, len(rep.FLLs))
	for tid := range rep.FLLs {
		tids = append(tids, tid)
	}
	sort.Ints(tids)

	opts := o.Options
	opts.LogCodeLoads = rep.LogCodeLoads
	opts.DictOptions = rep.DictOptions
	if rep.Crash == nil {
		opts.TraceDepth = 0 // the sequential path traces only a crashing thread
	} else {
		opts.traceTID = rep.Crash.TID
	}

	var units []unit
	for _, tid := range tids {
		units = threadUnits(units, img, tid, rep.FLLs[tid])
	}
	results := run(units, opts)
	if f := firstFailure(results); f != nil {
		// MultiReplayer wraps each thread's failure; match it.
		return nil, &threadError{tid: f.tid, err: f.err}
	}

	res := &core.MultiReplayResult{Threads: make(map[int]*core.ReplayResult, len(tids))}
	at := 0
	for _, tid := range tids {
		n := len(rep.FLLs[tid])
		// An untraced thread's units carry no ring, and merge to none.
		res.Threads[tid] = mergeThread(results[at:at+n], opts.TraceDepth)
		at += n
	}
	return res, nil
}

// threadError mirrors core.MultiReplayer's per-thread error wrapping
// ("thread %d: <cause>") with the cause unwrappable.
type threadError struct {
	tid int
	err error
}

func (e *threadError) Error() string { return "thread " + itoa(e.tid) + ": " + e.err.Error() }
func (e *threadError) Unwrap() error { return e.err }

// itoa avoids pulling fmt onto the error path for a non-negative int.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
