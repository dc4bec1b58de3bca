package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/cache"
	"bugnet/internal/core"
	"bugnet/internal/dict"
	"bugnet/internal/kernel"
	"bugnet/internal/logstore"
	"bugnet/internal/report"
)

// recordOut is what the record stage hands to the later stages and to the
// traced run's layer drives.
type recordOut struct {
	img *asm.Image
	// archive is the window the log regions retained after exactly
	// snapshotSlices slices, packed: the same bytes on every run.
	archive []byte
	rec     *core.Recorder

	sliceNS   rounds  // host ns per recorded guest instruction over the contention beside it, one per slice
	prefixS   float64 // seconds the fixed prefix took: attach, its slices (over contention), pack
	instr     uint64  // guest instructions recorded up to the snapshot
	intervals int     // checkpoint intervals closed up to the snapshot
	allocB    uint64  // Go heap bytes allocated up to the snapshot
	mallocs   uint64
	gcCycles  uint32
	gcPauseNS uint64
	fll, mrl  logstore.Stats // at the snapshot
	cache     cache.Stats    // summed over threads, at the snapshot
	dict      dict.Stats
	loggedOps uint64 // operations the first-load filter selected, of totalOps
	totalOps  uint64
	windowK   float64 // replayable kinstr at the snapshot, all threads
	segments  int     // live disk segments at the snapshot
}

// advance runs m for n more guest instructions and returns the time that
// took and the instructions that committed.
func advance(m *kernel.Machine, done *uint64, n uint64) (time.Duration, uint64) {
	m.SetMaxSteps(*done + n)
	start := time.Now()
	res := m.Run()
	d := time.Since(start)
	got := res.Instructions - *done
	*done = res.Instructions
	return d, got
}

// recording is the record stage: f's machine recorded continuously — the
// paper's operating mode, steady-state append and evict — in slices of
// sliceInstr instructions, one timing sample per slice.
type recording struct {
	recordOut
	f      *fixture
	host   *hostMeter
	tr     *tracer
	done   uint64 // guest instructions the machine has committed
	slices int
}

// startRecording attaches the recorder, runs the fixed prefix of
// snapshotSlices slices, reads the exact counts there and packs the window
// the regions retain at that moment.
func startRecording(f *fixture, host *hostMeter, tr *tracer) (*recording, error) {
	r := &recording{f: f, host: host, tr: tr, done: f.warm}
	r.img = f.prog.Image
	attach := time.Now()
	r.rec = core.NewRecorder(f.machine, f.recCfg)
	r.prefixS = time.Since(attach).Seconds()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < snapshotSlices; i++ {
		if err := r.slice(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	rec, out := r.rec, &r.recordOut
	out.instr = r.done - f.warm
	out.allocB, out.mallocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
	out.gcCycles, out.gcPauseNS = ms1.NumGC-ms0.NumGC, ms1.PauseTotalNs-ms0.PauseTotalNs
	out.fll, out.mrl = rec.FLLStore().Stats(), rec.MRLStore().Stats()
	out.intervals = out.fll.TotalCount
	for _, tid := range rec.FLLStore().Threads() {
		out.windowK += float64(rec.FLLStore().ReplayWindow(tid)) / 1000
	}
	out.loggedOps, out.totalOps = rec.LoggedOps()
	for tid, th := range f.machine.Threads {
		if th.CPU == nil {
			continue
		}
		c, d := rec.CacheStats(tid), rec.DictStats(tid)
		out.cache.L1Hits, out.cache.L1Misses = out.cache.L1Hits+c.L1Hits, out.cache.L1Misses+c.L1Misses
		out.dict.Hits, out.dict.Lookups = out.dict.Hits+d.Hits, out.dict.Lookups+d.Lookups
	}
	for _, disk := range f.disks {
		out.segments += disk.SegmentCount()
	}
	// Pack now: the lazy views read the regions, and later slices evict
	// what they point at.
	var err error
	pack := time.Now()
	if out.archive, err = report.Pack(rec.Report()); err != nil {
		return nil, fmt.Errorf("record: pack retained window: %w", err)
	}
	r.prefixS += time.Since(pack).Seconds()
	for _, ns := range r.sliceNS.pool() {
		r.prefixS += ns * sliceInstr / 1e9
	}
	return r, nil
}

// timedSlice advances m by one slice between two probes of the host meter:
// when it started, how long it took, the instructions that committed and
// the contention beside it.
func timedSlice(host *hostMeter, m *kernel.Machine, done *uint64) (start time.Time, d time.Duration, n uint64, c float64) {
	c = host.around(func() {
		start = time.Now()
		d, n = advance(m, done, sliceInstr)
	})
	return start, d, n, c
}

// slice records one more slice and keeps its timing sample.
func (r *recording) slice() error {
	start, d, n, c := timedSlice(r.host, r.f.machine, &r.done)
	if n != sliceInstr {
		return fmt.Errorf("record: slice %d committed %d of %d instructions (crash %v)",
			r.slices, n, sliceInstr, r.f.machine.Crash())
	}
	r.slices++
	r.tr.add(0, r.slices, "core", "record-slice", start, start.Add(d))
	r.sliceNS.add(float64(d.Nanoseconds()) / float64(n) / c)
	return nil
}

// round records slices for d (at least one).
func (r *recording) round(d time.Duration) error {
	r.sliceNS.next()
	for deadline := time.Now().Add(d); ; {
		if err := r.slice(); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// finish closes the open intervals and reports what recording swallowed.
func (r *recording) finish() error {
	r.rec.Flush()
	if err := r.rec.Err(); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

// verifyWindow replays a packed window the way a developer's machine
// would, untimed: every thread replays from its retained logs without
// divergence and covers exactly the instructions the logs claim, and each
// thread's first retained interval replays alone from empty memory — the
// property that lets a trimmed window start anywhere.
func verifyWindow(img *asm.Image, archive []byte, res *result) {
	rep, err := report.Unpack(archive)
	if !res.check(err == nil, "unpack retained window: %v", err) {
		return
	}
	res.check(len(rep.FLLs) > 0, "retained window has no logs")
	for _, tid := range threadIDs(rep) {
		logs := rep.FLLs[tid]
		var want uint64
		for _, l := range logs {
			want += l.Length
		}
		r, err := replayerFor(img, rep, tid).Run()
		res.check(err == nil && r.Instructions == want,
			"thread %d: replay of retained window: err %v, covered %d of %d", tid, err, instructionsOf(r), want)
		first := core.NewReplayer(img, logs[:1])
		first.LogCodeLoads, first.DictOptions, first.InteriorWindow = rep.LogCodeLoads, rep.DictOptions, len(logs) > 1
		r, err = first.Run()
		res.check(err == nil && r.Instructions == logs[0].Length,
			"thread %d: first retained interval from empty memory: err %v", tid, err)
	}
}

func instructionsOf(r *core.ReplayResult) uint64 {
	if r == nil {
		return 0
	}
	return r.Instructions
}

// threadIDs lists the threads of a report that retained any FLL, ascending.
func threadIDs(rep *core.CrashReport) []int {
	var tids []int
	for tid, logs := range rep.FLLs {
		if len(logs) > 0 {
			tids = append(tids, tid)
		}
	}
	sort.Ints(tids)
	return tids
}

// replayerFor builds the sequential replayer of one thread with the
// recording options the report carries.
func replayerFor(img *asm.Image, rep *core.CrashReport, tid int) *core.Replayer {
	r := core.NewReplayer(img, rep.FLLs[tid])
	r.LogCodeLoads, r.DictOptions = rep.LogCodeLoads, rep.DictOptions
	return r
}
