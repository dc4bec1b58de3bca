package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bugnet/internal/cache"
	"bugnet/internal/coherence"
	"bugnet/internal/core"
	"bugnet/internal/dict"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/logstore"
	"bugnet/internal/parreplay"
	"bugnet/internal/report"
	"bugnet/internal/timetravel"
	"bugnet/internal/triage"
)

// The record path's per-access layers run inside Machine.Run and cannot
// be spanned from outside it. The traced run therefore captures the
// access stream of one slice on an unrecorded machine and re-drives each
// layer alone with it, through the layer's public calls, in the order the
// recorder makes them.

// access is one captured memory operation of the guest.
type access struct {
	addr, val uint32
	ic        uint64 // the thread's committed-instruction count at the access
	tid       uint8
	kind      uint8
}

const (
	accLoad      = iota // loggable read
	accWrite            // loggable operation that also writes (sub-word store, atomic)
	accWordStore        // full-word store: sets the FL bit, logs nothing
)

// captureHooks installs the per-CPU capture on every thread the machine
// starts, as the recorder does.
type captureHooks struct {
	kernel.NopHooks
	m      *kernel.Machine
	stream []access
}

func (h *captureHooks) OnThreadStart(tid int) {
	c := h.m.Threads[tid].CPU
	rec := func(addr uint32, kind uint8) {
		v, _ := h.m.Mem.LoadWord(addr)
		h.stream = append(h.stream, access{addr: addr, val: v, ic: c.IC, tid: uint8(tid), kind: kind})
	}
	c.OnLoggable = func(addr uint32, isWrite bool) {
		if isWrite {
			rec(addr, accWrite)
		} else {
			rec(addr, accLoad)
		}
	}
	c.OnWordStore = func(addr uint32) { rec(addr, accWordStore) }
}

// emptyHooks installs per-CPU hooks that do nothing: what the block
// engine pays to call out at all.
type emptyHooks struct {
	kernel.NopHooks
	m *kernel.Machine
}

func (h emptyHooks) OnThreadStart(tid int) {
	c := h.m.Threads[tid].CPU
	c.OnLoggable = func(uint32, bool) {}
	c.OnWordStore = func(uint32) {}
}

// hookMachine attaches h to every live and future thread of a warmed
// machine.
func hookMachine(m *kernel.Machine, h kernel.Hooks) {
	m.SetHooks(h)
	for _, th := range m.Threads {
		if th.State == kernel.ThreadRunnable {
			h.OnThreadStart(th.ID)
		}
	}
}

// layerDrive is the access stream cut into the checkpoint intervals the
// recorder would have made of it.
type layerDrive struct {
	def     *workloadDef
	stream  []access
	instr   uint64 // guest instructions the stream covers
	threads int
	logged  []bool // per stream entry: the FL filter selected it (filled by the cache drive)
	encoded []logstore.AppendEntry
}

// newInterval reports, per thread, whether a's instruction count has
// crossed the interval length since the thread's interval began, and if
// so starts the next one — the recorder's maybeRotate.
func (d *layerDrive) newInterval(startIC []uint64, started []bool, a *access) bool {
	if !started[a.tid] {
		started[a.tid], startIC[a.tid] = true, a.ic
		return true
	}
	if a.ic-startIC[a.tid] >= d.def.Interval {
		startIC[a.tid] = a.ic
		return true
	}
	return false
}

// driveCache replays the stream through one cache hierarchy per thread
// and returns the time; it fills d.logged.
func (d *layerDrive) driveCache() time.Duration {
	cfg := cache.DefaultConfig()
	hs := make([]*cache.Hierarchy, d.threads)
	for i := range hs {
		hs[i] = cache.New(cfg)
	}
	startIC, started := make([]uint64, d.threads), make([]bool, d.threads)
	logged := make([]bool, len(d.stream))
	start := time.Now()
	for i := range d.stream {
		a := &d.stream[i]
		h := hs[a.tid]
		if d.newInterval(startIC, started, a) {
			h.ClearAllFL()
		}
		if a.kind == accWordStore {
			h.StoreSetFL(a.addr)
		} else {
			logged[i] = !h.LoadTestAndSetFL(a.addr)
		}
	}
	el := time.Since(start)
	d.logged = logged
	return el
}

// driveDict makes the dictionary calls the FLL writer makes: an update
// per loggable operation and a lookup per logged value.
func (d *layerDrive) driveDict() time.Duration {
	ts := make([]*dict.Table, d.threads)
	for i := range ts {
		ts[i] = dict.New(dict.DefaultSize)
	}
	startIC, started := make([]uint64, d.threads), make([]bool, d.threads)
	sink := 0
	start := time.Now()
	for i := range d.stream {
		a := &d.stream[i]
		t := ts[a.tid]
		if d.newInterval(startIC, started, a) {
			t.Reset()
		}
		if a.kind == accWordStore {
			continue
		}
		if d.logged[i] {
			r, _ := t.Lookup(a.val)
			sink += r
		}
		t.Update(a.val)
	}
	el := time.Since(start)
	runtime.KeepAlive(sink)
	return el
}

// driveFLL feeds the stream to one FLL writer per thread, closing an
// interval where the recorder would. It returns the time in Writer.Op and
// in Writer.CloseEncoded separately, and keeps the encoded intervals.
func (d *layerDrive) driveFLL() (write, closing time.Duration, intervals int) {
	type thread struct {
		w     *fll.Writer
		dict  *dict.Table
		cid   uint32
		begin uint64
	}
	ths := make([]thread, d.threads)
	startIC, started := make([]uint64, d.threads), make([]bool, d.threads)
	d.encoded = d.encoded[:0]
	closeInterval := func(tid int, endIC uint64) {
		th := &ths[tid]
		t0 := time.Now()
		meta, data := th.w.CloseEncoded(endIC-th.begin, fll.EndIntervalFull, nil)
		closing += time.Since(t0)
		intervals++
		d.encoded = append(d.encoded, logstore.AppendEntry{
			Item: logstore.Item{TID: tid, CID: th.cid, Timestamp: uint64(len(d.encoded)),
				Bytes: meta.SizeBytes(), Instructions: meta.Length},
			Data: data,
		})
	}
	mark := time.Now()
	for i := range d.stream {
		a := &d.stream[i]
		if d.newInterval(startIC, started, a) {
			write += time.Since(mark)
			th := &ths[a.tid]
			if th.w != nil {
				closeInterval(int(a.tid), a.ic)
				th.cid++
			} else {
				th.dict = dict.New(dict.DefaultSize)
			}
			th.dict.Reset()
			hdr := fll.Header{TID: uint32(a.tid), CID: th.cid, IntervalLimit: d.def.Interval, DictSize: dict.DefaultSize}
			if th.w == nil {
				th.w = fll.NewWriter(hdr, th.dict)
			} else {
				th.w.Reset(hdr, th.dict)
			}
			th.begin = a.ic
			mark = time.Now()
		}
		if a.kind != accWordStore {
			ths[a.tid].w.Op(a.val, d.logged[i])
		}
	}
	write += time.Since(mark)
	return write, closing, intervals
}

// driveCoherence sends the stream through the directory in global order.
func (d *layerDrive) driveCoherence() time.Duration {
	dir := coherence.New(d.threads, cache.DefaultConfig().L1.BlockBytes)
	sink := 0
	start := time.Now()
	for i := range d.stream {
		a := &d.stream[i]
		if a.kind == accLoad {
			sink += len(dir.Load(int(a.tid), a.addr))
		} else {
			sink += len(dir.Store(int(a.tid), a.addr))
		}
	}
	el := time.Since(start)
	runtime.KeepAlive(sink)
	return el
}

// openRegion opens a fresh log region like the workload's FLL region.
func openRegion(def *workloadDef, dir string) (*logstore.Store, error) {
	if !def.Disk {
		return logstore.New(def.FLLBudget), nil
	}
	store, _, err := openDiskRegion(dir, def.FLLBudget)
	return store, err
}

// layerClock times the calls of the layer drives: a span for the tracer,
// and the host meter around it as for every other timing.
type layerClock struct {
	host *hostMeter
	tr   *tracer
}

// around runs f inside a span and returns the contention beside it, for a
// drive that takes its own time inside f.
func (lc layerClock) around(op int, layer, name string, f func()) float64 {
	return lc.host.around(func() { lc.tr.timed(0, op, layer, name, f) })
}

// timed runs f inside a span and returns the span's time over the
// contention beside it.
func (lc layerClock) timed(op int, layer, name string, f func()) time.Duration {
	var el time.Duration
	c := lc.host.around(func() { el = lc.tr.timed(0, op, layer, name, f) })
	return time.Duration(float64(el) / c)
}

// timedAll is timed for a call that uses every processor.
func (lc layerClock) timedAll(op int, layer, name string, f func()) time.Duration {
	var el time.Duration
	c := lc.host.aroundAll(func() { el = lc.tr.timed(0, op, layer, name, f) })
	return time.Duration(float64(el) / c)
}

// driveLayers produces the per-layer metrics of a traced run.
func driveLayers(f *fixture, rec *recordOut, rep *replayOut, fl *fleetOut, budget time.Duration, lc layerClock, res *result) error {
	each := budget / 17 // the drives below are seventeen such time boxes
	if err := driveRecordLayers(f, rec, each, lc, res); err != nil {
		return fmt.Errorf("record layers: %w", err)
	}
	if err := driveReplayLayers(rec, rep, each, lc, res); err != nil {
		return fmt.Errorf("replay layers: %w", err)
	}
	if err := driveFleetLayers(f, fl, each, lc, res); err != nil {
		return fmt.Errorf("fleet layers: %w", err)
	}

	for _, samples := range fl.open {
		for i := range samples {
			sm := &samples[i]
			rep.traced.add("upload", sm.span != 0, sm.ackMS*1e6)
		}
	}
	res.set("trace_overhead_share", rep.traced.overhead())
	return nil
}

func driveRecordLayers(f *fixture, rec *recordOut, each time.Duration, lc layerClock, res *result) error {
	def := f.def
	// Three machines at the same point of the same program: unrecorded,
	// with empty hooks, and recorded; their slices interleave so that
	// drift in the host hits all three alike.
	plainM, plainDone := warmMachine(f.prog)
	hookM, hookDone := warmMachine(f.prog)
	hookMachine(hookM, emptyHooks{m: hookM})
	recM, recDone := warmMachine(f.prog)
	cfg, _, err := recorderConfig(def, filepath.Join(f.dir, "layer-regions"))
	if err != nil {
		return err
	}
	defer closeRegions(cfg)
	recorder := core.NewRecorder(recM, cfg)
	var plainNS, hookNS, recNS []float64
	slice := func(m *kernel.Machine, done *uint64, name string, i int) float64 {
		start, d, n, c := timedSlice(lc.host, m, done)
		lc.tr.add(0, 50_000+i, layerOf(name), name, start, start.Add(d))
		return float64(d.Nanoseconds()) / float64(n) / c
	}
	err = timeBox(4*each, 3, func(i int) error {
		p := slice(plainM, &plainDone, "kernel.Machine.Run unrecorded", i)
		h := slice(hookM, &hookDone, "cpu.Run empty hooks", i)
		r := slice(recM, &recDone, "core.Recorder recorded", i)
		if i > 0 {
			plainNS, hookNS, recNS = append(plainNS, p), append(hookNS, h), append(recNS, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := recorder.Err(); err != nil {
		return err
	}
	unrecorded, recorded := median(plainNS), median(recNS)
	hook := median(hookNS) - unrecorded
	res.timing("kernel.unrecorded_ns_per_instr", rounds{plainNS})
	res.set("cpu.hook_dispatch_ns_per_instr", hook)
	res.set("core.record_slowdown_x", recorded/unrecorded)
	res.note("record_ns_per_instr_interleaved", recorded)

	// Capture one slice's access stream.
	capM, capDone := warmMachine(f.prog)
	hooks := &captureHooks{m: capM}
	hookMachine(capM, hooks)
	_, n := advance(capM, &capDone, sliceInstr)
	d := &layerDrive{def: def, stream: hooks.stream, instr: n, threads: len(capM.Threads)}
	ops := float64(len(d.stream))
	loggable := 0
	for i := range d.stream {
		if d.stream[i].kind != accWordStore {
			loggable++
		}
	}
	res.set("cpu.loggable_ops_per_kinstr", float64(loggable)/(float64(n)/1000))

	perInstr := func(v []float64) float64 { return median(v) / float64(n) } // ns per guest instruction
	var writeNS, closeNS []float64
	intervals := 0
	// The spans cover a whole pass, allocation of the layer's state
	// included; the metrics use the time of the loop over the stream.
	ns := func(d time.Duration, contention float64) float64 { return float64(d.Nanoseconds()) / contention }
	// drive runs one layer's pass over the stream for each, at least three
	// times, and returns every pass but the first, which fills the caches.
	drive := func(op int, layer, name string, pass func() time.Duration) []float64 {
		var out []float64
		_ = timeBox(each, 3, func(i int) error {
			var el time.Duration
			c := lc.around(op+i, layer, name, func() { el = pass() })
			if i > 0 {
				out = append(out, ns(el, c))
			}
			return nil
		})
		return out
	}
	cacheNS := drive(51_000, "cache", "Hierarchy FL drive", d.driveCache)
	dictNS := drive(52_000, "dict", "Table drive", d.driveDict)
	_ = timeBox(each, 3, func(i int) error {
		var w, cl time.Duration
		c := lc.around(53_000+i, "fll", "Writer drive", func() { w, cl, intervals = d.driveFLL() })
		if i > 0 {
			writeNS, closeNS = append(writeNS, ns(w, c)), append(closeNS, ns(cl, c))
		}
		return nil
	})
	var cohNS []float64
	if d.threads > 1 {
		cohNS = drive(54_000, "coherence", "Directory drive", d.driveCoherence)
	}
	logged := 0
	for _, l := range d.logged {
		if l {
			logged++
		}
	}
	res.set("cache.ns_per_access", median(cacheNS)/ops)
	res.set("dict.ns_per_value", median(dictNS)/float64(loggable))
	res.set("fll.write_ns_per_op", median(writeNS)/float64(loggable))
	res.set("fll.close_us_per_interval", median(closeNS)/1e3/float64(max(intervals, 1)))
	res.set("coherence.ns_per_access", median(cohNS)/ops)
	res.note("drive_logged_values", float64(logged))

	// Append the intervals the FLL drive encoded into a fresh region of
	// the workload's kind, pass after pass (the budget evicts), then load
	// back what it retains.
	store, err := openRegion(def, filepath.Join(f.dir, "layer-append"))
	if err != nil {
		return err
	}
	defer store.Close()
	var appendUS []float64
	var appendBytes, appendNS float64
	stamp := uint64(0)
	if err := timeBox(each, 2, func(pass int) error {
		// One span and one pair of probes per pass: an append takes
		// microseconds, and a span each would cost as much as the append.
		took := make([]time.Duration, 0, len(d.encoded))
		var err error
		c := lc.around(55_000+pass, "logstore", "Store.Append every interval", func() {
			for _, e := range d.encoded {
				it := e.Item
				it.Timestamp, stamp = stamp, stamp+1
				t0 := time.Now()
				if err = store.Append(it, e.Data); err != nil {
					return
				}
				took = append(took, time.Since(t0))
			}
		})
		if err != nil || pass == 0 {
			return err
		}
		for i, el := range took {
			appendUS = append(appendUS, ns(el, c)/1e3)
			appendBytes, appendNS = appendBytes+float64(len(d.encoded[i].Data)), appendNS+ns(el, c)
		}
		return nil
	}); err != nil {
		return err
	}
	var loadUS []float64
	c := lc.around(56_000, "logstore", "Store.Load every retained interval", func() {
		for _, it := range store.All() {
			t0 := time.Now()
			if _, err = store.Load(it.Seq); err != nil {
				return
			}
			loadUS = append(loadUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	})
	if err != nil {
		return err
	}
	for i := range loadUS {
		loadUS[i] /= c
	}
	res.timing("logstore.append_us_per_interval", rounds{appendUS})
	res.set("logstore.append_mb_per_s", appendBytes/1e6/(appendNS/1e9))
	res.timing("logstore.load_us_per_interval", rounds{loadUS})
	appendPerInstr := median(appendUS) * 1e3 * float64(len(d.encoded)) / float64(n)

	// Counts of the recorded run itself, at its snapshot: they repeat
	// exactly from run to run.
	kinstr := float64(rec.instr) / 1000
	res.set("cache.l1_miss_share", ratio(float64(rec.cache.L1Misses), float64(rec.cache.L1Hits+rec.cache.L1Misses)))
	res.set("cache.first_load_share", ratio(float64(rec.loggedOps), float64(rec.totalOps)))
	res.set("dict.hit_share", ratio(float64(rec.dict.Hits), float64(rec.dict.Lookups)))
	res.set("mrl.bytes_per_kinstr", float64(rec.mrl.TotalBytes)/kinstr)
	res.set("logstore.evictions_per_interval", ratio(float64(rec.fll.EvictedCount), float64(rec.fll.TotalCount)))
	res.set("logstore.retained_bytes", float64(rec.fll.RetainedBytes+rec.mrl.RetainedBytes))
	res.set("logstore.disk_segments_live", float64(rec.segments))
	res.set("core.intervals_per_minstr", float64(rec.intervals)/(float64(rec.instr)/1e6))
	res.set("core.allocs_per_interval", ratio(float64(rec.mallocs), float64(rec.intervals)))
	res.set("core.gc_cycles", float64(rec.gcCycles))
	res.set("core.gc_pause_ms_total", float64(rec.gcPauseNS)/1e6)

	// The ledger: what the layers driven alone add up to, against the
	// recorded slice. Writer.Op calls the dictionary itself, so the FLL
	// figure already holds the dictionary's time.
	attributed := unrecorded + hook + perInstr(cacheNS) + perInstr(writeNS) + perInstr(closeNS) + perInstr(cohNS) + appendPerInstr
	res.set("core.record_unattributed_share", 1-attributed/recorded)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerOf is the module prefix of a span name such as "cpu.Run empty hooks".
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

func driveReplayLayers(rec *recordOut, rep *replayOut, each time.Duration, lc layerClock, res *result) error {
	img, archive := rec.img, rec.archive
	unpacked, err := report.Unpack(archive)
	if err != nil {
		return err
	}
	tids := threadIDs(unpacked)
	var intervals int
	var fllBits, fllEntries, mrlEntries, encodedBytes float64
	for _, tid := range tids {
		for _, ref := range unpacked.FLLs[tid] {
			intervals++
			fllBits, fllEntries = fllBits+float64(ref.EntryBits), fllEntries+float64(ref.NumEntries)
			encodedBytes += float64(ref.EncodedLen())
		}
	}
	for _, refs := range unpacked.MRLs {
		for _, ref := range refs {
			mrlEntries += float64(ref.NumEntries)
		}
	}
	windowK := float64(rep.window) / 1000
	res.set("fll.bits_per_logged_value", ratio(fllBits, fllEntries))
	res.set("mrl.entries_per_kinstr", mrlEntries/windowK)
	logBytes := float64(unpacked.FLLStats.RetainedBytes + unpacked.MRLStats.RetainedBytes)
	res.set("report.archive_bytes_per_log_byte", ratio(float64(len(archive)), logBytes))

	var unpackMS, packMS, decodeMBs []float64
	if err := timeBox(each, layerOps, func(i int) error {
		var r *core.CrashReport
		el := lc.timed(60_000+i, "report", "Unpack", func() { r, err = report.Unpack(archive) })
		if err != nil {
			return err
		}
		unpackMS = append(unpackMS, ms(el))
		el = lc.timed(60_000+i, "report", "Pack", func() { _, err = report.Pack(r) })
		if err != nil {
			return err
		}
		packMS = append(packMS, ms(el))
		el = lc.timed(60_000+i, "fll", "Ref.Open every interval", func() {
			for _, tid := range tids {
				for _, ref := range r.FLLs[tid] {
					if _, err = ref.Open(); err != nil {
						return
					}
				}
			}
		})
		if err != nil {
			return err
		}
		decodeMBs = append(decodeMBs, encodedBytes/1e6/el.Seconds())
		return nil
	}); err != nil {
		return err
	}
	res.timing("report.unpack_ms", rounds{unpackMS})
	res.timing("report.pack_ms", rounds{packMS})
	res.timing("fll.decode_mb_per_s", rounds{decodeMBs})

	// Replay alone, the archive already unpacked: sequential, fan-out on
	// one worker, fan-out on every processor.
	replayAll := func(name string, op int, everyProcessor bool, run func(tid int) (*core.ReplayResult, error)) (float64, error) {
		var err error
		timed := lc.timed
		if everyProcessor {
			timed = lc.timedAll
		}
		el := timed(op, layerOf(name), name, func() {
			for _, tid := range tids {
				if _, err = run(tid); err != nil {
					return
				}
			}
		})
		return ms(el), err
	}
	fan := func(workers int) func(int) (*core.ReplayResult, error) {
		o := parreplay.Options{Workers: workers, LogCodeLoads: unpacked.LogCodeLoads, DictOptions: unpacked.DictOptions}
		return func(tid int) (*core.ReplayResult, error) { return parreplay.ReplayThread(img, unpacked.FLLs[tid], o) }
	}
	var seqMS, oneMS, parMS []float64
	var seqAlloc, parAlloc uint64
	var m0, m1 runtime.MemStats
	if err := timeBox(2*each, layerOps, func(i int) error {
		runtime.ReadMemStats(&m0)
		s, err := replayAll("core.Replayer.Run", 61_000+i, false, func(tid int) (*core.ReplayResult, error) {
			return replayerFor(img, unpacked, tid).Run()
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		seqAlloc = m1.TotalAlloc - m0.TotalAlloc
		one, err := replayAll("parreplay.ReplayThread one worker", 61_000+i, false, fan(1))
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		p, err := replayAll("parreplay.ReplayThread every processor", 61_000+i, true, fan(runtime.GOMAXPROCS(0)))
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		parAlloc = m1.TotalAlloc - m0.TotalAlloc
		if i > 0 {
			seqMS, oneMS, parMS = append(seqMS, s), append(oneMS, one), append(parMS, p)
		}
		return nil
	}); err != nil {
		return err
	}
	seq := median(seqMS)
	res.set("core.replay_ns_per_instr", seq*1e6/float64(rep.window))
	res.set("core.replay_alloc_bytes_per_kinstr", float64(seqAlloc)/windowK)
	res.set("parreplay.speedup_x", seq/median(parMS))
	res.note("parreplay_speedup_base_ms", seq)
	res.set("parreplay.unit_overhead_us", (median(oneMS)-seq)*1e3/float64(intervals))
	res.set("parreplay.alloc_bytes_per_kinstr", float64(parAlloc)/windowK)
	before := parreplay.SequentialFallbacks()
	if _, err := parreplay.ReplayReport(img, unpacked, parreplay.ReportOptions{}); err != nil {
		return err
	}
	res.set("parreplay.sequential_fallbacks", float64(parreplay.SequentialFallbacks()-before))

	// Snapshot and restore in the middle of the debugged thread's window.
	debugged := tids[0]
	if unpacked.Crash != nil {
		debugged = unpacked.Crash.TID
	}
	rm := replayerFor(img, unpacked, debugged).Machine(core.MachineOptions{TrackKnown: true})
	if _, err := rm.StepN(rm.Window() / 2); err != nil {
		return err
	}
	var snapUS []float64
	const snapBatch = 64 // per span, for the same reason as the appends
	if err := timeBox(each, layerOps, func(i int) error {
		el := lc.timed(62_000+i, "core", "ReplayMachine.Snapshot+Restore x64", func() {
			for k := 0; k < snapBatch; k++ {
				rm.Restore(rm.Snapshot())
			}
		})
		snapUS = append(snapUS, float64(el.Nanoseconds())/1e3/snapBatch)
		return nil
	}); err != nil {
		return err
	}
	res.timing("core.snapshot_restore_us", rounds{snapUS})

	// The time-travel engine: continue against plain replay of the same
	// thread, its checkpoints, and a reverse-continue that finds nothing.
	var contMS, plainMS []float64
	var e *timetravel.Engine
	if err := timeBox(each, 3, func(i int) error {
		e = nil
		var err error
		if e, _, err = timetravel.NewEngineForThread(img, unpacked, debugged, timetravel.Config{}); err != nil {
			return err
		}
		el := lc.timed(63_000+i, "timetravel", "Continue", func() { _, err = e.Continue() })
		if err != nil {
			return err
		}
		contMS = append(contMS, ms(el))
		el = lc.timed(63_000+i, "core", "Replayer.Run", func() { _, err = replayerFor(img, unpacked, debugged).Run() })
		plainMS = append(plainMS, ms(el))
		return err
	}); err != nil {
		return err
	}
	count, bytes := e.Checkpoints()
	res.set("timetravel.continue_ns_per_instr", median(contMS)*1e6/float64(e.Window()))
	res.set("timetravel.checkpoint_overhead_x", median(contMS)/median(plainMS))
	res.set("timetravel.checkpoints", float64(count))
	res.set("timetravel.checkpoint_mb", float64(bytes)/(1<<20))
	res.timing("timetravel.seek_ms_p50", rep.seekMS)
	res.timingAt("timetravel.reverse_step_ms_p99", rep.rstepMS, 0.99)
	e.AddBreak(math.MaxUint32 &^ 3) // no guest code lives there: the scan visits every gap and stops at the start
	var why timetravel.StopReason
	el := lc.timed(64_000, "timetravel", "ReverseContinue no hit", func() { why, err = e.ReverseContinue() })
	if err != nil || why != timetravel.StopStart {
		return fmt.Errorf("reverse-continue with an unreachable breakpoint: stopped at %v, err %v", why, err)
	}
	res.set("timetravel.reverse_continue_ms", ms(el))
	return nil
}

func driveFleetLayers(f *fixture, fl *fleetOut, each time.Duration, lc layerClock, res *result) error {
	// Fresh archives beyond the schedule, one per bug in turn.
	next := 0
	fresh := func() ([]byte, error) {
		blob, err := f.corpus.fresh(next % len(f.corpus.reports))
		next++
		return blob, err
	}

	store, err := triage.OpenStore(filepath.Join(f.dir, "layer-store"), 0)
	if err != nil {
		return err
	}
	var putMS []float64
	if err := timeBox(each, 2, func(pass int) error {
		// One span per round over the bugs, as for the appends.
		blobs := make([][]byte, len(f.corpus.reports))
		for i := range blobs {
			if blobs[i], err = fresh(); err != nil {
				return err
			}
		}
		took := make([]time.Duration, 0, len(blobs))
		c := lc.around(70_000+pass, "triage", "Store.Put one archive per bug", func() {
			for _, blob := range blobs {
				t0 := time.Now()
				if _, _, err = store.Put(blob); err != nil {
					return
				}
				took = append(took, time.Since(t0))
			}
		})
		if err != nil || pass == 0 {
			return err
		}
		for _, el := range took {
			putMS = append(putMS, ms(el)/c)
		}
		return nil
	}); err != nil {
		return err
	}
	res.timing("triage.store_put_ms_p50", rounds{putMS})

	// One idle service with one replay worker: ingest a never-seen
	// archive, wait for its verdict, ingest the same bytes again.
	svc, err := triage.New(triage.Config{Dir: filepath.Join(f.dir, "layer-service"), Workers: 1,
		Resolver: f.reg.Resolve})
	if err != nil {
		return err
	}
	defer svc.Close()
	var directMS, dupMS, verdictMS []float64
	if err := timeBox(2*each, 2*len(f.corpus.reports), func(i int) error {
		blob, err := fresh()
		if err != nil {
			return err
		}
		var r *triage.IngestResult
		el := lc.timed(71_000+i, "triage", "Service.Ingest", func() { r, err = svc.Ingest(blob) })
		if err != nil {
			return err
		}
		wait := lc.timed(71_000+i, "triage", "ingest-return to verdict", svc.WaitIdle)
		m, ok := svc.Report(r.ID)
		if !res.check(ok && m.Verdict != nil && m.Verdict.State == triage.VerdictDone && m.Verdict.Reproduced,
			"direct ingest %d: verdict %+v", i, m.Verdict) {
			return nil
		}
		dup := lc.timed(71_000+i, "triage", "Service.Ingest duplicate", func() { r, err = svc.Ingest(blob) })
		if err != nil {
			return err
		}
		res.check(r.Duplicate, "direct ingest %d: the second upload of the same bytes was not a duplicate", i)
		if i > 0 {
			directMS, verdictMS, dupMS = append(directMS, ms(el)), append(verdictMS, ms(wait)), append(dupMS, ms(dup))
		}
		return nil
	}); err != nil {
		return err
	}
	res.timing("triage.ingest_direct_ms_p50", rounds{directMS})
	res.timing("triage.ingest_duplicate_ms_p50", rounds{dupMS})
	res.timing("triage.queue_to_verdict_ms_p50", rounds{verdictMS})

	// The fleet stage's own rounds, from the registry the services and
	// nodes publish into.
	a, c := fl.obs[0], fl.obs[1]
	nSent, nDistinct := fl.uploads()
	sent, distinct := float64(nSent), float64(nDistinct)
	var replayBusy, ingestBusy, closedWall float64
	for i, w := range fl.closedObs {
		replayBusy += w[1].since(w[0], "bugnet_triage_replay_seconds_sum", "")
		ingestBusy += w[1].since(w[0], "bugnet_triage_ingest_seconds_sum", "")
		closedWall += fl.closedWall[i].Seconds()
	}
	res.set("triage.replay_busy_share", replayBusy/(closedWall*fleetNodes*fleetWorkers))
	res.set("triage.ingest_busy_s", ingestBusy)
	res.set("triage.verdict_cache_hit_share", ratio(c.since(a, "bugnet_triage_verdict_cache_total", `result="hit"`),
		c.since(a, "bugnet_triage_verdict_cache_total", "")))
	res.set("triage.queue_depth_max", float64(fl.depthMax))
	res.set("cluster.forwards_per_report", c.since(a, "bugnet_cluster_forwards_total", "")/sent)
	res.set("cluster.shed_share", c.since(a, "bugnet_cluster_shed_total", "")/sent)
	res.set("cluster.quorum_failures", c.since(a, "bugnet_cluster_quorum_failures_total", ""))
	res.set("cluster.replay_amplification_x", c.since(a, "bugnet_triage_verdicts_total", "")/distinct)

	ack, verdict, late := fl.openLatencies()
	ackP50, verdictP50 := median(ack.pool()), median(verdict.pool())
	res.timing("cluster.ingest_ms_p50", ack)
	res.timing("cluster.crash_to_verdict_ms_p50", verdict)
	res.timingAt("cluster.crash_to_verdict_ms_p95", verdict, 0.95)
	res.timing("cluster.verdicts_per_s", fl.closedRates())
	res.set("cluster.fanout_overhead_ms_p50", ackP50-median(directMS))
	// Fan-out overhead plus direct ingest is the ack; what is left after
	// the idle queue-to-verdict time is what the ledger does not explain.
	res.set("triage.ledger_residual_share", math.Abs(verdictP50-ackP50-median(verdictMS))/verdictP50)
	res.timingAt("loadgen.late_ms_p95", late, 0.95)
	return nil
}
