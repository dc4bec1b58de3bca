package core

import (
	"fmt"
	"hash/crc32"

	"bugnet/internal/asm"
	"bugnet/internal/cache"
	"bugnet/internal/coherence"
	"bugnet/internal/cpu"
	"bugnet/internal/dict"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/logstore"
	"bugnet/internal/mrl"
	"bugnet/internal/ring"
)

// Recorder is the BugNet hardware model. It implements kernel.Hooks and
// installs per-CPU hooks on every thread the machine starts; everything it
// produces lands in the two memory-backed log stores.
type Recorder struct {
	cfg Config
	m   *kernel.Machine

	threads []*threadRec
	dir     *coherence.Directory // nil on uniprocessors
	red     *mrl.Reducer

	flls *logstore.Store
	mrls *logstore.Store

	// loggedOps / totalOps give the first-load filter rate for the
	// experiment harness. exportedLogged/exportedTotal are the watermarks
	// already published to the process metrics (see exportCounters).
	loggedOps      uint64
	totalOps       uint64
	exportedLogged uint64
	exportedTotal  uint64

	// fllMeta/mrlMeta cache the finalized metadata of the *retained*
	// intervals, indexed by store sequence number, so Report can hand out
	// lazy views without re-reading the whole window from the backend.
	// Seq keys cannot collide — unlike the (TID, CID) pairs of a store
	// that recovered an earlier run's items — so the cache is always
	// maintained; recovered items simply miss it and re-parse from their
	// bytes. After every commit the caches are pruned against the stores'
	// eviction frontier (OldestLiveSeq), so recorder memory stays bounded
	// by the region budget even under continuous recording.
	fllMeta seqFIFO[fll.Meta]
	mrlMeta seqFIFO[mrl.Meta]

	// Staged appends: finalized intervals accumulate here and commit in
	// one AppendBatch per store, so multi-thread flushes and crash
	// collections pay one lock acquisition and one eviction pass. The
	// staged bytes sit in their threads' encode buffers until the stores
	// have copied them.
	fllPend     []logstore.AppendEntry
	mrlPend     []logstore.AppendEntry
	fllPendMeta []fll.Meta
	mrlPendMeta []mrl.Meta

	// err is the first report-assembly failure (an interval that no longer
	// loads back from its store); see Err.
	err error
}

// threadRec is the per-processor recording state: the structures of the
// paper's Figure 1 that exist once per core.
type threadRec struct {
	tid     int
	c       *cpu.CPU
	cache   *cache.Hierarchy
	dict    *dict.Table
	cid     uint32
	nextCID uint32
	startIC uint64
	w       *fll.Writer
	mw      *mrl.Writer
	// wPool/mwPool recycle the writers (and their grown entry buffers)
	// across intervals, and enc/menc are the buffers a closing interval's
	// FLL and MRL are encoded into, reused once commit has handed the
	// bytes to the stores: the steady-state wire path allocates nothing.
	wPool   *fll.Writer
	mwPool  *mrl.Writer
	enc     []byte
	menc    []byte
	trace   *traceRing
	started bool

	// bus-model sampling state
	prevBits   uint64
	prevMisses uint64
}

// NewRecorder attaches a BugNet recorder to the machine. It must be called
// before machine.Run.
func NewRecorder(m *kernel.Machine, cfg Config) *Recorder {
	cfg.fillDefaults()
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = len(m.Threads)
	}
	r := &Recorder{
		cfg:     cfg,
		m:       m,
		threads: make([]*threadRec, len(m.Threads)),
		flls:    cfg.FLLStore,
		mrls:    cfg.MRLStore,
	}
	if r.flls == nil {
		r.flls = logstore.New(cfg.FLLBudget)
	}
	if r.mrls == nil {
		r.mrls = logstore.New(cfg.MRLBudget)
	}
	r.flls.Instrument("fll")
	r.mrls.Instrument("mrl")
	if len(m.Threads) > 1 {
		r.dir = coherence.New(len(m.Threads), cfg.Cache.L1.BlockBytes)
		r.red = mrl.NewReducer(len(m.Threads))
	}
	m.SetHooks(r)
	// Attaching to a running machine (recording starts mid-execution, as
	// continuous recording does after a warm-up): treat every live thread
	// as newly started.
	if m.Started() {
		for _, th := range m.Threads {
			if th.State == kernel.ThreadRunnable {
				r.OnThreadStart(th.ID)
			}
		}
	}
	return r
}

// Flush finalizes all open checkpoint intervals. Call it when recording
// ends without a fault or exit (for example when an experiment's step
// budget expires) so the final partial intervals land in the log stores.
//
// Flush is idempotent: finalizing closes each thread's writer, and
// staging refuses threads with no open writer, so a second Flush (or a
// Flush after a fault already collected the logs) appends nothing — no
// empty duplicate intervals reach the stores.
func (r *Recorder) Flush() {
	for _, t := range r.threads {
		r.stageInterval(t, fll.EndExit, nil)
	}
	r.commit()
}

// Err returns the first log-store failure recording swallowed (a disk
// spill that could not be written or reclaimed). The hardware hooks have
// no error path, so recording keeps going — tools must check Err before
// trusting the retained window.
func (r *Recorder) Err() error {
	if err := r.err; err != nil {
		return err
	}
	if err := r.flls.Err(); err != nil {
		return err
	}
	return r.mrls.Err()
}

// Config returns the recorder's effective configuration.
func (r *Recorder) Config() Config { return r.cfg }

// FLLStore returns the First-Load Log store (the CB's memory region).
func (r *Recorder) FLLStore() *logstore.Store { return r.flls }

// MRLStore returns the Memory Race Log store (the MRB's memory region).
func (r *Recorder) MRLStore() *logstore.Store { return r.mrls }

// LoggedOps returns (logged, total) loggable-operation counts: the
// effectiveness of the first-load filter (paper §4.3).
func (r *Recorder) LoggedOps() (logged, total uint64) { return r.loggedOps, r.totalOps }

// CacheStats returns the cache event counters of one thread's hierarchy.
func (r *Recorder) CacheStats(tid int) cache.Stats {
	if t := r.threads[tid]; t != nil {
		return t.cache.Stats()
	}
	return cache.Stats{}
}

// DictStats returns the dictionary hit statistics of one thread.
func (r *Recorder) DictStats(tid int) dict.Stats {
	if t := r.threads[tid]; t != nil {
		return t.dict.Stats()
	}
	return dict.Stats{}
}

// Trace returns the verification trace of a thread (oldest first), empty
// unless Config.TraceDepth was set.
func (r *Recorder) Trace(tid int) []TraceEntry {
	if t := r.threads[tid]; t != nil && t.trace != nil {
		return t.trace.entries()
	}
	return nil
}

// --- kernel.Hooks implementation ---

// OnThreadStart builds the per-core recording state and begins the first
// checkpoint interval.
func (r *Recorder) OnThreadStart(tid int) {
	t := &threadRec{
		tid:   tid,
		c:     r.m.Threads[tid].CPU,
		cache: cache.New(r.cfg.Cache),
		dict:  dict.NewWithOptions(r.cfg.DictSize, r.cfg.DictOptions),
	}
	r.threads[tid] = t
	t.c.OnLoggable = func(wordAddr uint32, isWrite bool) { r.loggable(t, wordAddr, isWrite) }
	t.c.OnWordStore = func(wordAddr uint32) { r.wordStore(t, wordAddr) }
	if r.cfg.TraceDepth > 0 {
		t.trace = newTraceRing(r.cfg.TraceDepth)
	}
	if t.trace != nil || r.cfg.LogCodeLoads || r.cfg.Bus != nil {
		t.c.OnFetch = func(pc uint32) { r.fetch(t, pc) }
	}
	t.started = true
	r.startInterval(t)
}

// OnInterrupt terminates the thread's checkpoint interval before the
// kernel runs (paper §4.4: "prematurely terminating the current checkpoint
// interval on encountering an interrupt").
func (r *Recorder) OnInterrupt(tid int, kind kernel.InterruptKind) {
	end := fll.EndTimer
	if kind == kernel.IntSyscall {
		end = fll.EndSyscall
	}
	r.endInterval(r.threads[tid], end, nil)
}

// OnInterruptReturn starts a fresh interval when control returns to user
// code, capturing the post-interrupt architectural state in the header.
func (r *Recorder) OnInterruptReturn(tid int) {
	r.startInterval(r.threads[tid])
}

// OnKernelWrite invalidates cached copies (and their first-load bits) of
// memory the kernel wrote, so the new values are logged on next load
// (paper §4.5).
func (r *Recorder) OnKernelWrite(tid int, addr uint32, n uint32) {
	r.externalWrite(addr, n)
}

// OnDMAWrite handles asynchronous DMA completions the same way: the
// directory-based protocol invalidates cached blocks, resetting FL bits
// (paper §4.5).
func (r *Recorder) OnDMAWrite(addr uint32, n uint32) {
	r.externalWrite(addr, n)
}

// OnKernelPreWrite and OnDMAPreWrite are pre-image hooks for undo-logging
// recorders; BugNet needs nothing before the write happens.
func (r *Recorder) OnKernelPreWrite(tid int, addr uint32, n uint32) {}

// OnDMAPreWrite implements kernel.Hooks.
func (r *Recorder) OnDMAPreWrite(addr uint32, n uint32) {}

func (r *Recorder) externalWrite(addr, n uint32) {
	for _, t := range r.threads {
		if t != nil {
			t.cache.InvalidateRange(addr, n)
		}
	}
	if r.dir != nil {
		r.dir.ExternalWriteRange(addr, n)
	}
}

// OnThreadExit finalizes the thread's last interval.
func (r *Recorder) OnThreadExit(tid int) {
	r.endInterval(r.threads[tid], fll.EndExit, nil)
}

// OnFault is the crash path (paper §4.8): the OS records the interval
// instruction count and faulting PC in the current FLL, then collects all
// logs. Other threads' intervals are finalized so the whole window stays
// replayable.
func (r *Recorder) OnFault(tid int, f *cpu.FaultInfo) {
	t := r.threads[tid]
	rec := &fll.FaultRecord{
		IC:    t.c.IC - t.startIC,
		PC:    f.PC,
		Cause: uint8(f.Cause),
	}
	r.stageInterval(t, fll.EndFault, rec)
	for _, o := range r.threads {
		if o != nil && o != t {
			r.stageInterval(o, fll.EndExit, nil)
		}
	}
	mRecordFaults.Inc()
	r.commit()
}

// --- per-CPU hooks ---

// loggable implements the first-load logging decision for one loggable
// memory operation (paper §4.3).
func (r *Recorder) loggable(t *threadRec, wordAddr uint32, isWrite bool) {
	r.maybeRotate(t)
	if r.dir != nil {
		if isWrite {
			r.replies(t, wordAddr, r.dir.Store(t.tid, wordAddr), true)
		} else {
			r.replies(t, wordAddr, r.dir.Load(t.tid, wordAddr), false)
		}
	}
	wasSet := t.cache.LoadTestAndSetFL(wordAddr)
	val, err := r.m.Mem.LoadWord(wordAddr)
	if err != nil {
		// The CPU validated the access before the hook; this is a bug.
		panic(fmt.Sprintf("core: recorder read of validated word %#x failed: %v", wordAddr, err))
	}
	t.w.Op(val, !wasSet)
	r.totalOps++
	if !wasSet {
		r.loggedOps++
	}
	r.feedBus(t)
}

// wordStore implements the store rule: set the first-load bit, log nothing
// (paper §4.3: "the stores will be generated by the execution of
// instructions during replay").
func (r *Recorder) wordStore(t *threadRec, wordAddr uint32) {
	r.maybeRotate(t)
	if r.dir != nil {
		r.replies(t, wordAddr, r.dir.Store(t.tid, wordAddr), true)
	}
	t.cache.StoreSetFL(wordAddr)
	r.feedBus(t)
}

// feedBus forwards newly produced log bits and demand misses to the bus
// overhead model.
func (r *Recorder) feedBus(t *threadRec) {
	if r.cfg.Bus == nil {
		return
	}
	if t.w != nil {
		if bits := t.w.Bits(); bits > t.prevBits {
			r.cfg.Bus.LogBits(bits - t.prevBits)
			t.prevBits = bits
		}
	}
	if misses := t.cache.Stats().L2Misses; misses > t.prevMisses {
		for i := t.prevMisses; i < misses; i++ {
			r.cfg.Bus.Miss()
		}
		t.prevMisses = misses
	}
}

// fetch handles the OnFetch hook: verification tracing and, under the
// LogCodeLoads extension, first-load logging of instruction words.
func (r *Recorder) fetch(t *threadRec, pc uint32) {
	if r.cfg.Bus != nil {
		r.cfg.Bus.Instruction()
	}
	if t.trace != nil {
		t.trace.push(TraceEntry{PC: pc, RegHash: hashRegs(&t.c.Regs)})
	}
	if r.cfg.LogCodeLoads {
		wordAddr := pc &^ 3
		if !r.m.Mem.Mapped(wordAddr) {
			return // the fetch is about to fault; nothing to log
		}
		r.maybeRotate(t)
		wasSet := t.cache.LoadTestAndSetFL(wordAddr)
		val, _ := r.m.Mem.LoadWord(wordAddr)
		t.w.Op(val, !wasSet)
		r.totalOps++
		if !wasSet {
			r.loggedOps++
		}
	}
}

// replies processes coherence replies for an operation: writes invalidate
// the remote copies (clearing their FL bits, §4.6), and every reply
// carries remote state recorded as an MRL entry unless Netzer reduction
// proves it redundant (§4.6.3).
func (r *Recorder) replies(t *threadRec, addr uint32, remotes []int, isWrite bool) {
	for _, rt := range remotes {
		o := r.threads[rt]
		if o == nil {
			continue
		}
		if isWrite {
			o.cache.InvalidateBlock(addr)
		}
		if !r.cfg.DisableNetzer && !r.red.Observe(t.tid, t.c.IC, rt, o.c.IC) {
			continue
		}
		t.mw.Add(mrl.Entry{
			LocalIC:   t.c.IC - t.startIC,
			RemoteTID: uint32(rt),
			RemoteCID: o.cid,
			RemoteIC:  o.c.IC - o.startIC,
		})
	}
}

// --- interval lifecycle ---

// maybeRotate ends the interval at the configured length. The check sits
// on the loggable-operation path, so an interval may exceed the limit by
// the length of an operation-free instruction stretch; the recorded Length
// is always exact, so replay is unaffected.
func (r *Recorder) maybeRotate(t *threadRec) {
	if t.c.IC-t.startIC >= r.cfg.IntervalLength {
		r.endInterval(t, fll.EndIntervalFull, nil)
		r.startInterval(t)
	}
}

// startInterval creates a new checkpoint: assign a C-ID, snapshot the
// architectural state into a fresh FLL header, clear FL bits (unless the
// PreserveFLBits extension is on), empty the dictionary, and open the
// paired MRL (paper §4.2, §4.6.3).
func (r *Recorder) startInterval(t *threadRec) {
	t.cid = t.nextCID
	t.nextCID++
	t.startIC = t.c.IC
	t.dict.Reset()
	if !r.cfg.PreserveFLBits {
		t.cache.ClearAllFL()
	}
	hdr := fll.Header{
		PID:           r.cfg.PID,
		TID:           uint32(t.tid),
		CID:           t.cid,
		Timestamp:     r.m.Now(),
		IntervalLimit: r.cfg.IntervalLength,
		DictSize:      uint32(r.cfg.DictSize),
		State:         t.c.State(),
	}
	if t.wPool != nil {
		t.w, t.wPool = t.wPool, nil
		t.w.Reset(hdr, t.dict)
	} else {
		t.w = fll.NewWriter(hdr, t.dict)
	}
	t.prevBits = 0
	if r.cfg.Bus != nil {
		r.cfg.Bus.LogBits(fll.HeaderBytes * 8)
	}
	if r.dir != nil {
		mh := mrl.Header{
			PID: r.cfg.PID, TID: uint32(t.tid), CID: t.cid, Timestamp: hdr.Timestamp,
		}
		if t.mwPool != nil {
			t.mw, t.mwPool = t.mwPool, nil
			t.mw.Reset(mh, r.cfg.IntervalLength, uint32(r.cfg.MaxThreads))
		} else {
			t.mw = mrl.NewWriter(mh, r.cfg.IntervalLength, uint32(r.cfg.MaxThreads))
		}
	}
}

// endInterval finalizes the thread's current FLL (and MRL) straight to
// their wire encodings and retains the bytes in the log stores. Nothing
// decoded outlives the interval: replay re-materializes a log on demand
// through the lazy views Report hands out.
func (r *Recorder) endInterval(t *threadRec, end fll.EndKind, fault *fll.FaultRecord) {
	r.stageInterval(t, end, fault)
	r.commit()
}

// stageInterval closes the thread's writers and stages the encoded
// interval for the next commit. Multi-thread paths (Flush, the crash
// collection) stage every thread first and commit once, batching the
// store appends.
func (r *Recorder) stageInterval(t *threadRec, end fll.EndKind, fault *fll.FaultRecord) {
	if t == nil || t.w == nil {
		return
	}
	length := t.c.IC - t.startIC
	meta, data := t.w.AppendEncoded(t.enc[:0], length, end, fault)
	t.enc = data
	t.wPool, t.w = t.w, nil
	r.fllPend = append(r.fllPend, logstore.AppendEntry{
		Item: logstore.Item{
			TID:          t.tid,
			CID:          t.cid,
			Timestamp:    meta.Timestamp,
			Bytes:        meta.SizeBytes(),
			Instructions: length,
		},
		Data: data,
	})
	r.fllPendMeta = append(r.fllPendMeta, meta)
	if t.mw != nil {
		mm, mdata := t.mw.AppendEncoded(t.menc[:0])
		t.menc = mdata
		t.mwPool, t.mw = t.mw, nil
		r.mrlPend = append(r.mrlPend, logstore.AppendEntry{
			Item: logstore.Item{
				TID:       t.tid,
				CID:       t.cid,
				Timestamp: mm.Timestamp,
				Bytes:     mm.SizeBytes(),
			},
			Data: mdata,
		})
		r.mrlPendMeta = append(r.mrlPendMeta, mm)
	}
}

// commit appends all staged intervals, one batch per store, records their
// metadata under the assigned sequence numbers, and prunes cache entries
// for everything the stores have evicted. Store failures are sticky and
// surface through Err, exactly as on the unbatched path.
func (r *Recorder) commit() {
	r.exportCounters()
	if len(r.fllPend) > 0 {
		n, _ := r.flls.AppendBatch(r.fllPend)
		for i := 0; i < n; i++ {
			r.fllMeta.put(r.fllPend[i].Item.Seq, r.fllPendMeta[i])
		}
		r.fllPend = r.fllPend[:0]
		r.fllPendMeta = r.fllPendMeta[:0]
		r.fllMeta.prune(r.flls.OldestLiveSeq())
	}
	if len(r.mrlPend) > 0 {
		n, _ := r.mrls.AppendBatch(r.mrlPend)
		for i := 0; i < n; i++ {
			r.mrlMeta.put(r.mrlPend[i].Item.Seq, r.mrlPendMeta[i])
		}
		r.mrlPend = r.mrlPend[:0]
		r.mrlPendMeta = r.mrlPendMeta[:0]
		r.mrlMeta.prune(r.mrls.OldestLiveSeq())
	}
}

// seqFIFO holds one value per consecutive store sequence number, oldest
// first: a window that slides with the store's.
type seqFIFO[T any] struct {
	vals ring.Queue[T]
	base uint64 // sequence number of the oldest value
}

func (q *seqFIFO[T]) len() int { return q.vals.Len() }

// put records v under seq. A seq that does not continue the window (another
// writer appended to the store in between) restarts it: what was held is
// forgotten, and Report re-parses those items from their bytes.
func (q *seqFIFO[T]) put(seq uint64, v T) {
	if seq != q.base+uint64(q.len()) {
		q.vals.Drop(q.len())
		q.base = seq
	}
	q.vals.Push(v)
}

// get returns the value recorded under seq, if one is held.
func (q *seqFIFO[T]) get(seq uint64) (v T, ok bool) {
	if seq < q.base || seq-q.base >= uint64(q.len()) {
		return v, false
	}
	return q.vals.At(int(seq - q.base)), true
}

// prune forgets every sequence number below oldest.
func (q *seqFIFO[T]) prune(oldest uint64) {
	if oldest > q.base {
		k := min(oldest-q.base, uint64(q.len()))
		q.vals.Drop(int(k))
		q.base += k
	}
}

// --- results ---

// BinaryID identifies the exact program a report was recorded from.
// Replay requires the same binaries loaded at the same addresses (paper
// §5.1, §5.3: the "binary starting address log"); checking the id catches
// version skew before a confusing divergence error does.
type BinaryID struct {
	Name     string
	TextBase uint32
	Entry    uint32
	TextLen  uint32
	TextCRC  uint32
}

// IdentifyBinary computes the id of an image.
func IdentifyBinary(img *asm.Image) BinaryID {
	return BinaryID{
		Name:     img.Name,
		TextBase: img.TextBase,
		Entry:    img.Entry,
		TextLen:  uint32(len(img.Text)),
		TextCRC:  crc32.ChecksumIEEE(img.Text),
	}
}

// Matches reports whether img is the binary this id was recorded from.
func (b BinaryID) Matches(img *asm.Image) error {
	got := IdentifyBinary(img)
	got.Name = b.Name // names may differ (paths); identity is content
	if got != b {
		return fmt.Errorf("core: binary mismatch: report recorded from %q (text %d bytes, crc %#x at %#x), given image has text %d bytes, crc %#x at %#x",
			b.Name, b.TextLen, b.TextCRC, b.TextBase, got.TextLen, got.TextCRC, got.TextBase)
	}
	return nil
}

// CrashReport is what BugNet ships back to the developer: the retained
// logs of every thread plus the crash identity. The developer combines it
// with the exact same binaries to replay (paper §5.1). Logs travel as
// lazy views — metadata decoded, entry streams materialized on demand —
// so a report over a disk-spilled or file-backed window never needs the
// whole window in memory.
type CrashReport struct {
	PID    uint32
	Binary BinaryID
	// LogCodeLoads and DictOptions echo the recording configuration that
	// replay must match; they travel with the report so the receiving
	// side can configure its replayers without out-of-band knowledge.
	LogCodeLoads bool
	DictOptions  dict.Options
	Crash        *kernel.CrashInfo // nil if the program did not crash
	FLLs         map[int][]*fll.Ref
	MRLs         map[int][]*mrl.Ref
	// FLLStats and MRLStats snapshot the recording log regions' occupancy
	// and eviction churn at collection time: how much of the execution the
	// window covers and how much the budget discarded (paper §7.2).
	FLLStats logstore.Stats
	MRLStats logstore.Stats
}

// CheckWindow refuses a report whose claimed replay window (the sum of
// its FLL interval lengths over all threads) exceeds budget instructions:
// replay executes exactly what the logs claim. Lengths are untrusted
// u64s, so the incremental check keeps the sum from wrapping.
func (r *CrashReport) CheckWindow(budget uint64) error {
	var window uint64
	for _, logs := range r.FLLs {
		for _, l := range logs {
			if l.Length > budget-window {
				return fmt.Errorf("claimed replay window exceeds the %d-instruction budget", budget)
			}
			window += l.Length
		}
	}
	return nil
}

// Report collects the retained logs as lazy views over the log stores.
// Call after machine.Run returns, and keep the recorder's stores open for
// as long as the report is replayed or packed. An interval that no longer
// loads back (spill corruption) is dropped from the report and surfaces
// through Err.
func (r *Recorder) Report() *CrashReport {
	rep := &CrashReport{
		PID:          r.cfg.PID,
		Binary:       IdentifyBinary(r.m.Img),
		LogCodeLoads: r.cfg.LogCodeLoads,
		DictOptions:  r.cfg.DictOptions,
		Crash:        r.m.Crash(),
		FLLs:         make(map[int][]*fll.Ref),
		MRLs:         make(map[int][]*mrl.Ref),
		FLLStats:     r.flls.Stats(),
		MRLStats:     r.mrls.Stats(),
	}
	for _, it := range r.flls.All() {
		// The cached metadata makes report assembly pure bookkeeping — no
		// re-read of the window. Items the cache has no entry for
		// (recovered from an earlier run) re-parse from their bytes.
		if m, ok := r.fllMeta.get(it.Seq); ok {
			rep.FLLs[it.TID] = append(rep.FLLs[it.TID],
				fll.NewLazyRef(m, it.EncodedBytes, r.flls.Loader(it.Seq)))
			continue
		}
		ref, err := fll.OpenLazy(r.flls.Loader(it.Seq))
		if err != nil {
			r.fail(fmt.Errorf("core: FLL T%d C%d unreadable: %w", it.TID, it.CID, err))
			continue
		}
		rep.FLLs[it.TID] = append(rep.FLLs[it.TID], ref)
	}
	for _, it := range r.mrls.All() {
		if m, ok := r.mrlMeta.get(it.Seq); ok {
			rep.MRLs[it.TID] = append(rep.MRLs[it.TID],
				mrl.NewLazyRef(m, it.EncodedBytes, r.mrls.Loader(it.Seq)))
			continue
		}
		ref, err := mrl.OpenLazy(r.mrls.Loader(it.Seq))
		if err != nil {
			r.fail(fmt.Errorf("core: MRL T%d C%d unreadable: %w", it.TID, it.CID, err))
			continue
		}
		rep.MRLs[it.TID] = append(rep.MRLs[it.TID], ref)
	}
	return rep
}

// fail records the first report-assembly failure.
func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Record is the one-call convenience path: build a machine for img, attach
// a recorder, run to completion, and return the machine result, the crash
// report, and the recorder for statistics.
func Record(img *asm.Image, kcfg kernel.Config, rcfg Config) (*kernel.Result, *CrashReport, *Recorder) {
	m := kernel.New(img, kcfg, nil)
	rec := NewRecorder(m, rcfg)
	res := m.Run()
	return res, rec.Report(), rec
}
