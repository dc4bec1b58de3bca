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
// produces lands in the two log stores.
//
// It runs in two stages, split along the paper's Figure 1. The guest side
// — the hooks, on the machine's goroutine — keeps the caches and their
// first-load bits, coherence, the Memory Race Log's entries and encoding,
// and the decision where an interval ends, and appends one event per
// loggable operation and per interval start and end to an event stream.
// The log stage (encoder.go) — dictionary, FLL packing, interval close,
// FLL and MRL region appends — consumes that stream on an encoder
// goroutine while Machine.Run executes, and is settled by the time Run
// returns (OnPause) and by Flush, Report, Err, LoggedOps and DictStats. A
// Recorder is used from one goroutine at a time.
type Recorder struct {
	cfg Config
	m   *kernel.Machine

	// Guest side.
	threads []*threadRec
	dir     *coherence.Directory // nil on uniprocessors
	red     *mrl.Reducer

	// The event stream (encoder.go): cur is the chunk the guest appends
	// to; inline (set with a bus model) encodes every event as it is
	// written.
	stream   stream
	cur      *chunk
	inline   bool
	encodeFn func()

	// Log stage: owned by the encoder goroutine while it runs, by whoever
	// settled the stage otherwise, like every field below. The guest side
	// only fills an empty fl entry as its thread starts (newFLLThread).
	fl   []*fllThread // by thread id
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
	// one AppendBatch per store at the next commit event, so multi-thread
	// flushes and crash collections pay one lock acquisition and one
	// eviction pass. The staged bytes sit in their threads' log-stage
	// buffers (fllThread) until the stores have copied them.
	fllPend     []logstore.AppendEntry
	mrlPend     []logstore.AppendEntry
	fllPendMeta []fll.Meta
	mrlPendMeta []mrl.Meta

	// err is the first report-assembly failure (an interval that no longer
	// loads back from its store); see Err.
	err error
}

// threadRec is the guest side's per-processor recording state: the
// structures of the paper's Figure 1 that exist once per core, but for the
// dictionary and the FLL writer, which the log stage keeps (fllThread).
type threadRec struct {
	tid     int
	tag     uint64 // the thread's id, placed in an event word
	c       *cpu.CPU
	cache   *cache.Hierarchy
	cid     uint32
	nextCID uint32
	startIC uint64
	open    bool // an interval is open: its start is in the stream, its end not yet
	mw      *mrl.Writer
	// mwPool recycles the MRL writer (and its grown entry buffer) across
	// intervals; a closing interval's MRL is encoded into its chunk
	// (stageInterval).
	mwPool *mrl.Writer
	trace  *traceRing

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
		fl:      make([]*fllThread, len(m.Threads)),
		flls:    cfg.FLLStore,
		mrls:    cfg.MRLStore,
		inline:  cfg.Bus != nil,
	}
	r.encodeFn = r.encoder
	r.stream.stop = make(chan struct{})
	r.stream.enc.init(encoderSpin)
	r.stream.guest.init(0)
	for i := range r.stream.ring {
		if i == 0 || !r.inline {
			r.stream.ring[i] = newChunk()
		}
	}
	r.cur = r.stream.ring[0]
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
		for _, c := range r.stream.ring {
			if c != nil {
				c.mrls = make([]byte, 0, chunkMRLBytes)
			}
		}
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
	r.settle()
}

// Err returns the first log-store failure recording swallowed (a disk
// spill that could not be written or reclaimed). The hardware hooks have
// no error path, so recording keeps going — tools must check Err before
// trusting the retained window.
func (r *Recorder) Err() error {
	r.settle()
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

// FLLStore returns the First-Load Log store (the CB's memory region). Read
// it between Machine.Run calls or after Flush: while Run executes, the log
// stage is still appending to it.
func (r *Recorder) FLLStore() *logstore.Store { return r.flls }

// MRLStore returns the Memory Race Log store (the MRB's memory region).
func (r *Recorder) MRLStore() *logstore.Store { return r.mrls }

// LoggedOps returns (logged, total) loggable-operation counts: the
// effectiveness of the first-load filter (paper §4.3).
func (r *Recorder) LoggedOps() (logged, total uint64) {
	r.settle()
	return r.loggedOps, r.totalOps
}

// CacheStats returns the cache event counters of one thread's hierarchy.
func (r *Recorder) CacheStats(tid int) cache.Stats {
	if t := r.threads[tid]; t != nil {
		return t.cache.Stats()
	}
	return cache.Stats{}
}

// DictStats returns the dictionary hit statistics of one thread.
func (r *Recorder) DictStats(tid int) dict.Stats {
	r.settle()
	if ft := r.fl[tid]; ft != nil {
		return ft.dict.Stats()
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
		tag:   uint64(tid) << evTIDShift,
		c:     r.m.Threads[tid].CPU,
		cache: cache.New(r.cfg.Cache),
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
	if r.fl[tid] == nil {
		r.fl[tid] = newFLLThread(r.cfg, r.dir != nil)
	}
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

// OnPause settles the log stage as Machine.Run returns: the encoder
// goroutine finishes the stream and exits, so nothing the recorder
// started outlives Run and every read between runs sees the whole log.
func (r *Recorder) OnPause() { r.settle() }

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
	r.emitOp(t, val, !wasSet)
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
// overhead model. A recorder with a bus model encodes inline, so the
// thread's FLL writer already holds the operation's bits.
func (r *Recorder) feedBus(t *threadRec) {
	if r.cfg.Bus == nil {
		return
	}
	if w := r.fl[t.tid].w; w != nil {
		if bits := w.Bits(); bits > t.prevBits {
			r.cfg.Bus.LogBits(bits - t.prevBits)
			t.prevBits = bits
		}
	}
	if misses := t.cache.L2Misses(); misses > t.prevMisses {
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
		r.emitOp(t, val, !wasSet)
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
// architectural state into a fresh FLL header (the log stage opens the
// FLL and empties the dictionary when the start event reaches it), clear
// FL bits (unless the PreserveFLBits extension is on), and open the
// paired MRL (paper §4.2, §4.6.3).
func (r *Recorder) startInterval(t *threadRec) {
	t.cid = t.nextCID
	t.nextCID++
	t.startIC = t.c.IC
	if !r.cfg.PreserveFLBits {
		t.cache.ClearAllFL()
	}
	t.open = true
	now := r.m.Now()
	c := r.cur
	c.hdrs = append(c.hdrs, fll.Header{
		PID:           r.cfg.PID,
		TID:           uint32(t.tid),
		CID:           t.cid,
		Timestamp:     now,
		IntervalLimit: r.cfg.IntervalLength,
		DictSize:      uint32(r.cfg.DictSize),
		State:         t.c.State(),
	})
	r.emitMark(evStart | t.tag)
	t.prevBits = 0
	if r.cfg.Bus != nil {
		r.cfg.Bus.LogBits(fll.HeaderBytes * 8)
	}
	if r.dir != nil {
		mh := mrl.Header{
			PID: r.cfg.PID, TID: uint32(t.tid), CID: t.cid, Timestamp: now,
		}
		if t.mwPool != nil {
			t.mw, t.mwPool = t.mwPool, nil
			t.mw.Reset(mh, r.cfg.IntervalLength, uint32(r.cfg.MaxThreads))
		} else {
			t.mw = mrl.NewWriter(mh, r.cfg.IntervalLength, uint32(r.cfg.MaxThreads))
		}
	}
}

// endInterval closes the thread's current interval and commits it.
func (r *Recorder) endInterval(t *threadRec, end fll.EndKind, fault *fll.FaultRecord) {
	r.stageInterval(t, end, fault)
	r.commit()
}

// stageInterval closes the thread's interval: its end event goes to the
// log stage, which finalizes the FLL and stages it with the interval's
// MRL, encoded here into the chunk beside the event. Multi-thread paths
// (Flush, the crash collection) stage every thread first and commit once,
// batching the store appends. A thread with no open interval is refused,
// which makes Flush idempotent.
func (r *Recorder) stageInterval(t *threadRec, end fll.EndKind, fault *fll.FaultRecord) {
	if t == nil || !t.open {
		return
	}
	t.open = false
	c := r.cur
	e := intervalEnd{length: t.c.IC - t.startIC, kind: end, fault: fault}
	if t.mw != nil {
		e.mrlAt = len(c.mrls)
		e.mrl, c.mrls = t.mw.AppendEncoded(c.mrls)
		e.mrlEnd = len(c.mrls)
		t.mwPool, t.mw = t.mw, nil
	}
	c.ends = append(c.ends, e)
	r.emitMark(evEnd | t.tag)
}

// commit marks the end of a batch of staged intervals: the log stage
// appends them, one batch per store, when the mark reaches it
// (commitStaged).
func (r *Recorder) commit() { r.emitMark(evCommit) }

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
	r.settle()
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
		load := r.flls.Loader(it.Seq)
		m, ok := r.fllMeta.get(it.Seq)
		if !ok {
			data, err := load()
			if err == nil {
				m, err = fll.ParseMeta(data)
			}
			if err != nil {
				r.fail(fmt.Errorf("core: FLL T%d C%d unreadable: %w", it.TID, it.CID, err))
				continue
			}
		}
		rep.FLLs[it.TID] = append(rep.FLLs[it.TID], fll.NewLazyRef(m, it.EncodedBytes, load))
	}
	for _, it := range r.mrls.All() {
		load := r.mrls.Loader(it.Seq)
		m, ok := r.mrlMeta.get(it.Seq)
		if !ok {
			data, err := load()
			if err == nil {
				m, err = mrl.ParseMeta(data)
			}
			if err != nil {
				r.fail(fmt.Errorf("core: MRL T%d C%d unreadable: %w", it.TID, it.CID, err))
				continue
			}
		}
		rep.MRLs[it.TID] = append(rep.MRLs[it.TID], mrl.NewLazyRef(m, it.EncodedBytes, load))
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
