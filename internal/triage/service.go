package triage

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu"
	"bugnet/internal/faultinject"
	"bugnet/internal/obs"
	"bugnet/internal/parreplay"
	"bugnet/internal/report"
	"bugnet/internal/timetravel"
)

// Config parameterizes a triage service.
type Config struct {
	// Dir is the root of the on-disk report store.
	Dir string
	// Budget is the store's retained-bytes budget (<= 0: unlimited).
	Budget int64
	// Workers is the size of the replay worker pool (default 2).
	Workers int
	// Resolver maps a report's BinaryID to a replayable image; typically
	// (*ImageRegistry).Resolve. Required.
	Resolver func(core.BinaryID) (*asm.Image, error)
	// MaxReplayWindow bounds the total instructions one report's replay
	// may claim (sum of FLL interval lengths over all threads). Lengths
	// are attacker-controlled u64s and replay executes exactly what they
	// claim, so an unbounded window would let one upload pin a worker
	// forever (default timetravel.DefaultMaxWindow, the debug sessions'
	// bound too).
	MaxReplayWindow uint64
	// FS routes the store's write-side I/O through a fault-injection
	// plane; nil (the production default) calls the os package directly.
	FS *faultinject.FS
}

// maxQueue bounds the triage backlog; Ingest applies backpressure by
// blocking when the queue is full.
const maxQueue = 1024

// maxBuckets bounds the bucket table. Every other resource here is
// budgeted; without this one, uploads with fabricated crash PCs could grow
// bucket memory forever. At the cap, the lowest-count bucket is evicted to
// admit the newcomer.
const maxBuckets = 65536

// DefaultMaxReplayPages caps one report's replay memory in 4 KB pages
// (64 MB), split evenly across its threads. Untrusted logs control
// replayed register state, and replay memory auto-maps on first touch, so
// without a cap a crafted report could stride-allocate the server to
// death; exceeding the per-thread share surfaces as a memory fault in the
// verdict. Replay fans a report's intervals out across GOMAXPROCS workers
// and the cap binds each interval there, so a report's replay peaks at
// this cap times the replay width (see package parreplay). Shared with the
// debug-session layer for the same reason.
const DefaultMaxReplayPages = 16384

// Verdict states.
const (
	VerdictPending = "pending" // queued or replaying
	VerdictDone    = "done"    // replay completed
	VerdictFailed  = "failed"  // replay errored (divergence, bad logs, unknown binary)
)

// Frame is one instruction of the crash backtrace.
type Frame struct {
	PC     uint32 `json:"pc"`
	Disasm string `json:"disasm"`
}

// Verdict is the machine-readable outcome of automatically replaying a
// report: did the recorded window actually reproduce the crash the
// recorder claimed, what does the tail of execution look like, and what
// races did the replay expose.
type Verdict struct {
	State string `json:"state"`
	// Reproduced is true when the deterministically replayed window of
	// the crashing thread actually arrives at the fault record's PC —
	// the replay-verifiable part of "the crash reproduces".
	Reproduced bool `json:"reproduced"`
	// Cause and PC describe the replayed fault.
	Cause string `json:"cause,omitempty"`
	PC    uint32 `json:"pc,omitempty"`
	// MatchesReported is true when the replayed fault agrees with the
	// crash record the recorder uploaded (same cause and PC) — the check
	// that catches corrupted or mislabeled field reports.
	MatchesReported bool `json:"matches_reported"`
	// Races are the data races inferred during the multithreaded replay.
	Races []string `json:"races,omitempty"`
	// Backtrace is the last-K-instruction trail of the crashing thread,
	// oldest first, ending at the faulting instruction.
	Backtrace []Frame `json:"backtrace,omitempty"`
	// Instructions is the total replayed instruction count (all threads).
	Instructions uint64 `json:"instructions"`
	// Error holds the failure description when State == "failed".
	Error string `json:"error,omitempty"`
}

// clone returns a copy of v; nil stays nil.
func (v *Verdict) clone() *Verdict {
	if v == nil {
		return nil
	}
	cp := *v
	return &cp
}

// Bucket aggregates every upload of one field crash.
type Bucket struct {
	Key       string    `json:"key"`
	Signature Signature `json:"signature"`
	// Count is the number of uploads that hashed into this bucket,
	// including byte-identical duplicates of stored reports.
	Count int `json:"count"`
	// ReportIDs are the distinct stored archives observed (exemplars;
	// capped, and blobs may age out of the store independently).
	ReportIDs []string `json:"report_ids"`
	// Verdict is the triage outcome of the bucket's first report.
	Verdict *Verdict `json:"verdict,omitempty"`
}

// maxExemplars caps the report IDs kept per bucket; the bucket count keeps
// growing past it.
const maxExemplars = 16

// ReportMeta describes one stored archive: a copy of its store record.
type ReportMeta struct {
	ID        string   `json:"id"`
	Bytes     int64    `json:"bytes"`
	BucketKey string   `json:"bucket"`
	Verdict   *Verdict `json:"verdict,omitempty"`
}

// IngestResult is what an upload returns.
type IngestResult struct {
	ID        string `json:"id"`
	BucketKey string `json:"bucket"`
	// Duplicate is true when the archive was already stored; duplicates
	// raise the bucket count without storing or replaying anything.
	Duplicate bool `json:"duplicate"`
}

// job is one queued replay. It carries only the content address and the
// bucket key: holding decoded reports in the queue would multiply peak
// memory by the backlog depth, so the worker re-reads and re-decodes from
// the store. The bucket key rides along so a verdict can still reach its
// bucket when the report was evicted while the job waited.
type job struct {
	id        string
	bucketKey string
	requestID string
}

// Service is the ingestion and triage pipeline: content-addressed storage,
// crash bucketing, and a replay worker pool. A stored report's bucket key
// and verdict live in its store record (see Store); the service keeps the
// buckets and the verdicts owed. s.mu is taken before the store's lock.
type Service struct {
	cfg   Config
	store *Store

	mu      sync.Mutex
	cond    *sync.Cond
	buckets map[string]*Bucket
	// awaited holds the archives ingested with Origin.Replayer set whose
	// verdict has not arrived. Each counts once in pending. The set is
	// memory only: a restart forgets it, and recovery replays whatever it
	// finds without a stored verdict.
	awaited map[string]Awaited
	// onVerdict, when set, receives every done verdict a worker completes.
	onVerdict func(id string, v *Verdict, requestID string)
	pending   int
	closed    bool

	jobs      chan job
	wg        sync.WaitGroup
	ingesting sync.WaitGroup // in-flight Ingest calls; Close waits before closing jobs

	// bucketCap is maxBuckets; tests lower it to reach the cap.
	bucketCap int

	// recoveryDone closes when startup re-triage of on-disk blobs ends;
	// WaitIdle waits on it so "idle" includes recovered work.
	recoveryDone chan struct{}
}

// ErrClosed reports an Ingest after Close.
var ErrClosed = errors.New("triage: service closed")

// errEvictedBeforeTriage marks a verdict whose report aged out of the
// store before its replay ran. It reaches only the bucket: the report's
// record went with its blob, and a re-upload of the same content files
// and triages it afresh.
const errEvictedBeforeTriage = "report evicted before triage"

// New builds a service and starts its worker pool.
func New(cfg Config) (*Service, error) {
	if cfg.Resolver == nil {
		return nil, errors.New("triage: Config.Resolver is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxReplayWindow == 0 {
		cfg.MaxReplayWindow = timetravel.DefaultMaxWindow
	}
	st, err := openStore(cfg.Dir, cfg.Budget, cfg.FS)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		store:     st,
		buckets:   make(map[string]*Bucket),
		awaited:   make(map[string]Awaited),
		jobs:      make(chan job, maxQueue),
		bucketCap: maxBuckets,
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Re-triage archives left over from a previous run so a restarted
	// server rebuilds its buckets and verdicts from disk. This runs in the
	// background: a store holding more reports than the queue bound must
	// not keep New (and therefore the HTTP listener) hostage until the
	// backlog replays. A blob that no longer decodes (damaged after write,
	// or a foreign file wearing a valid name) would otherwise sit in the
	// budget forever, invisible to every listing — reclaim it instead.
	s.recoveryDone = make(chan struct{})
	leftover := st.IDs() // snapshot now: blobs ingested after New are not "recovered"
	go func() {
		defer close(s.recoveryDone)
		for _, id := range leftover {
			data, err := st.Get(id)
			if err != nil {
				// Only reclaim when the bytes are really gone; a transient
				// read error (EIO, fd exhaustion) must not destroy
				// evidence — the blob gets another chance next start.
				if os.IsNotExist(err) || !st.Has(id) {
					st.Delete(id)
				}
				continue
			}
			res, err := s.ingestBytes(data, true)
			if err == nil {
				// A blob filed under a name that is not its content hash
				// (tampering, botched restore) was just re-stored under
				// its real address by the ingest; reclaim the misnamed
				// copy so it cannot squat in the budget.
				if res.ID != id {
					st.Delete(id)
				}
				continue
			}
			if errors.Is(err, ErrClosed) {
				return // shutting down; don't misread closure as corruption
			}
			st.Delete(id) // the content itself is undecodable
		}
		// Blobs found at non-canonical shard paths at open time: re-ingest
		// the readable ones under their true address, then remove the
		// stray copies. Evidence is preserved; junk is reclaimed.
		for _, p := range st.Strays() {
			data, err := os.ReadFile(p)
			if err != nil {
				continue // transient: leave the stray for the next start
			}
			switch _, err := s.ingestBytes(data, true); {
			case errors.Is(err, ErrClosed):
				return
			case err == nil, errors.Is(err, report.ErrBadArchive):
				// Safely re-homed, or junk content: either way the stray
				// copy has nothing left to offer.
				os.Remove(p)
			default:
				// Transient store failure (disk full, EIO): this may be
				// the only copy — keep it for the next start.
			}
		}
	}()
	return s, nil
}

// Close stops the worker pool after draining queued jobs.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.ingesting.Wait()
	close(s.jobs)
	s.wg.Wait()
}

// Store exposes the underlying blob store (read-only use).
func (s *Service) Store() *Store { return s.store }

// Healthy reports whether the archive store can accept writes. A
// degraded store re-probes the disk (rate limited), so a healed disk
// restores service without a restart. Ingest handlers shed with 503
// while this returns non-nil.
func (s *Service) Healthy() error { return s.store.Healthy() }

// Ingest accepts one uploaded archive held in memory: validate, store,
// bucket, and queue a replay if the content is new. For uploads that
// should never transit memory whole, see IngestFile.
func (s *Service) Ingest(data []byte) (*IngestResult, error) {
	return s.ingestBytes(data, false)
}

// begin guards an ingest against shutdown; the caller must call
// s.ingesting.Done() when it returns nil.
func (s *Service) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.ingesting.Add(1)
	return nil
}

// IngestFile adopts an already-spooled upload whose content address the
// caller computed while writing path (id must be the hex SHA-256 of the
// file's bytes, like Store.PutWithID's contract). The cluster layer uses
// it to ingest the coordinator's spool file without a second disk copy:
// the file is consumed on success (renamed into the store, or deleted
// when the content already existed). from says which request brought the
// archive and whether another node replays it (see Origin).
func (s *Service) IngestFile(id, path string, size int64, from Origin) (res *IngestResult, err error) {
	start := time.Now()
	defer func() { observeIngest(start, size, res, err, false) }()
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.ingesting.Done()

	put := func() (bool, error) { return s.store.AdoptFile(id, path) }
	sig := func() (Signature, error) {
		a, err := report.OpenFile(path)
		if err != nil {
			return Signature{}, err
		}
		defer a.Close()
		return SignatureOf(a.Report()), nil
	}
	return s.ingestCore(id, put, sig, from, false)
}

func (s *Service) ingestBytes(data []byte, recovered bool) (res *IngestResult, err error) {
	start := time.Now()
	defer func() { observeIngest(start, int64(len(data)), res, err, recovered) }()
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.ingesting.Done()

	id := report.ID(data)
	put := func() (bool, error) {
		_, existed, err := s.store.PutWithID(id, data)
		return existed, err
	}
	sig := func() (Signature, error) {
		// Scanning validates every frame and checksum but decodes only
		// metadata — ingest never materializes an entry stream.
		a, err := report.OpenBytes(data)
		if err != nil {
			return Signature{}, err
		}
		return SignatureOf(a.Report()), nil
	}
	return s.ingestCore(id, put, sig, Origin{}, recovered)
}

// ingestCore is the shared accounting behind both ingest paths. put
// stores the blob under id (reporting whether the content already
// existed); sig validates the archive and derives its bucket signature.
func (s *Service) ingestCore(id string, put func() (bool, error), getSig func() (Signature, error), from Origin, recovered bool) (*IngestResult, error) {
	// Fast path for the flood case the subsystem exists for: a
	// byte-identical re-upload of a held report needs one hash and one
	// index lookup, not a full archive decode. Known content was fully
	// validated when first ingested. If its bucket was evicted at the
	// bucket cap, fall through: only a decode can recover the signature
	// needed to rebuild it.
	s.mu.Lock()
	if key, ok := s.store.bucketOf(id); ok && s.buckets[key] != nil {
		s.buckets[key].Count++
		owed := s.takeOverLocked(id, from)
		s.mu.Unlock()
		s.settle(id, owed, from)
		return &IngestResult{ID: id, BucketKey: key, Duplicate: !recovered}, nil
	}
	s.mu.Unlock()

	sig, err := getSig()
	if err != nil {
		return nil, err
	}
	key := sig.Key()
	// Accounting happens after the write succeeds, so a failed store never
	// bumps the count.
	existed, err := put()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	b := s.bucketLocked(key, sig)
	b.Count++
	if b.Verdict == nil {
		// A new bucket, or one evicted at the cap and rebuilt, takes the
		// done verdict its report already carries.
		if v, ok := s.store.Verdict(id); ok {
			b.Verdict = v
		}
	}
	// The ingest that files the report under its bucket owes its verdict.
	// A blob evicted since put was counted and has nothing left to file.
	var owed *job
	if s.store.claim(id, key) {
		s.exemplarLocked(b, id)
		owed = s.oweLocked(id, key, from)
	} else {
		owed = s.takeOverLocked(id, from)
	}
	s.mu.Unlock()

	s.settle(id, owed, from)
	return &IngestResult{ID: id, BucketKey: key, Duplicate: existed && !recovered}, nil
}

// exemplarLocked lists id among b's report ids unless it is there or the
// list is full. Ids the store has evicted are dropped first, so the cap
// counts held reports. Caller holds s.mu.
func (s *Service) exemplarLocked(b *Bucket, id string) {
	b.ReportIDs = s.store.held(b.ReportIDs)
	if len(b.ReportIDs) < maxExemplars && !slices.Contains(b.ReportIDs, id) {
		b.ReportIDs = append(b.ReportIDs, id)
	}
}

// recordVerdictLocked attaches a final verdict to its report and bucket
// and retires it from pending. A done verdict reached the report's record
// through Store.PutVerdict. The bucket is found by key, not through the
// record: that may have been evicted while the verdict was owed, and the
// outcome should still reach the aggregate. Caller holds s.mu.
func (s *Service) recordVerdictLocked(id, bucketKey string, v *Verdict) {
	if v.State != VerdictDone {
		s.store.fail(id, v)
	}
	if b := s.buckets[bucketKey]; b != nil && (b.Verdict == nil || b.Verdict.State != VerdictDone) {
		b.Verdict = v
	}
	s.pending--
	mQueueDepth.Set(int64(s.pending))
	s.cond.Broadcast()
}

// bucketLocked finds or creates the bucket for key, evicting the
// lowest-count bucket when the table is at its cap — high-volume
// buckets (the real field crashes) always survive a flood of fabricated
// signatures. Caller holds s.mu.
func (s *Service) bucketLocked(key string, sig Signature) *Bucket {
	if b := s.buckets[key]; b != nil {
		return b
	}
	if len(s.buckets) >= s.bucketCap {
		// Evict the lowest-count bucket of a random sample rather than a
		// full O(cap) scan: at the cap the table is under a flood
		// of fabricated signatures, and every admission holds s.mu. Go's
		// randomized map iteration makes the sample cheap and unbiased;
		// real field crashes (high counts) survive with high probability.
		const sample = 8
		worstKey, worst, scanned := "", -1, 0
		for k, cand := range s.buckets {
			if worst == -1 || cand.Count < worst {
				worstKey, worst = k, cand.Count
			}
			if scanned++; scanned >= sample {
				break
			}
		}
		delete(s.buckets, worstKey)
	}
	b := &Bucket{Key: key, Signature: sig}
	s.buckets[key] = b
	mBuckets.Set(int64(len(s.buckets)))
	return b
}

// worker drains the replay queue, replaying each report straight from
// its store file (it can have aged out between ingest and replay; that is
// a failed verdict, not a crash).
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		v, cached := s.storedVerdict(j.id)
		if !cached {
			start := time.Now()
			v = s.triageOne(j.id)
			mReplaySeconds.Since(start)
			mReplayInstr.Add(v.Instructions)
		}
		if v.State == VerdictDone {
			mVerdictDone.Inc()
		} else {
			mVerdictFailed.Inc()
		}
		s.mu.Lock()
		s.recordVerdictLocked(j.id, j.bucketKey, v)
		hook := s.onVerdict
		s.mu.Unlock()
		if v.State == VerdictDone {
			obs.Logger().Info("verdict done", "report", j.id, "request_id", j.requestID,
				"cached", cached, "instructions", v.Instructions)
			if hook != nil {
				hook(j.id, v, j.requestID)
			}
		}
	}
}

// storedVerdict looks up the verdict stored beside id's archive before a
// replay. A verdict is a pure function of the archive bytes, so a hit is
// exactly what a replay would produce.
func (s *Service) storedVerdict(id string) (*Verdict, bool) {
	v, ok := s.store.Verdict(id)
	if ok {
		mCacheHits.Inc()
	} else {
		mCacheMisses.Inc()
	}
	return v, ok
}

// triageOne opens one stored report for streaming replay: the blob stays
// a file, pinned against eviction for the duration, and only the interval
// being replayed is ever decoded. A done verdict is stored beside the
// blob while the pin still holds it, so the sidecar never outlives its
// archive; failures can be transient and are not stored.
func (s *Service) triageOne(id string) *Verdict {
	path, ok := s.store.Pin(id)
	if !ok {
		return &Verdict{State: VerdictFailed, Error: errEvictedBeforeTriage}
	}
	defer s.store.Unpin(id)
	a, err := report.OpenFile(path)
	if err != nil {
		if errors.Is(err, report.ErrBadArchive) {
			return &Verdict{State: VerdictFailed, Error: err.Error()}
		}
		// Still indexed (we hold a pin): the disk failed us, not the
		// budget. Don't tell the operator the report aged out.
		return &Verdict{State: VerdictFailed, Error: "reading report: " + err.Error()}
	}
	defer a.Close()
	v := s.replay(a.Report())
	if v.State == VerdictDone {
		s.store.PutVerdict(id, v)
	}
	return v
}

// replay runs the automatic-triage replay of one report and produces its
// verdict. Reports come from untrusted uploaders, so a panicking replayer
// is demoted to a failed verdict rather than taking the server down.
func (s *Service) replay(rep *core.CrashReport) (v *Verdict) {
	v = &Verdict{State: VerdictDone}
	defer func() {
		if r := recover(); r != nil {
			v = &Verdict{State: VerdictFailed, Error: fmt.Sprintf("replay panicked: %v", r)}
		}
	}()

	img, err := s.cfg.Resolver(rep.Binary)
	if err != nil {
		return &Verdict{State: VerdictFailed, Error: err.Error()}
	}

	if err := rep.CheckWindow(s.cfg.MaxReplayWindow); err != nil {
		return &Verdict{State: VerdictFailed, Error: err.Error()}
	}

	// The page budget is per report: split it across threads so a
	// max-thread archive cannot multiply it.
	maxPages := DefaultMaxReplayPages
	if threads := len(rep.FLLs); threads > 1 {
		maxPages /= threads
	}
	if maxPages < 1 {
		maxPages = 1
	}
	// parreplay fans the report's checkpoint intervals across GOMAXPROCS
	// workers, and hands an MRL-carrying report, whose races are wanted,
	// to core.MultiReplayer, which runs each thread to its next MRL gate
	// and detects races on that schedule. The report alone picks the
	// schedule, so the verdict is byte-identical whatever the width.
	res, err := parreplay.ReplayReport(img, rep, parreplay.ReportOptions{
		Options: parreplay.Options{
			TraceDepth: timetravel.TraceDepth,
			MaxPages:   maxPages,
		},
		DetectRaces: len(rep.MRLs) > 0,
	})
	if err != nil {
		return &Verdict{State: VerdictFailed, Error: err.Error()}
	}
	for _, tr := range res.Threads {
		v.Instructions += tr.Instructions
	}
	for _, r := range res.Races {
		v.Races = append(v.Races, r.String())
	}

	if rep.Crash == nil || rep.Crash.Fault == nil {
		return v // clean-stop upload: nothing to reproduce
	}
	crash := res.Threads[rep.Crash.TID]
	if crash != nil && crash.Fault != nil {
		// The fault record travels in the log, so it alone proves nothing.
		// The replay-verified fact is arrival: the deterministically
		// re-executed window must actually end with the PC at the claimed
		// faulting instruction (replay covers the window up to the crash;
		// the faulting instruction never commits, §5.1). Reproduced
		// requires it; MatchesReported additionally requires agreement
		// with the upload's own crash metadata.
		v.Reproduced = crash.Final.PC == crash.Fault.PC
		v.Cause = cpu.FaultCause(crash.Fault.Cause).String()
		v.PC = crash.Fault.PC
		v.MatchesReported = v.Reproduced &&
			crash.Fault.PC == rep.Crash.Fault.PC &&
			crash.Fault.Cause == uint8(rep.Crash.Fault.Cause)
	}

	// The crashing thread's trace ring from the replay holds the
	// last-K-instruction backtrace.
	if crash != nil {
		for _, te := range crash.Trace {
			v.Backtrace = append(v.Backtrace, Frame{PC: te.PC, Disasm: img.DisassembleAt(te.PC)})
		}
		// The faulting instruction never commits, so the trace ring ends
		// one instruction short of it; close the backtrace with the fault
		// record's PC.
		if crash.Fault != nil {
			v.Backtrace = append(v.Backtrace, Frame{PC: crash.Fault.PC, Disasm: img.DisassembleAt(crash.Fault.PC)})
			if len(v.Backtrace) > timetravel.TraceDepth {
				v.Backtrace = v.Backtrace[len(v.Backtrace)-timetravel.TraceDepth:]
			}
		}
	}
	return v
}

// OpenReport pins and opens one stored report and resolves its binary —
// the timetravel.ReportSource contract behind remote debug sessions. The
// pin excludes the blob from budget eviction until release runs
// (idempotent), so an open session keeps its evidence alive however hard
// ingest churns the store. The report streams from the store file: the
// session holds lazy views, and release closes the underlying handle.
func (s *Service) OpenReport(id string) (*core.CrashReport, *asm.Image, func(), error) {
	path, ok := s.store.Pin(id)
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: no stored report %q", timetravel.ErrUnknownReport, id)
	}
	unpin := func() { s.store.Unpin(id) }
	a, err := report.OpenFile(path)
	if err != nil {
		unpin()
		return nil, nil, nil, fmt.Errorf("reading report %s: %w", id, err)
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			a.Close()
			unpin()
		})
	}
	rep := a.Report()
	img, err := s.cfg.Resolver(rep.Binary)
	if err != nil {
		release()
		return nil, nil, nil, err
	}
	return rep, img, release, nil
}

// WaitIdle blocks until startup recovery has finished and every owed
// verdict is in: queued replays completed, awaited verdicts adopted.
// Tests and graceful drains use it; steady-state serving never needs to.
func (s *Service) WaitIdle() {
	<-s.recoveryDone
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.pending > 0 {
		s.cond.Wait()
	}
}

// Buckets returns all buckets, most-populated first (ties by key).
func (s *Service) Buckets() []Bucket {
	all, _ := s.BucketsCursor(0, "", false, math.MaxInt)
	return all
}

// ReportsCursor returns up to limit stored-report metas with id strictly
// greater than after (lexicographic — ids are fixed-width hex, so this is
// also hash order), plus whether more remain. It backs the keyset
// pagination of GET /api/v1/reports: the service iterates in id order
// today, but clients only ever see opaque cursors, so the order is free
// to change.
func (s *Service) ReportsCursor(after string, limit int) (items []ReportMeta, more bool) {
	if limit <= 0 {
		limit = 1
	}
	return s.store.reports(after, limit)
}

// BucketsCursor returns up to limit buckets strictly after the position
// (afterCount, afterKey) in the listing order — most-populated first,
// ties by key ascending — plus whether more remain. haveAfter false
// starts from the top. Counts move between pages under concurrent
// ingest; keyset pagination skips or repeats a moved bucket rather than
// shearing the whole page the way offsets would.
func (s *Service) BucketsCursor(afterCount int, afterKey string, haveAfter bool, limit int) (items []Bucket, more bool) {
	if limit <= 0 {
		limit = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]*Bucket, 0, len(s.buckets))
	for _, b := range s.buckets {
		if haveAfter && !(b.Count < afterCount || (b.Count == afterCount && b.Key > afterKey)) {
			continue
		}
		all = append(all, b)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	more = len(all) > limit
	if more {
		all = all[:limit]
	}
	items = make([]Bucket, 0, len(all))
	for _, b := range all {
		items = append(items, s.copyLocked(b))
	}
	return items, more
}

// Bucket returns one bucket by key.
func (s *Service) Bucket(key string) (Bucket, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[key]
	if !ok {
		return Bucket{}, false
	}
	return s.copyLocked(b), true
}

// copyLocked returns a copy of b the caller may keep, listing only the
// report ids the store still holds. Caller holds s.mu.
func (s *Service) copyLocked(b *Bucket) Bucket {
	cp := *b
	cp.ReportIDs = s.store.held(b.ReportIDs)
	cp.Verdict = b.Verdict.clone()
	return cp
}

// Report returns the metadata of one stored archive.
func (s *Service) Report(id string) (ReportMeta, bool) { return s.store.report(id) }

// BucketCount returns the number of buckets without copying them.
func (s *Service) BucketCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buckets)
}

// Pending returns the verdicts still owed: replays queued or running
// here plus verdicts awaited from another node.
func (s *Service) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}
