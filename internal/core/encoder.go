package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"bugnet/internal/dict"
	"bugnet/internal/fll"
	"bugnet/internal/logstore"
	"bugnet/internal/mrl"
)

// The recorder's log stage: the dictionary compressor, the FLL packing, the
// interval close and the appends into the FLL and MRL regions — the
// structures of the paper's Figure 1 that drain the logs beside the
// pipeline (§4.3.1, §4.6, §4.7). The guest side (recorder.go) decides what
// is logged and when an interval ends, and appends one event word per
// decision to the recorder's stream; the stage turns the stream into FLL
// bytes in the order it was written, and appends each interval's MRL, which
// the guest encoded into the chunk, beside its FLL.
//
// The stream is cut into chunks. While Machine.Run is executing, a full
// chunk goes to an encoder goroutine and the guest carries on in an empty
// one; the goroutine starts at the first full chunk of a Run, if the
// process has two processors to spare for the recording (claimProcessors),
// and exits in OnPause, so it never outlives Run and an idle recorder
// holds none. Without the processors the chunks are encoded inline. Every
// other drain point (Flush, Report, Err, LoggedOps, DictStats) settles the
// stage the same way, and outside a Run the stream is encoded on the
// caller's goroutine. A recorder with a bus model encodes each event as it
// is written, since the model charges each operation's bits in order.

// Event words. Every event names its thread; an op carries the word value
// and the logged bit, and the start and end events' payloads ride in the
// chunk's side arrays, consumed in order.
const (
	evLogged    = 1 << 32 // the first-load filter selected the op
	evTIDShift  = 33
	evTIDMask   = 1<<29 - 1
	evKindShift = 62

	evOp     uint64 = 0 << evKindShift
	evStart  uint64 = 1 << evKindShift // an interval opens; payload in hdrs
	evEnd    uint64 = 2 << evKindShift // an interval closes; payload in ends (and mrls)
	evCommit uint64 = 3 << evKindShift // append the closed intervals as one batch
)

// Chunk geometry: chunkCount chunks of chunkEvents events circulate between
// the guest and the encoder, allocated with the recorder so a Run allocates
// none.
const (
	chunkEvents = 4096
	chunkMarks  = 16 // interval starts (and ends) one chunk carries
	chunkCount  = 4

	// chunkMRLBytes is the MRL arena a chunk starts with on a machine with
	// a coherence directory, and mrlCopyBytes the log stage's copy buffer
	// per thread. An MRL encodes in 45 bytes plus 24 per entry; the
	// shared-memory workload's 10,000-instruction intervals log about 150
	// entries, 3.5 KB, and a chunk carries up to four of them. Either
	// buffer grows to the largest content it meets.
	chunkMRLBytes = 16 << 10
	mrlCopyBytes  = 4 << 10

	// A stage with nothing to do polls the other stage's counter. The
	// encoder looks at the clock and yields its processor to any other
	// runnable goroutine every spinPolls polls, and parks once it has
	// waited encoderSpin: longer than the guest takes to fill a chunk, so
	// it parks only when the guest stalls. (Parking at every chunk would
	// cost the guest a wake-up per chunk, and the runtime allocates a wait
	// record now and then when a new encoder parks on a processor whose
	// cache of them is empty: TestRecordSteadyStateDoesNotAllocate counts
	// those.) The guest parks after spinPolls polls: its wait means the
	// encoder is busy.
	spinPolls   = 4096
	encoderSpin = 10 * time.Millisecond
)

// stream is the event stream between the two stages: a fixed ring of
// chunks. The guest fills ring[head%chunkCount] and publishes it by
// advancing head; the encoder encodes ring[tail%chunkCount] and hands the
// slot back by advancing tail. A stage with nothing to do waits in its
// waiter: the encoder spins, yielding to any other goroutine that wants
// its processor, until the guest stalls; the guest parks almost at once.
//
// settle stops the encoder: it raises stopping and parks on a send on the
// unbuffered stop; the encoder, once it has encoded every published chunk,
// polls for that send rather than blocking on it, so the guest has always
// parked first. The runtime then tends to resume the guest on the
// encoder's processor, where the exited encoder's goroutine is kept for
// reuse: the next Run's encoder starts without a new goroutine. Nothing
// depends on that but allocation, which TestRecordSteadyStateDoesNotAllocate
// measures.
type stream struct {
	ring [chunkCount]*chunk
	head atomic.Uint64
	tail atomic.Uint64

	enc, guest waiter
	stopping   atomic.Bool
	stop       chan struct{}
	running    bool // guest side: an encoder was started and not yet settled

	// A panic in encode on the encoder goroutine is caught, kept in
	// panicked and flagged in failed; the guest raises it again at its next
	// handoff, and every settle after that raises it too.
	failed   atomic.Bool
	panicked any
}

// waiter is where one stage parks.
type waiter struct {
	parked atomic.Bool
	bell   chan struct{} // capacity 1: the other stage's wake
	spin   time.Duration
}

func (w *waiter) init(spin time.Duration) {
	w.bell = make(chan struct{}, 1)
	w.spin = spin
}

// wait returns once ready holds. Once the stage has spun as the constants
// above say, it raises the parked flag, looks once more, and sleeps until
// the other stage's wake. Whichever side clears the flag decides whether a
// wake is sent.
func (w *waiter) wait(ready func() bool) {
	var since time.Time
	for i := 1; !ready(); i++ {
		if i%spinPolls != 0 {
			continue
		}
		if w.spin > 0 {
			now := time.Now()
			if since.IsZero() {
				since = now
			}
			if now.Sub(since) < w.spin {
				runtime.Gosched()
				continue
			}
		}
		w.parked.Store(true)
		if !ready() || !w.parked.CompareAndSwap(true, false) {
			<-w.bell
		}
		since = time.Time{}
	}
}

// wake wakes the stage parked in wait, if it is, and reports whether it
// was.
func (w *waiter) wake() bool {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.bell <- struct{}{}
		return true
	}
	return false
}

// chunk is one slice of the event stream. mrls holds the encoded MRLs of
// the intervals its end events close, in order; the chunk returns to the
// guest only once it has been encoded, so neither stage locks it.
type chunk struct {
	ev   []uint64
	hdrs []fll.Header
	ends []intervalEnd
	mrls []byte
}

// intervalEnd is the payload of an end event. On a machine with a
// coherence directory it carries the interval's MRL: its metadata, and
// where its encoding lies in the chunk's mrls.
type intervalEnd struct {
	length        uint64
	kind          fll.EndKind
	fault         *fll.FaultRecord
	mrl           mrl.Meta
	mrlAt, mrlEnd int
}

func newChunk() *chunk {
	return &chunk{
		ev:   make([]uint64, 0, chunkEvents),
		hdrs: make([]fll.Header, 0, chunkMarks),
		ends: make([]intervalEnd, 0, chunkMarks),
	}
}

// fllThread is one thread's share of the log stage: its dictionary and
// FLL writer, the buffer a closing interval is encoded into, and the one
// its MRL is copied into out of the chunk. The writer is w while an
// interval is open and wPool between intervals, so it (and its grown
// entry stream) is reused, and enc and menc are reused once the stores
// have copied the bytes: the steady-state wire path allocates nothing.
type fllThread struct {
	dict  *dict.Table
	w     *fll.Writer
	wPool *fll.Writer
	enc   []byte
	menc  []byte
}

// newFLLThread makes a thread's share of the log stage, with an MRL copy
// buffer if the machine has a coherence directory. The guest side makes
// it as the thread starts, before any event of the thread is in the
// stream, so the log stage allocates none of it inside Run (and a thread
// the recorder attached to gets it in NewRecorder).
func newFLLThread(cfg Config, mrls bool) *fllThread {
	d := dict.NewWithOptions(cfg.DictSize, cfg.DictOptions)
	hdr := fll.Header{IntervalLimit: cfg.IntervalLength, DictSize: uint32(cfg.DictSize)}
	ft := &fllThread{dict: d, wPool: fll.NewWriter(hdr, d)}
	if mrls {
		ft.menc = make([]byte, 0, mrlCopyBytes)
	}
	return ft
}

// emitOp appends one loggable operation to the stream.
func (r *Recorder) emitOp(t *threadRec, val uint32, logged bool) {
	e := t.tag | uint64(val)
	if logged {
		e |= evLogged
	}
	c := r.cur
	c.ev = append(c.ev, e)
	if len(c.ev) == chunkEvents || r.inline {
		r.handoff(true)
	}
}

// emitMark appends an interval start, end or commit event whose payload
// (if any) the caller has already put in the chunk's side arrays.
func (r *Recorder) emitMark(e uint64) {
	c := r.cur
	c.ev = append(c.ev, e)
	if len(c.ev) == chunkEvents || len(c.hdrs) == chunkMarks || len(c.ends) == chunkMarks || r.inline {
		r.handoff(false)
	}
}

// handoff passes the current chunk on. Only an operation — which the CPU
// reports from inside Machine.Run — may start the encoder goroutine, and
// only with two processors claimed for the recording; with none running,
// the chunk is encoded here.
func (r *Recorder) handoff(mayStart bool) {
	s := &r.stream
	if !s.running {
		if !mayStart || r.inline || !claimProcessors() {
			r.encode(r.cur)
			return
		}
		s.running = true
		go r.encodeFn()
	}
	h := s.head.Add(1)
	s.enc.wake()
	s.guest.wait(func() bool { return h-s.tail.Load() < chunkCount || s.failed.Load() })
	if s.failed.Load() {
		r.settle()
	}
	r.cur = s.ring[h%chunkCount]
}

// encoders counts the encoder goroutines running in the process.
var encoders atomic.Int32

// claimProcessors reports whether a recorder may start an encoder
// goroutine, and counts it if so. A recording with one takes two
// processors, its guest's and its encoder's, and GOMAXPROCS (and the CPUs
// the process may use) must have room for every such recording: where
// the processors are all busy, the second stage only adds the hand-off's
// cost. Several recordings at once therefore share the processors out,
// and the ones without two encode inline.
func claimProcessors() bool {
	procs := int32(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	for {
		n := encoders.Load()
		if 2*(n+1) > procs {
			return false
		}
		if encoders.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// encoder is the encoder goroutine: it encodes the published chunks in
// stream order until settle stops it. Handoff starts it through encodeFn,
// the method value bound once in NewRecorder, so a start allocates no
// closure.
func (r *Recorder) encoder() {
	s := &r.stream
	defer r.encoderPanicked()
	for t := s.tail.Load(); ; t++ {
		s.enc.wait(func() bool { return t != s.head.Load() || s.stopping.Load() })
		if t == s.head.Load() {
			for {
				select {
				case <-s.stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}
		r.encode(s.ring[t%chunkCount])
		s.tail.Store(t + 1)
		if s.guest.wake() && t+1 == s.head.Load() {
			// The guest was woken onto this processor's run queue and
			// there is nothing left to encode: let it run here.
			runtime.Gosched()
		}
	}
}

// encoderPanicked catches a panic of the encoder goroutine, hands it to
// the guest and waits for settle's stop.
func (r *Recorder) encoderPanicked() {
	p := recover()
	if p == nil {
		return
	}
	s := &r.stream
	s.panicked = p
	s.failed.Store(true)
	s.guest.wake()
	<-s.stop
}

// settle drains the log stage: once the encoder goroutine (if one runs)
// has encoded every chunk it was handed, it exits, and the current chunk
// is encoded here. Afterwards every effect of the stream is in the stores.
func (r *Recorder) settle() {
	s := &r.stream
	if s.running {
		s.running = false
		s.stopping.Store(true)
		s.enc.wake()
		s.stop <- struct{}{}
		s.stopping.Store(false)
		encoders.Add(-1)
	}
	if s.panicked != nil {
		panic(s.panicked)
	}
	if len(r.cur.ev) > 0 {
		r.encode(r.cur)
	}
}

// encode applies a chunk's events in order and empties it.
func (r *Recorder) encode(c *chunk) {
	hdrs, ends := c.hdrs, c.ends
	for _, e := range c.ev {
		tid := int(e >> evTIDShift & evTIDMask)
		switch e &^ (1<<evKindShift - 1) {
		case evOp:
			r.fl[tid].w.Op(uint32(e), e&evLogged != 0)
			r.totalOps++
			r.loggedOps += e >> 32 & 1
		case evStart:
			r.openFLL(tid, &hdrs[0])
			hdrs = hdrs[1:]
		case evEnd:
			r.closeInterval(tid, &ends[0], c.mrls)
			ends = ends[1:]
		case evCommit:
			r.commitStaged()
		}
	}
	c.ev, c.hdrs, c.ends, c.mrls = c.ev[:0], c.hdrs[:0], c.ends[:0], c.mrls[:0]
}

// openFLL opens a thread's FLL for the interval hdr describes, with an
// empty dictionary (paper §4.2).
func (r *Recorder) openFLL(tid int, hdr *fll.Header) {
	ft := r.fl[tid]
	ft.dict.Reset()
	ft.w, ft.wPool = ft.wPool, nil
	ft.w.Reset(*hdr, ft.dict)
}

// closeInterval finalizes a thread's FLL straight to its wire encoding and
// stages it for the next commit, with the interval's MRL, if it has one,
// from its chunk's arena. Nothing decoded outlives the interval: replay
// re-materializes a log on demand through the lazy views Report hands out.
func (r *Recorder) closeInterval(tid int, end *intervalEnd, arena []byte) {
	ft := r.fl[tid]
	if end.mrlEnd > end.mrlAt {
		r.stageMRL(ft, tid, &end.mrl, arena[end.mrlAt:end.mrlEnd])
	}
	meta, data := ft.w.AppendEncoded(ft.enc[:0], end.length, end.kind, end.fault)
	ft.enc = data
	ft.wPool, ft.w = ft.w, nil
	r.fllPend = append(r.fllPend, logstore.AppendEntry{
		Item: logstore.Item{
			TID:          tid,
			CID:          meta.CID,
			Timestamp:    meta.Timestamp,
			Bytes:        meta.SizeBytes(),
			Instructions: end.length,
		},
		Data: data,
	})
	r.fllPendMeta = append(r.fllPendMeta, meta)
}

// stageMRL copies a closing interval's encoded MRL out of its chunk into
// the thread's buffer and stages it for the next commit. A thread stages
// at most one interval between two commits, so one buffer suffices.
func (r *Recorder) stageMRL(ft *fllThread, tid int, meta *mrl.Meta, data []byte) {
	ft.menc = append(ft.menc[:0], data...)
	r.mrlPend = append(r.mrlPend, logstore.AppendEntry{
		Item: logstore.Item{
			TID:       tid,
			CID:       meta.CID,
			Timestamp: meta.Timestamp,
			Bytes:     meta.SizeBytes(),
		},
		Data: ft.menc,
	})
	r.mrlPendMeta = append(r.mrlPendMeta, *meta)
}

// commitStaged appends the staged intervals, one batch per store, and
// publishes the recorder's counters: the log stage's half of a commit.
func (r *Recorder) commitStaged() {
	r.exportCounters()
	commitBatch(r.flls, &r.fllPend, &r.fllPendMeta, &r.fllMeta)
	commitBatch(r.mrls, &r.mrlPend, &r.mrlPendMeta, &r.mrlMeta)
}

// commitBatch appends one store's staged intervals in one batch, records
// their metadata under the assigned sequence numbers, prunes the cache
// entries of everything the store has evicted, and empties the stage.
// Store failures are sticky and surface through Err.
func commitBatch[M any](store *logstore.Store, pend *[]logstore.AppendEntry, metas *[]M, cache *seqFIFO[M]) {
	if len(*pend) == 0 {
		return
	}
	n, _ := store.AppendBatch(*pend)
	for i := 0; i < n; i++ {
		cache.put((*pend)[i].Item.Seq, (*metas)[i])
	}
	*pend, *metas = (*pend)[:0], (*metas)[:0]
	cache.prune(store.OldestLiveSeq())
}
