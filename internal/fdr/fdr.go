// Package fdr implements the Flight Data Recorder baseline (Xu, Bodik,
// Hill, ISCA 2003) that BugNet is compared against in the paper's Tables 2
// and 3.
//
// FDR targets full-system replay. Its recording differs from BugNet's in
// exactly the ways the comparison highlights:
//
//   - SafetyNet-style checkpointing: for every checkpoint interval, the
//     FIRST store to each cache block logs the block's pre-store content
//     (an undo log). Walking the undo logs backwards from a final core
//     dump reconstructs memory at a checkpoint boundary.
//   - Register checkpoints at interval boundaries.
//   - An interrupt log, a program-input log (every byte the kernel copies
//     into user memory plus every syscall's register result), and a DMA
//     log — FDR must record external inputs explicitly because it replays
//     through them rather than around them.
//   - A final core dump of the entire memory image, shipped to the
//     developer (BugNet needs none).
//   - Memory race logs identical to BugNet's.
//
// The recorder here is functional and drives the paper's log-size
// comparison; the replayer in replay.go demonstrates the scheme end to end
// on uniprocessor runs.
package fdr

import (
	"fmt"

	"bugnet/internal/coherence"
	"bugnet/internal/cpu"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
	"bugnet/internal/logstore"
	"bugnet/internal/mem"
	"bugnet/internal/mrl"
)

// Config parameterizes the FDR recorder.
type Config struct {
	// IntervalSteps is the checkpoint interval in global machine steps
	// (FDR checkpoints every ~1/3 s; at 1 IPC that is steps). Default
	// 10_000_000.
	IntervalSteps uint64
	// BlockBytes is the undo-log granularity (SafetyNet logs cache
	// blocks). Must be a power of two of at least one word (the
	// first-store filter tracks blocks by base address at word
	// granularity); NewRecorder panics otherwise. Default 64.
	BlockBytes int
	// Budget bounds the retained checkpoint bytes; oldest evicted first.
	// Non-positive retains everything.
	Budget int64
	// PID tags the logs.
	PID uint32
}

func (c *Config) fillDefaults() {
	if c.IntervalSteps == 0 {
		c.IntervalSteps = 10_000_000
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 64
	}
	// Sub-word or non-power-of-two blocks would alias distinct block
	// bases onto one word bit in the first-store filter, silently
	// dropping undo pre-images. Configuration is a programming decision,
	// not runtime input, so fail loudly like the cache geometry checks.
	if c.BlockBytes < 4 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		panic(fmt.Sprintf("fdr: BlockBytes %d must be a power of two >= 4", c.BlockBytes))
	}
}

// undoEntry is one SafetyNet undo record: the content a block had at the
// checkpoint start, captured at the first store touching it.
type undoEntry struct {
	addr uint32
	old  []byte
}

// inputRecord is one external-input event: a syscall return value and/or
// bytes the kernel wrote into user memory (paper: "program I/O").
type inputRecord struct {
	step  uint64
	tid   int
	a0    uint32
	valid bool // a0 is meaningful (syscall return)
	addr  uint32
	data  []byte
}

// dmaRecord is one logged DMA completion.
type dmaRecord struct {
	step uint64
	addr uint32
	data []byte
}

// interruptRecord is one logged interrupt delivery.
type interruptRecord struct {
	step uint64
	tid  int
	kind kernel.InterruptKind
}

// regCheckpoint snapshots one thread's architectural state at a checkpoint
// boundary.
type regCheckpoint struct {
	tid   int
	ic    uint64
	state cpu.Snapshot
	live  bool
}

// checkpoint is everything FDR retains for one interval.
type checkpoint struct {
	id        uint32
	startStep uint64
	regs      []regCheckpoint
	undo      []undoEntry
	// instructions committed during the interval (for replay-window
	// accounting), filled at interval end.
	instructions uint64

	startIC []uint64 // per-thread IC at interval start
}

// undoBytes is the serialized cost of the undo log: address + block
// content per entry.
func (c *checkpoint) undoBytes(blockBytes int) int64 {
	return int64(len(c.undo)) * int64(4+blockBytes)
}

// regBytes is the serialized cost of the register checkpoints.
func (c *checkpoint) regBytes() int64 {
	return int64(len(c.regs)) * (4 + 8 + 4 + isa.NumRegs*4)
}

// SizeReport aggregates FDR log sizes for the Table 2 comparison.
type SizeReport struct {
	CacheCheckpointBytes int64 // undo entries captured while blocks were cache-resident
	MemCheckpointBytes   int64 // register checkpoints + bookkeeping
	InterruptBytes       int64
	InputBytes           int64
	DMABytes             int64
	MRLBytes             int64
	CoreDumpBytes        int64
	Checkpoints          int
	Instructions         uint64 // covered by retained checkpoints
}

// Total returns the bytes FDR must ship to the developer.
func (s SizeReport) Total() int64 {
	return s.CacheCheckpointBytes + s.MemCheckpointBytes + s.InterruptBytes +
		s.InputBytes + s.DMABytes + s.MRLBytes + s.CoreDumpBytes
}

// Recorder implements kernel.Hooks plus per-CPU hooks for FDR recording.
type Recorder struct {
	kernel.NopHooks

	cfg Config
	m   *kernel.Machine

	blockMask uint32
	cur       *checkpoint
	nextID    uint32
	retained  *logstore.Store // checkpoints

	// firstStore tracks blocks already undo-logged this interval (by block
	// base address, as a page-granular bitmap: the undo-log filter sits on
	// every store, so membership must be branch-and-bitmap cheap, exactly
	// like BugNet's first-load bits).
	firstStore *mem.KnownSet

	interrupts []interruptRecord
	inputs     []inputRecord
	dmas       []dmaRecord

	// lastKind remembers the interrupt kind per thread so the return hook
	// knows whether a syscall result must be logged.
	lastKind map[int]kernel.InterruptKind

	dir  *coherence.Directory
	red  *mrl.Reducer
	mrls *logstore.Store

	// per-thread interval-relative state for MRL entries
	cids    map[int]uint32
	mws     map[int]*mrl.Writer
	coreEnd *mem.Memory // final core dump snapshot

	// finalSteps is the machine step count when recording ended; replay
	// runs to this point.
	finalSteps uint64

	// everMP records that more than one thread ever ran; the replayer's
	// uniprocessor step accounting does not apply then.
	everMP bool
}

// NewRecorder attaches an FDR recorder to the machine; call before Run.
func NewRecorder(m *kernel.Machine, cfg Config) *Recorder {
	cfg.fillDefaults()
	r := &Recorder{
		cfg:        cfg,
		m:          m,
		blockMask:  ^uint32(cfg.BlockBytes - 1),
		retained:   logstore.New(cfg.Budget),
		mrls:       logstore.New(cfg.Budget),
		firstStore: mem.NewKnownSet(),
		lastKind:   make(map[int]kernel.InterruptKind),
		cids:       make(map[int]uint32),
		mws:        make(map[int]*mrl.Writer),
	}
	if len(m.Threads) > 1 {
		r.dir = coherence.New(len(m.Threads), cfg.BlockBytes)
		r.red = mrl.NewReducer(len(m.Threads))
	}
	m.SetHooks(r)
	// Support attaching mid-execution (after an unrecorded warm-up), as
	// the experiment harness does: live threads count as newly started.
	if m.Started() {
		for _, th := range m.Threads {
			if th.State == kernel.ThreadRunnable {
				r.OnThreadStart(th.ID)
			}
		}
	}
	return r
}

// --- checkpoint lifecycle ---

func (r *Recorder) ensureCheckpoint() {
	if r.cur == nil {
		r.openCheckpoint()
		return
	}
	if r.m.Now()-r.cur.startStep >= r.cfg.IntervalSteps {
		r.closeCheckpoint()
		r.openCheckpoint()
	}
}

func (r *Recorder) openCheckpoint() {
	c := &checkpoint{
		id:        r.nextID,
		startStep: r.m.Now(),
		startIC:   make([]uint64, len(r.m.Threads)),
	}
	r.nextID++
	for _, th := range r.m.Threads {
		if th.CPU == nil {
			continue
		}
		c.regs = append(c.regs, regCheckpoint{
			tid:   th.ID,
			ic:    th.CPU.IC,
			state: th.CPU.State(),
			live:  th.State == kernel.ThreadRunnable,
		})
		c.startIC[th.ID] = th.CPU.IC
	}
	r.cur = c
	// SafetyNet resets first-store tracking each interval.
	r.firstStore.Reset()
	// New MRLs per interval, as in BugNet.
	for tid, th := range r.m.Threads {
		if th.CPU != nil && th.State == kernel.ThreadRunnable {
			r.openMRL(tid, c.id)
		}
	}
}

func (r *Recorder) openMRL(tid int, cid uint32) {
	if r.dir == nil {
		return
	}
	r.cids[tid] = cid
	r.mws[tid] = mrl.NewWriter(mrl.Header{
		PID: r.cfg.PID, TID: uint32(tid), CID: cid, Timestamp: r.m.Now(),
	}, r.cfg.IntervalSteps, uint32(len(r.m.Threads)))
}

func (r *Recorder) closeCheckpoint() {
	if r.cur == nil {
		return
	}
	c := r.cur
	r.cur = nil
	for _, th := range r.m.Threads {
		if th.CPU != nil {
			c.instructions += th.CPU.IC - c.startIC[th.ID]
		}
	}
	r.retained.Append(logstore.Item{
		CID:          c.id,
		Timestamp:    c.startStep,
		Bytes:        c.undoBytes(r.cfg.BlockBytes) + c.regBytes(),
		Instructions: c.instructions,
	}, c.marshal())
	for tid, w := range r.mws {
		if w == nil {
			continue
		}
		mm, mdata := w.CloseEncoded()
		r.mrls.Append(logstore.Item{
			TID: tid, CID: mm.CID, Timestamp: mm.Timestamp,
			Bytes: mm.SizeBytes(),
		}, mdata)
		delete(r.mws, tid)
	}
}

// --- undo logging ---

// captureUndo logs the pre-image of every block in [addr, addr+n) not yet
// stored to this interval. Must run before the write mutates memory.
func (r *Recorder) captureUndo(addr, n uint32) {
	if n == 0 {
		return
	}
	r.ensureCheckpoint()
	bs := uint32(r.cfg.BlockBytes)
	first := addr & r.blockMask
	last := (addr + n - 1) & r.blockMask
	for b := first; ; b += bs {
		if !r.firstStore.Has(b) {
			r.firstStore.Add(b)
			old := make([]byte, bs)
			if err := r.m.Mem.LoadBytes(b, old); err == nil {
				r.cur.undo = append(r.cur.undo, undoEntry{addr: b, old: old})
			}
		}
		if b == last {
			break
		}
	}
}

// --- kernel.Hooks ---

// OnThreadStart installs the store hooks; FDR taps stores only (loads need
// no logging — memory state is reconstructed, not re-derived).
func (r *Recorder) OnThreadStart(tid int) {
	if tid > 0 {
		r.everMP = true
	}
	c := r.m.Threads[tid].CPU
	c.OnWordStore = func(wordAddr uint32) { r.store(tid, wordAddr, 4) }
	c.OnLoggable = func(wordAddr uint32, isWrite bool) {
		if isWrite {
			r.store(tid, wordAddr, 4)
		} else if r.dir != nil {
			r.ensureCheckpoint()
			r.race(tid, r.dir.Load(tid, wordAddr))
		}
	}
	r.ensureCheckpoint()
	if r.dir != nil && r.mws[tid] == nil {
		r.openMRL(tid, r.cur.id)
	}
}

func (r *Recorder) store(tid int, wordAddr uint32, n uint32) {
	r.captureUndo(wordAddr, n)
	if r.dir != nil {
		r.race(tid, r.dir.Store(tid, wordAddr))
	}
}

// race logs MRL entries for coherence replies, as in BugNet.
func (r *Recorder) race(tid int, remotes []int) {
	for _, rt := range remotes {
		rc := r.m.Threads[rt].CPU
		lc := r.m.Threads[tid].CPU
		if rc == nil || r.mws[tid] == nil {
			continue
		}
		if r.red != nil && !r.red.Observe(tid, lc.IC, rt, rc.IC) {
			continue
		}
		r.mws[tid].Add(mrl.Entry{
			LocalIC:   lc.IC - r.cur.startIC[tid],
			RemoteTID: uint32(rt),
			RemoteCID: r.cids[rt],
			RemoteIC:  rc.IC - r.cur.startIC[rt],
		})
	}
}

// OnInterrupt logs the delivery; FDR replays through interrupts so every
// one must be recorded.
func (r *Recorder) OnInterrupt(tid int, kind kernel.InterruptKind) {
	r.ensureCheckpoint()
	r.interrupts = append(r.interrupts, interruptRecord{step: r.m.Now(), tid: tid, kind: kind})
	r.lastKind[tid] = kind
}

// OnInterruptReturn logs the syscall's register result into the input log.
func (r *Recorder) OnInterruptReturn(tid int) {
	if r.lastKind[tid] != kernel.IntSyscall {
		return
	}
	c := r.m.Threads[tid].CPU
	r.inputs = append(r.inputs, inputRecord{
		step: r.m.Now(), tid: tid, a0: c.Regs[isa.RegA0], valid: true,
	})
}

// OnKernelPreWrite captures pre-images before kernel copy-ins mutate
// memory.
func (r *Recorder) OnKernelPreWrite(tid int, addr uint32, n uint32) {
	r.captureUndo(addr, n)
}

// OnKernelWrite logs the written bytes into the input log.
func (r *Recorder) OnKernelWrite(tid int, addr uint32, n uint32) {
	data := make([]byte, n)
	if err := r.m.Mem.LoadBytes(addr, data); err != nil {
		return
	}
	r.inputs = append(r.inputs, inputRecord{step: r.m.Now(), tid: tid, addr: addr, data: data})
	if r.dir != nil {
		r.dir.ExternalWriteRange(addr, n)
	}
}

// OnDMAPreWrite captures pre-images before DMA mutates memory.
func (r *Recorder) OnDMAPreWrite(addr uint32, n uint32) {
	r.captureUndo(addr, n)
}

// OnDMAWrite logs the DMA payload.
func (r *Recorder) OnDMAWrite(addr uint32, n uint32) {
	data := make([]byte, n)
	if err := r.m.Mem.LoadBytes(addr, data); err != nil {
		return
	}
	r.dmas = append(r.dmas, dmaRecord{step: r.m.Now(), addr: addr, data: data})
	if r.dir != nil {
		r.dir.ExternalWriteRange(addr, n)
	}
}

// OnFault finalizes the current checkpoint and takes the core dump.
func (r *Recorder) OnFault(tid int, f *cpu.FaultInfo) {
	r.closeCheckpoint()
	r.coreEnd = r.m.Mem.Snapshot()
	r.finalSteps = r.m.Now()
}

// OnThreadExit keeps recording; full-system recording does not stop when
// one thread exits.
func (r *Recorder) OnThreadExit(tid int) {}

// Finalize must be called after machine.Run if no fault occurred, closing
// the last checkpoint and capturing the core image.
func (r *Recorder) Finalize() {
	if r.cur != nil {
		r.closeCheckpoint()
	}
	if r.coreEnd == nil {
		r.coreEnd = r.m.Mem.Snapshot()
	}
	if r.finalSteps == 0 {
		r.finalSteps = r.m.Now()
	}
}

// Sizes aggregates the log sizes for the Table 2 comparison. Per-category
// checkpoint splits decode each retained checkpoint on demand; the
// aggregate Bytes/Instructions come from store metadata alone.
func (r *Recorder) Sizes() SizeReport {
	var s SizeReport
	for _, it := range r.retained.All() {
		c, err := r.checkpointAt(it)
		if err != nil {
			continue // unreadable spill: excluded from the report
		}
		s.CacheCheckpointBytes += c.undoBytes(r.cfg.BlockBytes)
		s.MemCheckpointBytes += c.regBytes()
		s.Checkpoints++
		s.Instructions += c.instructions
	}
	s.InterruptBytes = int64(len(r.interrupts)) * 13 // step + tid + kind
	for _, in := range r.inputs {
		s.InputBytes += 17 + int64(len(in.data)) // step + tid + a0/addr + len
	}
	for _, d := range r.dmas {
		s.DMABytes += 16 + int64(len(d.data))
	}
	for _, it := range r.mrls.All() {
		s.MRLBytes += it.Bytes
	}
	if r.coreEnd != nil {
		s.CoreDumpBytes = r.coreEnd.Footprint()
	}
	return s
}

// checkpointAt re-materializes one retained checkpoint from its encoded
// bytes.
func (r *Recorder) checkpointAt(it logstore.Item) (*checkpoint, error) {
	data, err := r.retained.Load(it.Seq)
	if err != nil {
		return nil, err
	}
	return unmarshalCheckpoint(data)
}

// Checkpoints returns the retained checkpoints oldest-first, decoded (the
// test surface). Replay walks them one at a time via checkpointAt instead
// so the undo-log scan never holds the whole retained window decoded.
func (r *Recorder) Checkpoints() []*checkpoint {
	items := r.retained.All()
	out := make([]*checkpoint, 0, len(items))
	for _, it := range items {
		c, err := r.checkpointAt(it)
		if err != nil {
			continue
		}
		out = append(out, c)
	}
	return out
}
