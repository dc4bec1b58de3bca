// Package timetravel is the interactive time-travel debugging subsystem:
// checkpointed reverse execution over a recorded replay window, plus the
// session layer that exposes it to remote developers over HTTP.
//
// The paper's whole point is developer-side deterministic replay debugging
// (§1, §5), but naive "back in time" is re-execution from the window start
// — O(window) per reverse step. This package wraps core.ReplayMachine with
// periodic full-state checkpoints (CPU snapshot, known-memory bitmap, log
// cursors, backtrace ring — captured copy-on-write, so taking one costs
// O(page-table directory), not a deep copy) taken every CheckpointEvery
// instructions under a byte budget, so any backward motion becomes
// "restore the nearest
// checkpoint + bounded forward re-execution": ReverseStep, ReverseContinue
// and SeekTo all cost O(CheckpointEvery), independent of how long the
// recorded window is. Data watchpoints honor the paper's §7.1
// unknown-memory semantics: a watch fires when the watched word's *known*
// value changes — a replayed store rewriting it, or a logged first-load
// injection making it known in the first place.
package timetravel

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu"
	"bugnet/internal/fll"
	"bugnet/internal/mem"
)

// Config parameterizes an Engine.
type Config struct {
	// CheckpointEvery is the checkpoint interval K in replayed
	// instructions; reverse motion costs at most one checkpoint restore
	// plus K forward steps. Default 10_000.
	CheckpointEvery uint64
	// CheckpointBudget bounds the bytes retained across all checkpoints.
	// When exceeded, the checkpoint whose removal creates the smallest
	// coverage gap is evicted (never the window-start anchor, never the
	// newest), so dense recent history thins toward sparse old history and
	// the reverse-step bound degrades gracefully to the widest surviving
	// gap. Checkpoints are copy-on-write (see core.ReplaySnapshot) and
	// each is charged what it adds to the heap: the pages, known bitmaps
	// and table leaves the replay copied or created since the checkpoint
	// before it, plus its own directories and cursor. The occupancy is
	// never less than the bytes the checkpoints retain, and exactly those
	// bytes on a forward pass over the window. Default 64 MB.
	CheckpointBudget int64
	// MaxPages caps replay memory in 4 KB pages (see
	// core.Replayer.MaxPages); sessions over untrusted stored reports set
	// it. 0 = unlimited.
	MaxPages int
}

// TraceDepth is the backtrace length, in instructions, that debug sessions
// carry through replay and checkpoints and that triage verdicts report.
const TraceDepth = 16

func (c *Config) fillDefaults() {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10_000
	}
	if c.CheckpointBudget == 0 {
		c.CheckpointBudget = 64 << 20
	}
}

// StopReason tells why the engine returned control.
type StopReason uint8

// Stop reasons.
const (
	StopStep  StopReason = iota // requested step count exhausted
	StopBreak                   // hit a breakpoint
	StopWatch                   // a watched word's known value changed
	StopEnd                     // reached the end of the recorded window
	StopStart                   // reached the start of the window (reverse)
)

func (s StopReason) String() string {
	switch s {
	case StopStep:
		return "step"
	case StopBreak:
		return "breakpoint"
	case StopWatch:
		return "watchpoint"
	case StopEnd:
		return "end-of-window"
	case StopStart:
		return "start-of-window"
	}
	return "unknown"
}

// WatchHit describes the transition that fired a watchpoint. Known=false
// values are the §7.1 "untouched, value unavailable" state.
type WatchHit struct {
	Addr     uint32 `json:"addr"`
	OldKnown bool   `json:"old_known"`
	Old      uint32 `json:"old"`
	NewKnown bool   `json:"new_known"`
	New      uint32 `json:"new"`
}

// watchVal is a watched word's last observed state.
type watchVal struct {
	known bool
	val   uint32
}

// checkpoint is one restore point.
type checkpoint struct {
	pos  uint64
	snap *core.ReplaySnapshot
	// added names the table parts this checkpoint may hold in a version
	// the checkpoint before it does not: every other part the two share.
	// It starts as snap.Added and grows by inheritance as predecessors are
	// evicted. The checkpoint is charged fixed + added.Bytes().
	added mem.Delta
	fixed int64
}

// Engine is a time-travel debugger over one thread's retained logs:
// forward and reverse stepping, breakpoints, data watchpoints, absolute
// seeks, register/memory inspection and a rolling backtrace. Like the
// paper's debugger (§4.6: "any thread can be replayed independent of the
// other threads"), it replays one thread; cross-thread ordering stays the
// multithreaded replayer's job.
//
// Engine is not safe for concurrent use; Session serializes access.
type Engine struct {
	img  *asm.Image
	cfg  Config
	rep  *core.CrashReport
	logs []*fll.Ref
	m    *core.ReplayMachine

	ckpts      []*checkpoint // ascending by pos; ckpts[0] is the pos-0 anchor
	ckptBytes  int64
	nextCkptAt uint64
	// carry names the parts in which the machine's shared state may differ
	// from the checkpoint at or before its position, beyond what it has
	// copied since: the machine re-executed past that checkpoint sharing
	// with an older one, or the one it shared with was evicted. The next
	// checkpoint answers for them; a restore clears them.
	carry mem.Delta

	breaks     map[uint32]bool
	watchAddrs []uint32 // sorted word addresses, for deterministic reporting
	watchVals  map[uint32]watchVal
	lastWatch  *WatchHit

	// scanners are the private replay machines the parallel reverse scan
	// restores gap-start checkpoints into, built on first use. Only the gap
	// scan runs on them concurrently; snapshot restores stay serialized on
	// the engine's goroutine.
	scanners []*core.ReplayMachine
}

// NewEngineForThread opens one thread of a crash report for time-travel
// debugging, adopting the recording options the report carries. tid < 0
// selects the crashing thread (thread 0 if the report records a clean
// stop).
func NewEngineForThread(img *asm.Image, rep *core.CrashReport, tid int, cfg Config) (*Engine, int, error) {
	if tid < 0 {
		tid = 0
		if rep.Crash != nil {
			tid = rep.Crash.TID
		}
	}
	logs := rep.FLLs[tid]
	if len(logs) == 0 {
		return nil, tid, fmt.Errorf("timetravel: report has no logs for thread %d", tid)
	}
	cfg.fillDefaults()
	e := &Engine{
		img:       img,
		cfg:       cfg,
		rep:       rep,
		logs:      logs,
		breaks:    make(map[uint32]bool),
		watchVals: make(map[uint32]watchVal),
	}
	e.m = e.newMachine()
	// The window-start anchor: every backward seek has somewhere to land.
	e.ckpts = append(e.ckpts, e.snapshot())
	e.nextCkptAt = cfg.CheckpointEvery
	return e, tid, nil
}

// newMachine builds a replay machine over the engine's logs. The engine's
// own machine and the scan machines of the parallel reverse scan are built
// alike, so any checkpoint restores into either.
func (e *Engine) newMachine() *core.ReplayMachine {
	r := core.NewReplayer(e.img, e.logs)
	r.LogCodeLoads = e.rep.LogCodeLoads
	r.DictOptions = e.rep.DictOptions
	r.MaxPages = e.cfg.MaxPages
	r.TraceDepth = TraceDepth
	return r.Machine(core.MachineOptions{TrackKnown: true})
}

// Window returns the total instructions the retained logs cover.
func (e *Engine) Window() uint64 { return e.m.Window() }

// Pos returns the current instruction position.
func (e *Engine) Pos() uint64 { return e.m.Pos() }

// Done reports whether the window is exhausted.
func (e *Engine) Done() bool { return e.m.Done() }

// PC returns the current program counter.
func (e *Engine) PC() uint32 { return e.m.PC() }

// Registers returns the current architectural state.
func (e *Engine) Registers() cpu.Snapshot { return e.m.Registers() }

// Fault returns the crash record of the final log, if any.
func (e *Engine) Fault() *fll.FaultRecord { return e.m.Fault() }

// ReadWord inspects replayed memory under §7.1 semantics.
func (e *Engine) ReadWord(addr uint32) (value uint32, known bool) { return e.m.ReadWord(addr) }

// Backtrace returns the trail of the last TraceDepth fetched instructions
// at the current position, oldest first.
func (e *Engine) Backtrace() []core.TraceEntry { return e.m.Trace() }

// SymbolAt renders pc as symbol+offset.
func (e *Engine) SymbolAt(pc uint32) string { return core.SymbolAt(e.img, pc) }

// Disasm renders the instruction at pc.
func (e *Engine) Disasm(pc uint32) string { return e.img.DisassembleAt(pc) }

// Image returns the binary the engine replays.
func (e *Engine) Image() *asm.Image { return e.img }

// LastWatch returns the transition behind the most recent StopWatch.
func (e *Engine) LastWatch() *WatchHit { return e.lastWatch }

// AddBreak sets a breakpoint at pc.
func (e *Engine) AddBreak(pc uint32) { e.breaks[pc] = true }

// ClearBreak removes a breakpoint.
func (e *Engine) ClearBreak(pc uint32) { delete(e.breaks, pc) }

// Breakpoints returns the breakpoint set in ascending order.
func (e *Engine) Breakpoints() []uint32 {
	out := make([]uint32, 0, len(e.breaks))
	for pc := range e.breaks {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddWatch sets a data watchpoint on the word containing addr, primed with
// the word's current known state.
func (e *Engine) AddWatch(addr uint32) {
	w := addr &^ 3
	if _, ok := e.watchVals[w]; ok {
		return
	}
	v, known := e.m.ReadWord(w)
	e.watchVals[w] = watchVal{known: known, val: v}
	e.watchAddrs = append(e.watchAddrs, w)
	sort.Slice(e.watchAddrs, func(i, j int) bool { return e.watchAddrs[i] < e.watchAddrs[j] })
}

// ClearWatch removes the watchpoint on addr's word.
func (e *Engine) ClearWatch(addr uint32) {
	w := addr &^ 3
	if _, ok := e.watchVals[w]; !ok {
		return
	}
	delete(e.watchVals, w)
	for i, a := range e.watchAddrs {
		if a == w {
			e.watchAddrs = append(e.watchAddrs[:i], e.watchAddrs[i+1:]...)
			break
		}
	}
}

// Watches returns the watched word addresses in ascending order.
func (e *Engine) Watches() []uint32 {
	return append([]uint32(nil), e.watchAddrs...)
}

// Checkpoints reports the live checkpoint count and the bytes they are
// charged: what they retain on the heap (see Config.CheckpointBudget).
func (e *Engine) Checkpoints() (count int, bytes int64) {
	return len(e.ckpts), e.ckptBytes
}

// primeWatchVals (re-)reads every watched word on m into vals, so motion
// that is navigation (seeks, restores) rather than execution never fires a
// watchpoint. The parallel reverse scan calls it with a scan machine and a
// private map; the engine's own machine uses e.watchVals.
func primeWatchVals(m *core.ReplayMachine, addrs []uint32, vals map[uint32]watchVal) {
	for _, a := range addrs {
		v, known := m.ReadWord(a)
		vals[a] = watchVal{known: known, val: v}
	}
}

// checkWatchVals scans the watched words (in address order) for a change
// since the last observation in vals, updating the stored state either way.
func checkWatchVals(m *core.ReplayMachine, addrs []uint32, vals map[uint32]watchVal) *WatchHit {
	var hit *WatchHit
	for _, a := range addrs {
		v, known := m.ReadWord(a)
		prev := vals[a]
		if known != prev.known || v != prev.val {
			vals[a] = watchVal{known: known, val: v}
			if hit == nil {
				hit = &WatchHit{Addr: a, OldKnown: prev.known, Old: prev.val, NewKnown: known, New: v}
			}
		}
	}
	return hit
}

// primeWatches re-primes the engine's watch state from its own machine.
func (e *Engine) primeWatches() {
	primeWatchVals(e.m, e.watchAddrs, e.watchVals)
}

// checkWatches polices the engine's watch state on its own machine.
func (e *Engine) checkWatches() *WatchHit {
	return checkWatchVals(e.m, e.watchAddrs, e.watchVals)
}

// ckptIndexAtOrBefore returns the index of the latest checkpoint with
// pos <= target. The pos-0 anchor guarantees one exists.
func (e *Engine) ckptIndexAtOrBefore(target uint64) int {
	i := sort.Search(len(e.ckpts), func(i int) bool { return e.ckpts[i].pos > target })
	return i - 1
}

// maybeCheckpoint takes a checkpoint when the machine crosses the next
// scheduled position, then enforces the byte budget. Restores re-align
// nextCkptAt, so checkpoint positions stay on the K grid and re-executed
// stretches find their old checkpoints instead of duplicating them.
func (e *Engine) maybeCheckpoint() {
	pos := e.m.Pos()
	if pos < e.nextCkptAt {
		return
	}
	e.nextCkptAt = pos + e.cfg.CheckpointEvery
	i := e.ckptIndexAtOrBefore(pos)
	if c := e.ckpts[i]; c.pos == pos {
		// Already have one here (re-execution after a restore). The machine
		// still shares with the checkpoint it was restored from, which
		// differs from this one wherever this one's gap changed state.
		e.carry.Absorb(c.added)
		return
	}
	c := e.snapshot()
	e.ckpts = slices.Insert(e.ckpts, i+1, c)
	if i+2 < len(e.ckpts) {
		// Inserted before a checkpoint another pass took: the successor
		// shares with the checkpoint before c, not with c, so it holds
		// that checkpoint's versions of the parts c copied. It answers for
		// them from now on, or they would leave the occupancy with the
		// checkpoint before c while the successor still holds them.
		next := e.ckpts[i+2]
		e.ckptBytes += c.added.Bytes() - next.added.Absorb(c.added)
	}
	e.evict()
}

// snapshot checkpoints the machine where it stands and charges the
// occupancy what that adds.
func (e *Engine) snapshot() *checkpoint {
	snap := e.m.Snapshot()
	c := &checkpoint{pos: e.m.Pos(), snap: snap, added: snap.Added()}
	c.fixed = snap.SizeBytes() - c.added.Bytes()
	c.added.Absorb(e.carry)
	e.carry = nil
	e.ckptBytes += c.fixed + c.added.Bytes()
	return c
}

// restore rewinds the machine to c and re-aligns the checkpoint grid.
func (e *Engine) restore(c *checkpoint) {
	e.m.Restore(c.snap)
	e.carry = nil
	e.nextCkptAt = c.pos + e.cfg.CheckpointEvery
}

// evict thins checkpoints until the byte budget is met: repeatedly drop
// the interior checkpoint whose removal creates the smallest gap, sparing
// the pos-0 anchor and the newest. Old dense history decays toward
// exponential spacing; the reverse-step bound becomes the widest gap.
func (e *Engine) evict() {
	for e.ckptBytes > e.cfg.CheckpointBudget && len(e.ckpts) > 2 {
		best, bestGap := -1, uint64(0)
		for i := 1; i < len(e.ckpts)-1; i++ {
			gap := e.ckpts[i+1].pos - e.ckpts[i-1].pos
			if best == -1 || gap < bestGap {
				best, bestGap = i, gap
			}
		}
		e.drop(best)
	}
}

// drop removes the interior checkpoint at index i. Its successor inherits
// its added set: parts named by both are versions only the dropped
// checkpoint held (the successor's gap replaced them) and leave the
// occupancy with its fixed cost; the rest the successor still shares and
// now answers for. So does the machine, when the checkpoint it shares with
// is the one dropped.
func (e *Engine) drop(i int) {
	c := e.ckpts[i]
	e.ckptBytes -= c.fixed + e.ckpts[i+1].added.Absorb(c.added)
	if i == e.ckptIndexAtOrBefore(e.m.Pos()) {
		e.carry.Absorb(c.added)
	}
	e.ckpts = slices.Delete(e.ckpts, i, i+1)
}

// forwardOne executes one instruction and handles checkpointing.
func (e *Engine) forwardOne() error {
	if err := e.m.StepOne(); err != nil {
		return err
	}
	e.maybeCheckpoint()
	return nil
}

// forwardTo batch-executes to the target position through the block
// engine, pausing only on the checkpoint grid. Callers must have
// established that no per-instruction stop checks are needed over the
// stretch (no breakpoints or watchpoints, or a seek where they do not
// fire).
func (e *Engine) forwardTo(target uint64) error {
	for e.m.Pos() < target && !e.m.Done() {
		stop := target
		if e.nextCkptAt < stop {
			stop = e.nextCkptAt
		}
		n := stop - e.m.Pos()
		if n == 0 {
			n = 1 // defensive: always make progress
		}
		if _, err := e.m.StepN(n); err != nil {
			return err
		}
		e.maybeCheckpoint()
	}
	return nil
}

// Step executes up to n instructions, stopping early at a breakpoint, a
// watchpoint change, or the end of the window. With no breakpoints or
// watchpoints set there is nothing to police per instruction, so the walk
// runs batched through the block engine.
func (e *Engine) Step(n uint64) (StopReason, error) {
	if len(e.breaks) == 0 && len(e.watchAddrs) == 0 {
		if e.m.Done() {
			return StopEnd, nil
		}
		target := e.m.Window()
		if left := target - e.m.Pos(); n < left {
			target = e.m.Pos() + n
		}
		if err := e.forwardTo(target); err != nil {
			return StopEnd, err
		}
		if e.m.Done() {
			return StopEnd, nil
		}
		return StopStep, nil
	}
	for i := uint64(0); i < n; i++ {
		if e.m.Done() {
			return StopEnd, nil
		}
		if err := e.forwardOne(); err != nil {
			return StopEnd, err
		}
		if hit := e.checkWatches(); hit != nil {
			e.lastWatch = hit
			return StopWatch, nil
		}
		// Breakpoint before end-of-window: the final PC is the faulting
		// instruction and a breakpoint there must hit.
		if e.breaks[e.m.PC()] {
			return StopBreak, nil
		}
		if e.m.Done() {
			return StopEnd, nil
		}
	}
	return StopStep, nil
}

// Continue runs forward until a breakpoint, watchpoint, or the end of the
// window (where the faulting instruction, if any, is next).
func (e *Engine) Continue() (StopReason, error) {
	return e.Step(^uint64(0)) // the window is far shorter than 2^64
}

// SeekTo travels to an absolute position: it restores the nearest
// checkpoint at or before the target whenever that lands closer than the
// current position — backward always, forward when a checkpoint lets the
// seek skip ahead — then re-executes to the target, so on a warmed window
// the cost is bounded by the checkpoint spacing, not the distance.
// Breakpoints and watchpoints do not fire during a seek.
func (e *Engine) SeekTo(target uint64) error {
	if target > e.m.Window() {
		target = e.m.Window()
	}
	if c := e.ckpts[e.ckptIndexAtOrBefore(target)]; target < e.m.Pos() || c.pos > e.m.Pos() {
		e.restore(c)
	}
	// Breakpoints and watchpoints never fire during a seek, so the
	// re-execution runs batched through the block engine.
	if err := e.forwardTo(target); err != nil {
		return err
	}
	e.primeWatches()
	return nil
}

// ReverseStep travels n instructions backward. It reports StopStart when
// the request was clamped at the window start.
func (e *Engine) ReverseStep(n uint64) (StopReason, error) {
	pos := e.m.Pos()
	if n >= pos {
		if err := e.SeekTo(0); err != nil {
			return StopStart, err
		}
		if n > pos {
			return StopStart, nil
		}
		return StopStep, nil
	}
	if err := e.SeekTo(pos - n); err != nil {
		return StopStep, err
	}
	return StopStep, nil
}

// ReverseContinue runs backward to the most recent earlier position where
// a breakpoint or watchpoint would stop execution, or to the window start.
//
// A breakpoint stop is a position p < Pos whose PC is a breakpoint. A
// watchpoint stop is the position of the instruction that changed the
// watched word — reverse lands *before* the mutator commits, so the
// developer inspects the pre-corruption state and the culprit's PC, while
// forward execution stops just after the change (conventional debugger
// asymmetry).
//
// The scan walks checkpoint gaps newest-first: restore the previous
// checkpoint, re-execute forward to the scan limit recording the last
// stop, and only widen backward when a gap contains none — so the common
// "the write was recent" case costs one gap, and the worst case is one
// pass over the window. With GOMAXPROCS > 1 the gaps are scanned
// speculatively in parallel on private scan machines (still merged
// newest-first, older gaps cancelled once a newer one stops), so the worst
// case costs one pass over the window divided across processors.
func (e *Engine) ReverseContinue() (StopReason, error) {
	if len(e.breaks) == 0 && len(e.watchAddrs) == 0 {
		// Nothing can stop a reverse scan; land on the window start
		// without re-executing every gap per-instruction.
		if err := e.SeekTo(0); err != nil {
			return StopStart, err
		}
		return StopStart, nil
	}
	if width := runtime.GOMAXPROCS(0); width > 1 {
		return e.reverseContinueParallel(width)
	}
	return e.reverseContinueSequential()
}

// reverseContinueSequential is the width-1 reverse scan, and the reference
// the parallel scan must match: one gap at a time on the engine's own
// machine, newest-first.
func (e *Engine) reverseContinueSequential() (StopReason, error) {
	limit := e.m.Pos()
	for {
		i := e.ckptIndexAtOrBefore(limit)
		c := e.ckpts[i]
		if c.pos == limit && limit > 0 {
			// The checkpoint sits exactly at the scan limit; the gap to
			// scan is the one before it.
			c = e.ckpts[i-1]
		}
		e.restore(c)
		e.primeWatches()

		g := scanGap(e.m, e.breaks, e.watchAddrs, e.watchVals, limit, e.forwardOne, nil)
		if g.err != nil {
			return StopStep, g.err
		}
		if g.hitPos >= 0 {
			if err := e.SeekTo(uint64(g.hitPos)); err != nil {
				return g.reason, err
			}
			e.lastWatch = g.watch
			return g.reason, nil
		}
		if c.pos == 0 {
			if err := e.SeekTo(0); err != nil {
				return StopStart, err
			}
			return StopStart, nil
		}
		limit = c.pos
	}
}

// gapScan is one checkpoint gap's reverse-scan outcome: the last stop the
// gap contains (hitPos < 0 when none), a forward-execution error, or a
// cancellation by a newer gap's stop.
type gapScan struct {
	hitPos    int64
	reason    StopReason
	watch     *WatchHit
	err       error
	cancelled bool
}

// cancelCheckMask throttles the cancellation poll in the scan loop to one
// atomic load per 512 instructions.
const cancelCheckMask = 512 - 1

// scanGap re-executes m — already restored to a gap-start checkpoint,
// with vals primed there — up to limit, recording the LAST break or watch
// stop in the gap: a watch stop is the pre-step position of the mutating
// instruction, a break stop the post-step position when it is still below
// the limit (the limit itself is where the reverse motion started). step
// advances m one instruction; the engine's own machine checkpoints along
// the way, scan machines step plainly. An execution error abandons the
// gap, discarding any stop already recorded in it, exactly as the
// sequential walk does. A non-nil cancel flag abandons the scan once a
// newer gap has decided the result.
func scanGap(m *core.ReplayMachine, breaks map[uint32]bool, addrs []uint32,
	vals map[uint32]watchVal, limit uint64, step func() error, cancel *atomic.Bool) gapScan {
	g := gapScan{hitPos: -1, reason: StopStep}
	if breaks[m.PC()] && m.Pos() < limit {
		g.hitPos, g.reason = int64(m.Pos()), StopBreak
	}
	for n := 0; m.Pos() < limit && !m.Done(); n++ {
		if cancel != nil && n&cancelCheckMask == 0 && cancel.Load() {
			g.cancelled = true
			return g
		}
		p := m.Pos()
		if err := step(); err != nil {
			g.err = err
			return g
		}
		if hit := checkWatchVals(m, addrs, vals); hit != nil {
			// The instruction at p is the mutator.
			g.hitPos, g.reason, g.watch = int64(p), StopWatch, hit
		}
		if m.Pos() < limit && breaks[m.PC()] {
			g.hitPos, g.reason, g.watch = int64(m.Pos()), StopBreak, nil
		}
	}
	return g
}

// reverseContinueParallel is the speculative reverse scan: it decomposes
// the history below the current position into checkpoint gaps and scans
// up to width of them concurrently per round, newest-first.
// Each gap's checkpoint is restored into a private scan machine on the
// engine's goroutine (snapshot restores share copy-on-write state and
// must not race), then the gaps re-execute in parallel; once a newer gap
// records a stop, the older gaps of the round are cancelled. Results
// merge in gap order, so the stop chosen — and the error surfaced, if a
// gap fails before any newer gap stops — is exactly the sequential
// walk's.
func (e *Engine) reverseContinueParallel(width int) (StopReason, error) {
	limit := e.m.Pos()
	i := e.ckptIndexAtOrBefore(limit)
	if e.ckpts[i].pos == limit && limit > 0 {
		// The checkpoint sits exactly at the scan limit; the newest gap
		// to scan is the one before it.
		i--
	}
	// gaps[k] spans [gaps[k].ck.pos, gaps[k].limit), newest first.
	type gap struct {
		ck    *checkpoint
		limit uint64
	}
	gaps := make([]gap, 0, i+1)
	for up := limit; i >= 0; i-- {
		gaps = append(gaps, gap{e.ckpts[i], up})
		up = e.ckpts[i].pos
	}

	// The scan machines stay with the engine, their free pages warm for the
	// next call; what they share with the checkpoints they restored is
	// released as this call returns, so it never outlives the budget that
	// charged it.
	workers := min(width, len(gaps))
	for len(e.scanners) < workers {
		e.scanners = append(e.scanners, e.newMachine())
	}
	scanners := e.scanners[:workers]
	defer func() {
		for _, m := range scanners {
			m.Release()
		}
	}()

	finish := func(g gapScan) (StopReason, error) {
		if g.err != nil {
			return StopStep, g.err
		}
		if err := e.SeekTo(uint64(g.hitPos)); err != nil {
			return g.reason, err
		}
		e.lastWatch = g.watch
		return g.reason, nil
	}

	for start := 0; start < len(gaps); start += workers {
		batch := gaps[start:min(start+workers, len(gaps))]
		results := make([]gapScan, len(batch))
		cancels := make([]atomic.Bool, len(batch))
		var wg sync.WaitGroup
		for k := range batch {
			m := scanners[k]
			// Serialized on this goroutine: restoring shares pages with
			// the snapshot copy-on-write, mutating its sharing bits.
			m.Restore(batch[k].ck.snap)
			vals := make(map[uint32]watchVal, len(e.watchAddrs))
			primeWatchVals(m, e.watchAddrs, vals)
			wg.Add(1)
			go func(k int, m *core.ReplayMachine, vals map[uint32]watchVal) {
				defer wg.Done()
				g := scanGap(m, e.breaks, e.watchAddrs, vals, batch[k].limit, m.StepOne, &cancels[k])
				results[k] = g
				if !g.cancelled && (g.err != nil || g.hitPos >= 0) {
					// This gap decides over everything older; stop wasting
					// cores on gaps whose results cannot win the merge.
					for o := k + 1; o < len(batch); o++ {
						cancels[o].Store(true)
					}
				}
			}(k, m, vals)
		}
		wg.Wait()
		for k := range results {
			g := results[k]
			if g.cancelled {
				// Only reachable if the canceller's own result left the
				// merge undecided — it cannot, but a wrong stop position
				// would be silent, so rescan this gap sequentially.
				e.restore(batch[k].ck)
				e.primeWatches()
				g = scanGap(e.m, e.breaks, e.watchAddrs, e.watchVals, batch[k].limit, e.forwardOne, nil)
			}
			if g.err != nil || g.hitPos >= 0 {
				return finish(g)
			}
		}
	}
	if err := e.SeekTo(0); err != nil {
		return StopStart, err
	}
	return StopStart, nil
}
