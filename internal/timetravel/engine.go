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
// "restore the nearest checkpoint + bounded forward re-execution": a seek
// costs one restore plus at most the checkpoint spacing K, independent of
// how long the recorded window is. A reverse step that re-executes more
// than 2δ instructions, δ = ⌈√(2K)⌉, also leaves one near checkpoint δ
// short of its target, as does a long seek once reverse steps have come
// since the seek before it, so the reverse steps that follow re-execute
// the distance they move: consecutive single reverse steps cost
// K/δ + δ/2 instructions each on average (about 141 at the default K)
// instead of K/2. Data
// watchpoints honor the paper's §7.1 unknown-memory semantics: a watch
// fires when the watched word's *known* value changes — a replayed store
// rewriting it, or a logged first-load injection making it known in the
// first place.
//
// Breakpoints and watchpoints stop the replay machine's block engine
// itself (see core.ReplayMachine.StepN): Step, Continue and the reverse
// scan run at replay speed, and only an instruction that may have changed
// a watched word, or a breakpoint, hands control back to the engine.
//
// An engine opens on the window's tail. Every FLL interval replays alone
// from its header's registers and empty memory (BugNet §4), so the first
// motion of a fresh engine — typically Continue to the crash — replays only
// the last interval (or the last few, enough for a full backtrace),
// provided no breakpoint or watch is set. Besides the anchor at the tail's
// start, which the header gives for free, it lays only the last grid
// checkpoint before its target, so a reverse step from there re-executes
// less than K. The grid between the two waits for the backward motions
// into that stretch: each re-executes from the latest checkpoint before
// its target, at first the anchor, and lays the grid on its way.
// Registers, PC, backtrace, fault and every word the tail touched are then
// exactly what a replay of the whole window gives. The first command that
// needs older history — a target before the tail's start plus TraceDepth,
// a ReadWord or AddWatch of a word the tail has not touched (program text
// included), a ReverseContinue with stops set — fills it in: one forward
// pass from the window start to the current position lays the grid over
// the whole window, and the engine is from then on the one it would have
// been had it replayed the whole window from the start.
package timetravel

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu"
	"bugnet/internal/fll"
	"bugnet/internal/mem"
	"bugnet/internal/obs"
)

// Config parameterizes an Engine.
type Config struct {
	// CheckpointEvery is the checkpoint interval K in replayed
	// instructions; a seek costs at most one checkpoint restore plus K
	// forward steps, and a reverse step of n ≤ δ = ⌈√(2K)⌉ off the near
	// checkpoint re-executes fewer than δ (see SeekTo). Default 10_000.
	CheckpointEvery uint64
	// CheckpointBudget bounds the bytes retained across all checkpoints.
	// When exceeded, the checkpoint whose removal creates the smallest
	// coverage gap is evicted (never the window-start anchor, never the
	// newest), so dense recent history thins toward sparse old history and
	// the seek bound degrades gracefully to the widest surviving gap. The
	// one near checkpoint (see SeekTo) is charged like any other and
	// evicted only when nothing else is left to evict. Checkpoints are
	// copy-on-write (see core.ReplaySnapshot) and each is charged what it
	// adds to the heap: the pages, known bitmaps and table leaves the
	// replay copied or created since the checkpoint before it, plus its
	// own directories and cursor. The occupancy is never less than the
	// bytes the checkpoints retain, and exactly those bytes on a forward
	// pass over the window. Default 64 MB.
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

	ckpts      []*checkpoint // ascending by pos; ckpts[0] is the anchor at tailStart
	ckptBytes  int64
	nextCkptAt uint64 // the next multiple of CheckpointEvery
	// bare is the grid checkpoint an open on the tail laid before its
	// target, with no grid between it and the anchor (see reach); 0 when
	// the open skipped no grid position, or once a backward motion has
	// gone below it.
	bare uint64
	// near is the checkpoint the last planting seek left δ short of its
	// target (see SeekTo), nil once dropped. It is one of ckpts, off the
	// grid as a rule, and at most one lives at a time.
	near *checkpoint
	// seeking is set by SeekTo and cleared by ReverseStep: while it is
	// set, no reverse step has come since the last SeekTo, and a long
	// SeekTo plants no near checkpoint.
	seeking bool
	// carry names the parts in which the machine's shared state may differ
	// from the checkpoint at or before its position, beyond what it has
	// copied since: the machine re-executed past that checkpoint sharing
	// with an older one, or the one it shared with was evicted. The next
	// checkpoint answers for them; a restore clears them.
	carry mem.Delta

	// The breakpoints and watched words live in the machines (see
	// machines); watchVals holds each watched word's last observed state.
	watchVals map[uint32]watchVal
	lastWatch *WatchHit

	// scanners are the private replay machines the reverse scan restores
	// gap-start checkpoints into, built on first use. Only the gap scan runs
	// on them concurrently; snapshot restores stay serialized on the
	// engine's goroutine.
	scanners []*core.ReplayMachine

	// reexecuted counts the instructions the engine's own machine executed —
	// every seek's re-execution, every Step and Continue — summed per StepN
	// call.
	reexecuted uint64

	// fresh is set until the engine's first motion, which decides whether
	// it opens on the tail (see reach), or until a command commits it to
	// the whole window.
	fresh bool
	// tailStart is the window position the engine's history starts at: the
	// tail's first interval while the engine holds only the tail, 0 once it
	// holds the whole window. ckpts[0] stands there.
	tailStart uint64
	// fillErr is the error the fill of older history failed with; every
	// command that needs that history returns it again.
	fillErr error
}

// NewEngineForThread opens one thread of a crash report for time-travel
// debugging, adopting the recording options the report carries. tid < 0
// selects the crashing thread (thread 0 if the report records a clean
// stop).
//
// The engine starts at position 0 and replays nothing yet. Its first
// motion, when it ends in the tail with no stops set, replays only the tail
// (see the package doc). A divergence in older history then surfaces at
// the first command that needs that history, not at that first motion: the
// fill's forward pass meets it there and the command returns it, with the
// message a replay of the whole window gives, and so does every later
// command that needs that history. A motion returns it as its error; a
// ReadWord answers unknown, and the session's mem and watch commands
// carry it in Outcome.Error. The engine stays on the tail meanwhile.
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
		watchVals: make(map[uint32]watchVal),
		fresh:     true,
	}
	e.start(0, 0)
	return e, tid, nil
}

// start puts the engine at the start of interval first, window position
// pos, on a new machine and one anchor checkpoint there: every backward
// seek has somewhere to land. The breakpoints and watched words carry over.
func (e *Engine) start(first int, pos uint64) {
	old := e.m
	e.m = e.newMachine(TraceDepth, first)
	if old != nil {
		for _, pc := range old.Breakpoints() {
			e.m.SetBreak(pc, true)
		}
		for _, a := range old.Watches() {
			e.m.SetWatch(a, true)
		}
	}
	e.ckpts, e.ckptBytes, e.near, e.carry, e.bare = nil, 0, nil, nil, 0
	e.ckpts = append(e.ckpts, e.snapshot())
	e.tailStart = pos
	k := e.cfg.CheckpointEvery
	e.nextCkptAt = (pos/k + 1) * k
}

// newMachine builds a replay machine over the engine's logs from interval
// first on, keeping a backtrace of traceDepth instructions. The engine's
// own machine and the scan machines of the reverse scan are built alike
// but for the backtrace, which a scan never reads, so any checkpoint
// restores into either.
func (e *Engine) newMachine(traceDepth, first int) *core.ReplayMachine {
	r := core.NewReplayer(e.img, e.logs)
	r.LogCodeLoads = e.rep.LogCodeLoads
	r.DictOptions = e.rep.DictOptions
	r.MaxPages = e.cfg.MaxPages
	r.TraceDepth = traceDepth
	return r.Intervals(first, len(e.logs)).Machine(core.MachineOptions{TrackKnown: true})
}

// tail returns the first interval of the window's tail and the position it
// starts at: the last interval, or an earlier one when the last holds fewer
// than TraceDepth instructions, so the backtrace at the window's end is the
// tail's own. The first interval is 0 when the tail is the whole window.
func (e *Engine) tail() (first int, pos uint64) {
	pos = e.m.Window()
	for first = len(e.logs); first > 0 && e.m.Window()-pos < TraceDepth; {
		first--
		pos -= e.logs[first].Length
	}
	return first, pos
}

// reach readies the engine's history for a motion to target. The first
// motion of a fresh engine opens on the tail when no stop is set and the
// target lies at least TraceDepth instructions into the tail; any other
// first motion commits the engine to the whole window. An engine on the
// tail fills in older history when the target lies before that point or a
// watched word is one the tail has not touched; why counts that fill.
func (e *Engine) reach(target uint64, why *obs.Counter) error {
	if e.fresh && len(e.m.Breakpoints()) == 0 && len(e.m.Watches()) == 0 {
		if first, pos := e.tail(); first > 0 && target >= pos+TraceDepth {
			e.fresh = false
			mOpenTail.Inc()
			e.start(first, pos)
			// Of the grid over the tail, the open lays only the last
			// checkpoint before its target, where a reverse step from the
			// target restores. The grid below it is laid by the backward
			// motions into that stretch: restore re-aligns nextCkptAt to
			// the grid.
			k := e.cfg.CheckpointEvery
			if last := (target - 1) / k * k; last > e.nextCkptAt {
				e.nextCkptAt, e.bare = last, last
			}
			return nil
		}
	}
	if e.fresh || e.tailStart > 0 && (target < e.tailStart+TraceDepth || !e.watchesKnown()) {
		return e.fill(why)
	}
	return nil
}

// watchesKnown reports whether the tail has touched every watched word: only
// then are their values the whole window's.
func (e *Engine) watchesKnown() bool {
	for _, a := range e.m.Watches() {
		if !e.m.Known(a) {
			return false
		}
	}
	return true
}

// fill commits the engine to the whole window. On the tail, it replays the
// window's older history once: the forward pass from a new window-start
// anchor to the current position, laying the checkpoint grid, in place of
// the tail and its checkpoints, which the pass no longer keeps alive. If the
// pass fails, the engine replays the tail again to where it stood, and
// returns the error, now and from every later fill. why counts the pass,
// by the kind of command that needed it.
func (e *Engine) fill(why *obs.Counter) error {
	if e.fresh {
		e.fresh = false
		mOpenEager.Inc()
	}
	if e.tailStart == 0 {
		return nil
	}
	if e.fillErr != nil {
		return e.fillErr
	}
	why.Inc()
	defer mFillSeconds.Since(time.Now())
	pos := e.m.Pos()
	first, tailPos := e.tail()
	e.start(0, 0)
	if _, err := e.forwardTo(pos, false); err != nil {
		e.start(first, tailPos)
		e.forwardTo(pos, false) // as far as it went before
		e.primeWatches()
		e.fillErr = err
		return err
	}
	e.primeWatches()
	return nil
}

// machines returns the engine's own machine and its scan machines, which
// all stop at the same breakpoints and watched words.
func (e *Engine) machines() []*core.ReplayMachine {
	return append([]*core.ReplayMachine{e.m}, e.scanners...)
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

// ReadWord inspects replayed memory under §7.1 semantics. On the tail, a
// word the tail has not touched, program text included, fills in older
// history first; if that fails the word reads as unknown, and the session
// command that read it (mem, watch) returns the error.
func (e *Engine) ReadWord(addr uint32) (value uint32, known bool) {
	return e.read(addr, mFillMem)
}

// read is ReadWord, counting a fill it needs in why.
func (e *Engine) read(addr uint32, why *obs.Counter) (value uint32, known bool) {
	if e.derive(addr, why) != nil {
		return 0, false
	}
	return e.m.ReadWord(addr)
}

// derive readies addr's word for reading: on the tail, a word the tail has
// not touched needs older history, which it fills in, counted in why. It
// returns the fill's error.
func (e *Engine) derive(addr uint32, why *obs.Counter) error {
	if e.tailStart > 0 && !e.m.Known(addr&^3) {
		return e.fill(why)
	}
	return nil
}

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
func (e *Engine) AddBreak(pc uint32) {
	for _, m := range e.machines() {
		m.SetBreak(pc, true)
	}
}

// ClearBreak removes a breakpoint.
func (e *Engine) ClearBreak(pc uint32) {
	for _, m := range e.machines() {
		m.SetBreak(pc, false)
	}
}

// Breakpoints returns the breakpoint set in ascending order.
func (e *Engine) Breakpoints() []uint32 { return slices.Clone(e.m.Breakpoints()) }

// AddWatch sets a data watchpoint on the word containing addr, primed with
// the word's current known state (see ReadWord). If the word needs older
// history that could not be replayed, every motion returns that error until
// the watch is cleared.
func (e *Engine) AddWatch(addr uint32) {
	w := addr &^ 3
	if _, ok := e.watchVals[w]; ok {
		return
	}
	v, known := e.read(w, mFillWatch)
	e.watchVals[w] = watchVal{known: known, val: v}
	for _, m := range e.machines() {
		m.SetWatch(w, true)
	}
}

// ClearWatch removes the watchpoint on addr's word.
func (e *Engine) ClearWatch(addr uint32) {
	w := addr &^ 3
	delete(e.watchVals, w)
	for _, m := range e.machines() {
		m.SetWatch(w, false)
	}
}

// Watches returns the watched word addresses in ascending order.
func (e *Engine) Watches() []uint32 { return slices.Clone(e.m.Watches()) }

// Checkpoints reports the live checkpoint count and the bytes they are
// charged: what they retain on the heap (see Config.CheckpointBudget).
func (e *Engine) Checkpoints() (count int, bytes int64) {
	return len(e.ckpts), e.ckptBytes
}

// primeWatchVals (re-)reads every word m watches into vals, so motion that
// is navigation (seeks, restores) rather than execution never fires a
// watchpoint. The reverse scan calls it with a scan machine and a private
// map; the engine's own machine uses e.watchVals.
func primeWatchVals(m *core.ReplayMachine, vals map[uint32]watchVal) {
	for _, a := range m.Watches() {
		v, known := m.ReadWord(a)
		vals[a] = watchVal{known: known, val: v}
	}
}

// checkWatchVals scans the words m watches (in address order) for a change
// since the last observation in vals, updating the stored state either way.
func checkWatchVals(m *core.ReplayMachine, vals map[uint32]watchVal) *WatchHit {
	var hit *WatchHit
	for _, a := range m.Watches() {
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
func (e *Engine) primeWatches() { primeWatchVals(e.m, e.watchVals) }

// ckptIndexAtOrBefore returns the index of the latest checkpoint with
// pos <= target. The pos-0 anchor guarantees one exists.
func (e *Engine) ckptIndexAtOrBefore(target uint64) int {
	i := sort.Search(len(e.ckpts), func(i int) bool { return e.ckpts[i].pos > target })
	return i - 1
}

// maybeCheckpoint runs after the machine executed forward from position
// from. It takes a checkpoint when the machine crosses the next scheduled
// position, then enforces the byte budget. Restores re-align nextCkptAt,
// so checkpoint positions stay on the K grid and re-executed stretches
// find their old checkpoints instead of duplicating them.
func (e *Engine) maybeCheckpoint(from uint64) {
	pos := e.m.Pos()
	if n := e.near; n != nil && from < n.pos && n.pos <= pos {
		// Ran onto or past the near checkpoint from before it: as with a
		// grid checkpoint already there (below), the machine still shares
		// with an older one, which differs from it wherever its gap
		// changed state.
		e.carry.Absorb(n.added)
	}
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
	e.insert(i)
	e.evict()
}

// insert checkpoints the machine where it stands, right after ckpts[i].
func (e *Engine) insert(i int) *checkpoint {
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
	return c
}

// plantNear makes the machine's position the near checkpoint, dropping the
// previous one, unless a checkpoint already stands there.
func (e *Engine) plantNear() {
	pos := e.m.Pos()
	if e.ckpts[e.ckptIndexAtOrBefore(pos)].pos == pos {
		return
	}
	if e.near != nil {
		e.drop(e.ckptIndexAtOrBefore(e.near.pos))
	}
	e.near = e.insert(e.ckptIndexAtOrBefore(pos))
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

// restore rewinds the machine to c and re-aligns the checkpoint grid: the
// next checkpoint is due at the next multiple of K, whether c is on the
// grid or the near checkpoint.
func (e *Engine) restore(c *checkpoint) {
	e.m.Restore(c.snap)
	e.carry = nil
	k := e.cfg.CheckpointEvery
	e.nextCkptAt = (c.pos/k + 1) * k
}

// evict thins checkpoints until the byte budget is met: repeatedly drop
// the interior checkpoint whose removal creates the smallest gap, sparing
// the pos-0 anchor and the newest. Old dense history decays toward
// exponential spacing; the seek bound becomes the widest gap. The near
// checkpoint goes last: its neighbours stand at most K apart, so by gap
// it would always go first, and the reverse steps it serves with it.
func (e *Engine) evict() {
	for e.ckptBytes > e.cfg.CheckpointBudget && len(e.ckpts) > 2 {
		best, bestGap := -1, uint64(0)
		for i := 1; i < len(e.ckpts)-1; i++ {
			gap := e.ckpts[i+1].pos - e.ckpts[i-1].pos
			if e.ckpts[i] == e.near {
				gap = math.MaxUint64
			}
			if best == -1 || gap < bestGap {
				best, bestGap = i, gap
			}
		}
		e.drop(best)
	}
}

// drop removes the checkpoint at index i > 0. Its successor inherits its
// added set: parts named by both are versions only the dropped checkpoint
// held (the successor's gap replaced them) and leave the occupancy with
// its fixed cost; the rest the successor still shares and now answers
// for. The newest checkpoint has no successor, so its whole added set
// leaves. The machine answers for the set too, when the checkpoint it
// shares with is the one dropped.
func (e *Engine) drop(i int) {
	c := e.ckpts[i]
	freed := c.fixed + c.added.Bytes()
	if i+1 < len(e.ckpts) {
		freed = c.fixed + e.ckpts[i+1].added.Absorb(c.added)
	}
	e.ckptBytes -= freed
	if i == e.ckptIndexAtOrBefore(e.m.Pos()) {
		e.carry.Absorb(c.added)
	}
	if c == e.near {
		e.near = nil
	}
	e.ckpts = slices.Delete(e.ckpts, i, i+1)
}

// forwardTo runs the machine toward target through the block engine,
// pausing on the checkpoint grid. With stops set it returns at the first
// watch change or breakpoint; a seek runs past every stop.
func (e *Engine) forwardTo(target uint64, stops bool) (StopReason, error) {
	for e.m.Pos() < target && !e.m.Done() {
		stop := target
		if e.nextCkptAt < stop {
			stop = e.nextCkptAt
		}
		n := stop - e.m.Pos()
		if n == 0 {
			n = 1 // defensive: always make progress
		}
		from := e.m.Pos()
		done, err := e.m.StepN(n)
		e.reexecuted += done
		if err != nil {
			return StopStep, err
		}
		e.maybeCheckpoint(from)
		if !stops {
			continue
		}
		// As a one-instruction step would after the instruction the call
		// ended after: a watched word's change first, then a breakpoint.
		s := e.m.Stopped()
		if s&core.WatchTouched != 0 {
			if hit := checkWatchVals(e.m, e.watchVals); hit != nil {
				e.lastWatch = hit
				return StopWatch, nil
			}
		}
		if s&core.BreakNext != 0 {
			return StopBreak, nil
		}
	}
	return StopStep, nil
}

// Step executes up to n instructions, stopping early after an instruction
// that changed a watched word, before a breakpoint (the instruction Step
// starts on excepted), or at the end of the window. The final PC of the
// window is the faulting instruction, and a breakpoint there hits.
func (e *Engine) Step(n uint64) (StopReason, error) {
	if e.m.Done() {
		return StopEnd, nil
	}
	target := e.m.Window()
	if left := target - e.m.Pos(); n < left {
		target = e.m.Pos() + n
	}
	if err := e.reach(target, mFillStep); err != nil {
		return StopEnd, err
	}
	why, err := e.forwardTo(target, true)
	if err != nil {
		return StopEnd, err
	}
	if why == StopStep && e.m.Done() {
		return StopEnd, nil
	}
	return why, nil
}

// Continue runs forward until a breakpoint, watchpoint, or the end of the
// window (where the faulting instruction, if any, is next). On a fresh
// engine with no stops set it replays only the tail (see the package doc).
func (e *Engine) Continue() (StopReason, error) {
	return e.Step(^uint64(0)) // the window is far shorter than 2^64
}

// SeekTo travels to an absolute position: it restores the nearest
// checkpoint at or before the target whenever that lands closer than the
// current position — backward always, forward when a checkpoint lets the
// seek skip ahead — then re-executes to the target, so on a warmed window
// the cost is bounded by the checkpoint spacing, not the distance.
//
// A reverse step that has more than 2δ instructions to re-execute,
// δ = ⌈√(2K)⌉, stops δ short of its target on the way and plants the near
// checkpoint there, replacing the previous one. The reverse steps that
// follow restore it and re-execute less than δ, until one moves past it
// and plants the next: δ steps of one instruction then cost one long seek
// plus δ²/2 instructions, and δ minimises that, K/δ + δ/2 a step.
//
// A long SeekTo plants too, so that a reverse step right after it is
// short, but only when a reverse step came since the SeekTo before it
// (or it is the first): a run of seeks, or reverse-continue landings, with
// no reverse step between them plants at its first and then pays nothing
// for the near checkpoint. The reverse step that breaks such a run
// re-executes from the grid and plants, and the seeks after it plant
// again. Continue and Step plant nothing. Breakpoints and watchpoints do
// not fire during a seek.
func (e *Engine) SeekTo(target uint64) error {
	plant := !e.seeking
	e.seeking = true
	return e.seek(target, plant)
}

// seek is SeekTo, planting the near checkpoint on a long re-execution
// when plant is set.
func (e *Engine) seek(target uint64, plant bool) error {
	if target > e.m.Window() {
		target = e.m.Window()
	}
	if err := e.reach(target, mFillSeek); err != nil {
		return err
	}
	if target < e.bare {
		mTailGrids.Inc()
		e.bare = 0
	}
	if c := e.ckpts[e.ckptIndexAtOrBefore(target)]; target < e.m.Pos() || c.pos > e.m.Pos() {
		e.restore(c)
	}
	if d := e.nearDistance(); plant && target-e.m.Pos() > 2*d {
		if _, err := e.forwardTo(target-d, false); err != nil {
			return err
		}
		e.plantNear()
	}
	if _, err := e.forwardTo(target, false); err != nil {
		return err
	}
	e.primeWatches()
	return nil
}

// nearDistance is δ = ⌈√(2K)⌉, how far short of a long seek's target the
// near checkpoint stands.
func (e *Engine) nearDistance() uint64 {
	return uint64(math.Ceil(math.Sqrt(float64(2 * e.cfg.CheckpointEvery))))
}

// ReverseStep travels n instructions backward. It reports StopStart when
// the request was clamped at the window start.
func (e *Engine) ReverseStep(n uint64) (StopReason, error) {
	e.seeking = false
	pos := e.m.Pos()
	if n >= pos {
		if err := e.seek(0, true); err != nil {
			return StopStart, err
		}
		if n > pos {
			return StopStart, nil
		}
		return StopStep, nil
	}
	if err := e.seek(pos-n, true); err != nil {
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
// The scan walks checkpoint gaps newest-first: restore a gap's starting
// checkpoint into a scan machine, re-execute it through the block engine
// to the gap's end recording the last stop, and only widen backward when a
// gap contains none — so the common "the write was recent" case costs one
// gap, and the worst case is one pass over the window. GOMAXPROCS scan
// machines take that many gaps at a time, speculatively in parallel (still
// merged newest-first, older gaps cancelled once a newer one stops), so
// the worst case costs one pass over the window divided across processors.
func (e *Engine) ReverseContinue() (StopReason, error) {
	if len(e.m.Breakpoints()) == 0 && len(e.m.Watches()) == 0 {
		// Nothing can stop a reverse scan; land on the window start
		// without re-executing every gap.
		err := e.fill(mFillRcont)
		if err == nil {
			err = e.SeekTo(0)
		}
		return StopStart, err
	}
	if err := e.fill(mFillRcont); err != nil {
		return StopStep, err
	}
	return e.reverseScan(max(1, runtime.GOMAXPROCS(0)))
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

// scanChunk bounds the instructions a gap scan runs between polls of its
// cancellation flag.
const scanChunk = 4096

// scanGap re-executes m — already restored to a gap-start checkpoint,
// with vals primed there — up to limit, recording the LAST break or watch
// stop in the gap: a watch stop is the position of the mutating
// instruction, a break stop the position before the breakpoint when it is
// still below the limit (the limit itself is where the reverse motion
// started), and of two at one position the watch stop, whose instruction
// runs second. An execution error abandons the gap, discarding any stop
// already recorded in it. A non-nil cancel flag abandons the scan once a
// newer gap has decided the result.
func scanGap(m *core.ReplayMachine, vals map[uint32]watchVal, limit uint64, cancel *atomic.Bool) gapScan {
	g := gapScan{hitPos: -1, reason: StopStep}
	if slices.Contains(m.Breakpoints(), m.PC()) && m.Pos() < limit {
		g.hitPos, g.reason = int64(m.Pos()), StopBreak
	}
	for m.Pos() < limit && !m.Done() {
		if cancel != nil && cancel.Load() {
			g.cancelled = true
			return g
		}
		if _, err := m.StepN(min(limit-m.Pos(), scanChunk)); err != nil {
			g.err = err
			return g
		}
		s := m.Stopped()
		if s&core.WatchTouched != 0 {
			if hit := checkWatchVals(m, vals); hit != nil {
				// The instruction the call ended after is the mutator.
				g.hitPos, g.reason, g.watch = int64(m.Pos()-1), StopWatch, hit
			}
		}
		if s&core.BreakNext != 0 && m.Pos() < limit {
			g.hitPos, g.reason, g.watch = int64(m.Pos()), StopBreak, nil
		}
	}
	return g
}

// reverseScan decomposes the history below the current position into
// checkpoint gaps and scans up to width of them concurrently per round,
// newest-first. Each gap's checkpoint is restored into a private scan
// machine on the engine's goroutine (snapshot restores share copy-on-write
// state and must not race), then the gaps re-execute in parallel; once a
// newer gap records a stop, the older gaps of the round are cancelled.
// Results merge in gap order, so the stop chosen — and the error surfaced,
// if a gap fails before any newer gap stops — is the one a newest-first
// walk of one gap at a time finds, whatever the width.
func (e *Engine) reverseScan(width int) (StopReason, error) {
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
		s := e.newMachine(0, 0)
		for _, pc := range e.m.Breakpoints() {
			s.SetBreak(pc, true)
		}
		for _, a := range e.m.Watches() {
			s.SetWatch(a, true)
		}
		e.scanners = append(e.scanners, s)
	}
	scanners := e.scanners[:workers]
	defer func() {
		for _, m := range scanners {
			m.Release()
		}
	}()
	// scan restores gap k's checkpoint into m and scans it.
	scan := func(m *core.ReplayMachine, k gap, cancel *atomic.Bool) gapScan {
		vals := make(map[uint32]watchVal, len(m.Watches()))
		primeWatchVals(m, vals)
		return scanGap(m, vals, k.limit, cancel)
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
			wg.Add(1)
			go func(k int, m *core.ReplayMachine) {
				defer wg.Done()
				g := scan(m, batch[k], &cancels[k])
				results[k] = g
				if !g.cancelled && (g.err != nil || g.hitPos >= 0) {
					// This gap decides over everything older; stop wasting
					// cores on gaps whose results cannot win the merge.
					for o := k + 1; o < len(batch); o++ {
						cancels[o].Store(true)
					}
				}
			}(k, m)
		}
		wg.Wait()
		for k := range results {
			g := results[k]
			if g.cancelled {
				// Only reachable if the canceller's own result left the
				// merge undecided — it cannot, but a wrong stop position
				// would be silent, so rescan this gap uncancelled.
				scanners[0].Restore(batch[k].ck.snap)
				g = scan(scanners[0], batch[k], nil)
			}
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
		}
	}
	if err := e.SeekTo(0); err != nil {
		return StopStart, err
	}
	return StopStart, nil
}
