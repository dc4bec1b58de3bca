// Package timetravel is the interactive time-travel debugging subsystem:
// checkpointed reverse execution over a recorded replay window, plus the
// session layer that exposes it to remote developers over HTTP.
//
// The paper's point is developer-side deterministic replay debugging (§1,
// §5), but naive "back in time" re-executes from the window start:
// O(window) per reverse step. An Engine wraps core.ReplayMachine with a
// store of full-state checkpoints (CPU snapshot, known-memory bitmap, log
// cursors, backtrace ring), each captured copy-on-write for the cost of its
// page-table directory. Every motion asks the store where to restore for
// its target, re-executes forward from there, and asks it at each grid
// position whether to lay a checkpoint. The store keeps a grid every K =
// CheckpointEvery instructions under a byte budget, plus one near
// checkpoint δ = ⌈√(2K)⌉ short of a long reverse step's target, so a seek
// costs one restore plus at most K whatever the window's length, and
// consecutive single reverse steps K/δ + δ/2 instructions each on average
// (about 141 at the default K) instead of K/2. Data watchpoints honor the
// paper's §7.1 unknown-memory semantics: a watch fires when the watched
// word's *known* value changes — a replayed store rewriting it, or a
// logged first-load injection making it known in the first place.
//
// Breakpoints and watchpoints stop the replay machine's block engine
// itself (see core.ReplayMachine.StepN): Step, Continue and the reverse
// scan run at replay speed, and only an instruction that may have changed
// a watched word, or a breakpoint, hands control back to the engine.
//
// An engine opens on the window's tail. Every FLL interval replays alone
// from its header's registers and empty memory (BugNet §4), so the first
// motion — typically Continue to the crash — replays only the last
// interval (or the last few, enough for a full backtrace) when no stop is
// set. The store's anchor stands at the tail's start, which the header
// gives for free, and of the tail's grid the open lays only the last
// checkpoint before its target; the backward motions below it lay the
// rest. Registers, PC, backtrace, fault and every word the tail touched
// are exactly what a replay of the whole window gives. The first command
// that needs older history — a target before the tail's start plus
// TraceDepth, a ReadWord or AddWatch of a word the tail has not touched
// (program text included), a ReverseContinue with stops set — fills it
// in: one forward pass from the window start to the current position,
// after which the engine is the one it would have been had it replayed
// the whole window from the start.
package timetravel

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu"
	"bugnet/internal/fll"
	"bugnet/internal/obs"
)

// Config parameterizes an Engine.
type Config struct {
	// CheckpointEvery is the store's grid spacing K in replayed
	// instructions: a seek costs at most one restore plus K forward steps,
	// and a reverse step of n ≤ δ = ⌈√(2K)⌉ off the near checkpoint
	// re-executes fewer than δ (see SeekTo). Default 10_000.
	CheckpointEvery uint64
	// CheckpointBudget bounds the bytes the store charges its checkpoints:
	// what each adds to the heap copy-on-write (see core.ReplaySnapshot),
	// the pages, known bitmaps and table leaves the replay copied or
	// created since the checkpoint before it, plus its own directories and
	// cursor. The charge is never less than the bytes the checkpoints
	// retain, and exactly those on a forward pass over the window. Over
	// budget the store evicts the checkpoint whose removal leaves the
	// smallest gap, sparing the anchor, the newest and, while anything
	// else is left, the near checkpoint: the seek bound degrades to the
	// widest surviving gap. Default 64 MB.
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

	// store holds the engine's restore points; it is empty until the
	// engine's first motion, which decides whether its anchor stands at the
	// tail's start (see reach) or at the window's.
	store checkpointStore

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
		store:     checkpointStore{k: cfg.CheckpointEvery, budget: cfg.CheckpointBudget},
	}
	e.m = e.newMachine(TraceDepth, 0)
	return e, tid, nil
}

// start puts the engine at the start of interval first on a new machine,
// and anchors the store there: every backward seek has somewhere to land.
// The breakpoints and watched words carry over.
func (e *Engine) start(first int) {
	old := e.m
	e.m = e.newMachine(TraceDepth, first)
	for _, pc := range old.Breakpoints() {
		e.m.SetBreak(pc, true)
	}
	for _, a := range old.Watches() {
		e.m.SetWatch(a, true)
	}
	e.store.reset(e.m)
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
// motion, while the store is empty, opens on the tail when no stop is set
// and the target lies at least TraceDepth instructions into the tail; any
// other first motion commits the engine to the whole window. An engine on
// the tail fills in older history when the target lies before that point
// or a watched word is one the tail has not touched; why counts that fill.
func (e *Engine) reach(target uint64, why *obs.Counter) error {
	fresh := len(e.store.list) == 0
	if fresh && len(e.m.Breakpoints()) == 0 && len(e.m.Watches()) == 0 {
		if first, pos := e.tail(); first > 0 && target >= pos+TraceDepth {
			mOpenTail.Inc()
			e.start(first)
			e.store.open(target)
			return nil
		}
	}
	if a := e.store.anchor(); fresh || a > 0 && (target < a+TraceDepth || !e.watchesKnown()) {
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
	if len(e.store.list) == 0 {
		mOpenEager.Inc()
		e.store.reset(e.m)
		return nil
	}
	if e.store.anchor() == 0 {
		return nil
	}
	if e.fillErr != nil {
		return e.fillErr
	}
	why.Inc()
	defer mFillSeconds.Since(time.Now())
	pos := e.m.Pos()
	first, _ := e.tail()
	e.start(0)
	_, err := e.forwardTo(pos, false)
	if err != nil {
		e.start(first)
		e.forwardTo(pos, false) // as far as it went before
		e.fillErr = err
	}
	e.primeWatches()
	return err
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
	if e.store.anchor() > 0 && !e.m.Known(addr&^3) {
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
	return len(e.store.list), e.store.bytes
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

// forwardTo runs the machine toward target through the block engine,
// pausing on the checkpoint grid. With stops set it returns at the first
// watch change or breakpoint; a seek runs past every stop.
func (e *Engine) forwardTo(target uint64, stops bool) (StopReason, error) {
	for e.m.Pos() < target && !e.m.Done() {
		from := e.m.Pos()
		// At least one instruction, defensively: always make progress.
		done, err := e.m.StepN(max(min(target, e.store.next)-from, 1))
		e.reexecuted += done
		if err != nil {
			return StopStep, err
		}
		e.store.ran(from)
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

// SeekTo travels to an absolute position: it restores the latest
// checkpoint at or before the target whenever that lands closer than the
// current position — backward always, forward when a checkpoint lets the
// seek skip ahead — then re-executes to the target, so on a warmed window
// the cost is bounded by the checkpoint spacing, not the distance.
//
// A reverse step that has more than 2δ instructions to re-execute,
// δ = ⌈√(2K)⌉, plants the near checkpoint δ short of its target on the
// way, replacing the previous one. The reverse steps that follow restore
// it and re-execute less than δ, until one moves past it and plants the
// next: δ steps of one instruction cost one long seek plus δ²/2
// instructions, which δ minimises at K/δ + δ/2 a step. A long SeekTo
// plants too, so that a reverse step right after it is short, but only
// when a reverse step came since the SeekTo before it (or it is the
// first): a run of seeks or reverse-continue landings with no reverse step
// between them pays for one near checkpoint. Continue and Step plant
// nothing. Breakpoints and watchpoints do not fire during a seek.
func (e *Engine) SeekTo(target uint64) error { return e.seek(target, false) }

// seek is SeekTo, back telling a reverse step's motion from a seek's.
func (e *Engine) seek(target uint64, back bool) error {
	plant := e.store.plants(back)
	target = min(target, e.m.Window())
	if err := e.reach(target, mFillSeek); err != nil {
		return err
	}
	e.store.restore(target)
	if near, ok := e.store.nearAt(target, plant); ok {
		if _, err := e.forwardTo(near, false); err != nil {
			return err
		}
		e.store.lay(true)
	}
	if _, err := e.forwardTo(target, false); err != nil {
		return err
	}
	e.primeWatches()
	return nil
}

// ReverseStep travels n instructions backward. It reports StopStart when
// the request was clamped at the window start.
func (e *Engine) ReverseStep(n uint64) (StopReason, error) {
	pos := e.m.Pos()
	err := e.seek(pos-min(n, pos), true)
	if n > pos || n == pos && err != nil {
		return StopStart, err
	}
	return StopStep, err
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
	gaps := e.store.gaps(e.m.Pos())

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
