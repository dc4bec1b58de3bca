package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"bugnet/internal/asm"
	"bugnet/internal/cpu"
	"bugnet/internal/dict"
	"bugnet/internal/fll"
	"bugnet/internal/mem"
)

// ErrDiverged reports that replay did not reproduce the recorded execution
// — an invariant violation in the recorder/replayer pair.
var ErrDiverged = errors.New("core: replay diverged from recording")

// fetchHookAlways keeps the fetch hook on for every instruction, so no
// stretch goes untraced: the reference tests hold the backtrace ring to.
// Only tests set it.
var fetchHookAlways atomic.Bool

// ReplayResult summarizes a single-thread replay.
type ReplayResult struct {
	// TID is the replayed thread.
	TID int
	// Final is the architectural state after the last replayed
	// instruction — the state the developer inspects at the crash.
	Final cpu.Snapshot
	// Instructions is the number of replayed instructions (the replay
	// window actually covered).
	Instructions uint64
	// Intervals is the number of FLLs consumed.
	Intervals int
	// Injected is the number of first-load values taken from the logs.
	Injected uint64
	// Fault carries the crash record from the final FLL, if any: the
	// faulting PC is where the developer's investigation starts.
	Fault *fll.FaultRecord
	// Trace is the verification trace (only with TraceDepth > 0).
	Trace []TraceEntry
}

// Replayer deterministically re-executes one thread from its First-Load
// Logs, as in paper §5.1: load the same binary at the same addresses,
// clear data memory, restore the header's architectural state, then run —
// taking first-load values from the log and everything else from replayed
// computation. Synchronous interrupts become NOPs; execution continues
// into the next FLL.
//
// Logs arrive as lazy views: only the interval currently being replayed
// is held open, so the replayable window is bounded by where the
// encoded bytes live (a disk-backed log store, a report archive on disk),
// not by process memory.
type Replayer struct {
	img  *asm.Image
	logs []*fll.Ref // the whole window, oldest first
	// first and end bound the intervals replayed, logs[first:end]; starts[i]
	// is the window position interval i begins at, starts[len(logs)] the
	// window's length (see Intervals).
	first, end int
	starts     []uint64

	// TraceDepth mirrors the recorder option: a ring of the last
	// TraceDepth committed PCs, for backtraces and divergence checking.
	TraceDepth int
	// verifyRegs fills TraceEntry.RegHash as the recorder does. Only
	// VerifyReplay compares register hashes; backtraces read PCs, and
	// hashing 32 registers per instruction was half of replay's time.
	verifyRegs bool
	// MaxPages, when positive, caps the pages replay memory may map.
	// Untrusted logs control the replayed register state, so without a
	// cap a crafted report could drive unbounded allocation through
	// AutoMap; exceeding the cap surfaces as a memory fault.
	MaxPages int
	// LogCodeLoads must match the recording configuration.
	LogCodeLoads bool
	// InteriorWindow marks logs a caller cut from a larger recording
	// itself, so that their last interval is not the recording's last (see
	// Intervals, which knows without being told). It denies that interval
	// the final-interval fetch exemption.
	InteriorWindow bool
	// DictOptions must match the recording configuration (relevant only
	// for design-space ablations; the zero value is the paper design).
	DictOptions dict.Options

	// OnAccess, if set, is called for every loggable operation and word
	// store with the observed word value; the multithreaded replayer uses
	// it for race inference.
	OnAccess func(pc uint32, wordAddr uint32, isWrite bool)
}

// NewReplayer builds a replayer for one thread's logs, which must be in
// recording order (as CrashReport delivers them).
func NewReplayer(img *asm.Image, logs []*fll.Ref) *Replayer {
	starts := make([]uint64, len(logs)+1)
	for i, l := range logs {
		starts[i+1] = starts[i] + l.Length
	}
	return &Replayer{img: img, logs: logs, end: len(logs), starts: starts}
}

// NewReplayerLogs replays logs built in memory (tests, synthetic windows).
func NewReplayerLogs(img *asm.Image, logs []*fll.Log) *Replayer {
	return NewReplayer(img, WrapFLLs(logs))
}

// Intervals returns a replayer, with r's options, of intervals first
// through end-1 of r's window alone: it starts at interval first's header
// registers with empty memory, an empty known set and an empty dictionary,
// which BugNet §4 makes exact — the recorder logs every value an interval
// loads before it stores it, so no interval needs the state an earlier one
// left. Positions and the core's committed-instruction counter stay
// window-global, so a fault or divergence reads as it would in a replay of
// the whole window. Under LogCodeLoads only the window's real last
// interval may stop one logged code fetch short. Parallel replay runs each
// interval this way, and the time-travel debugger opens on the window's
// tail this way.
func (r *Replayer) Intervals(first, end int) *Replayer {
	c := *r
	c.first, c.end = first, end
	return &c
}

// WrapFLLs encodes each log once and views the bytes as a ref, in order.
func WrapFLLs(logs []*fll.Log) []*fll.Ref {
	refs := make([]*fll.Ref, len(logs))
	for i, l := range logs {
		enc := l.Marshal()
		refs[i] = fll.NewLazyRef(l.Meta, int64(len(enc)), func() ([]byte, error) { return enc, nil })
	}
	return refs
}

// Run replays all logs to completion. Each interval executes as one batch
// through the predecoded block engine (cpu.Run); the per-instruction hooks
// fire exactly as they do under single-stepping.
func (r *Replayer) Run() (*ReplayResult, error) { return r.RunOn(new(Scratch)) }

// Scratch is the storage of one replay machine — memory, core, dictionary
// — lent to RunOn. The zero value is ready to use and is not safe for
// concurrent use.
type Scratch struct {
	mem *mem.Memory
	c   *cpu.CPU
	d   *dict.Table
	do  dict.Options // what d was built with
}

// RunOn is Run on a lent machine, for a caller replaying many windows back
// to back (parallel interval replay: one Scratch per worker, one interval
// per call). Every call starts from exactly the state Run builds — empty
// memory but for the image's text, a whole page budget, a zeroed core with
// nothing decoded, an empty dictionary — so the result never depends on
// what the Scratch replayed before; what survives is storage: the pages and
// page-table leaves the previous replay mapped, the block-cache array, the
// dictionary's arrays.
//
// It is one ReplayMachine.StepN over the whole window, so the backtrace
// ring is filled only over the window's last TraceDepth instructions.
func (r *Replayer) RunOn(s *Scratch) (*ReplayResult, error) {
	st := r.newState(nil, s)
	defer func() { s.d = st.d }()
	m := ReplayMachine{r: r, st: st, pos: r.starts[r.first], total: r.starts[r.end]}
	m.done = !st.next()
	if _, err := m.StepN(m.total); err != nil {
		return nil, err
	}
	return st.result(), nil
}

// state is the incremental replay machine, also driven step-by-step by the
// multithreaded replayer.
type state struct {
	r   *Replayer
	mem *mem.Memory
	c   *cpu.CPU

	logs     []*fll.Ref // the window up to the replayer's end
	idx      int        // current log index (idx-1 after next())
	cur      *fll.Log   // the one interval held open
	reader   *fll.Reader
	d        *dict.Table
	executed uint64 // instructions executed within the current interval

	total    uint64 // instructions this replay executed, from its first interval
	injected uint64
	trace    *traceRing
	err      error
	// fetch is onFetch bound once: StepN switches the hook off and on around
	// untraced stretches, and a method value evaluated there would allocate.
	fetch func(pc uint32)

	// known is the §7.1 known-memory set, nil unless a ReplayMachine tracks
	// it; the hooks insert into it directly.
	known *mem.KnownSet
	// counts is set when the core counts the operations an L-Count passes
	// (see fll.Reader.Pass): nothing but a due entry needs the loggable hook
	// when no known set, OnAccess hook or code-load log looks at every
	// operation.
	counts bool
	// watches are the words, ascending, whose touch ends a StepN call
	// (see ReplayMachine.SetWatch); stops is what ended the current one.
	watches []uint32
	stops   Stops
}

// newState builds the replay machine on s: a zero Scratch gets a new memory
// and core, a used one has both emptied in place.
func (r *Replayer) newState(known *mem.KnownSet, s *Scratch) *state {
	if s.mem == nil {
		s.mem = mem.New()
		s.c = cpu.New(s.mem)
	} else {
		s.mem.Recycle()
		s.c.Reset(s.mem)
	}
	if s.do != r.DictOptions {
		s.d, s.do = nil, r.DictOptions
	}
	m, c := s.mem, s.c
	if len(r.img.Text) > 0 {
		m.Map(r.img.TextBase, uint32(len(r.img.Text)))
		if err := m.StoreBytes(r.img.TextBase, r.img.Text); err != nil {
			panic(err)
		}
	}
	c.AutoMap = true
	c.IC = r.starts[r.first]
	if r.MaxPages > 0 {
		// The budget is for replay-touched data pages; the program text
		// mapped above is a property of the binary, not the logs.
		m.MapLimit = r.MaxPages + m.MappedPages()
	}
	st := &state{r: r, mem: m, c: c, logs: r.logs[:r.end], idx: r.first, d: s.d, known: known,
		counts: known == nil && r.OnAccess == nil && !r.LogCodeLoads}
	if r.TraceDepth > 0 {
		st.trace = newTraceRing(r.TraceDepth)
	}
	c.OnLoggable = st.onLoggable
	if known != nil || r.OnAccess != nil {
		c.OnWordStore = st.onWordStore
	}
	if st.trace != nil || r.LogCodeLoads {
		st.fetch = st.onFetch
		c.OnFetch = st.fetch
	}
	return st
}

// untraced returns how many of the next span instructions may run with the
// fetch hook off: all but the last TraceDepth when the hook only fills the
// backtrace ring (under LogCodeLoads it injects code words, and stays on).
// Answering more than zero empties the ring, so it never holds PCs from
// before an untraced stretch next to the ones after it: after a divergence
// the ring holds only what was fetched since the stretch ended, nothing if
// the divergence fell inside it.
//
// A machine with breakpoints or watched words traces every fetch: a stop can
// end the call anywhere, and the ring must hold the trail there.
func (st *state) untraced(span uint64) uint64 {
	if st.trace == nil || st.r.LogCodeLoads || span <= uint64(len(st.trace.buf)) || fetchHookAlways.Load() ||
		len(st.watches) != 0 || len(st.c.Breakpoints()) != 0 {
		return 0
	}
	st.trace.reset()
	return span - uint64(len(st.trace.buf))
}

// next advances to the next FLL, opening it from its view (the previous
// interval is dropped); false when all are consumed or a log failed to
// load, which parks the error in st.err.
func (st *state) next() bool {
	if st.err != nil || st.idx >= len(st.logs) {
		return false
	}
	l, err := st.logs[st.idx].Open()
	if err != nil {
		st.err = fmt.Errorf("core: materializing interval C%d: %w", st.logs[st.idx].CID, err)
		return false
	}
	st.cur = l
	st.idx++
	st.executed = 0
	// Every interval starts from an empty dictionary; the state's table is
	// private to it (snapshots hold clones), so one table serves them all.
	if st.d != nil && st.d.Size() == int(st.cur.DictSize) {
		st.d.Reset()
	} else {
		st.d = dict.NewWithOptions(int(st.cur.DictSize), st.r.DictOptions)
	}
	st.reader = fll.NewReader(st.cur, st.d)
	if st.counts {
		st.c.PassLoggable(st.reader.Pass())
	}
	st.c.Restore(st.cur.State)
	st.c.Halted = false
	st.c.Fault = nil
	return true
}

func (st *state) intervalDone() bool { return st.executed >= st.cur.Length }

// run executes up to n instructions of the current interval in one
// cpu.Run call and returns how many committed. Syscalls are NOPs during
// replay (paper §5.1): the kernel's effects are reconstructed from the next
// FLL header and the logged first-loads, so a committed SYSCALL just counts
// and the caller runs on. A hook failure requests a stop, so the call ends
// on the exact instruction whose log entry diverged — the same instruction
// a one-instruction step stops on.
func (st *state) run(n uint64) (uint64, error) {
	if st.err != nil {
		return 0, st.err
	}
	executed, ev := st.c.Run(n)
	st.executed += executed
	st.total += executed
	switch ev {
	case cpu.EventFault:
		if st.err == nil { // a hook (e.g. the page-budget refusal) may have set the cause already
			st.err = fmt.Errorf("%w: unexpected %v at replay instruction %d of interval C%d",
				ErrDiverged, st.c.Fault, st.executed, st.cur.CID)
		}
	case cpu.EventHalted:
		st.err = fmt.Errorf("%w: core halted mid-interval C%d", ErrDiverged, st.cur.CID)
	}
	return executed, st.err
}

// finishInterval validates that the log was fully consumed and that the
// thread ended where its next interval starts.
func (st *state) finishInterval() error {
	if st.err != nil {
		return st.err
	}
	if err := st.reader.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrDiverged, err)
	}
	if !st.reader.Exhausted() {
		// Under LogCodeLoads the recorder logs the *fetch* of the faulting
		// instruction, but the instruction never commits, so replay of the
		// thread's final, fault-terminated interval legitimately stops
		// exactly one logged fetch short of the log. Anything else —
		// interior intervals a hostile log marks EndFault, or more than
		// one leftover entry — is divergence.
		last := st.idx == len(st.r.logs) && !st.r.InteriorWindow
		if !(st.r.LogCodeLoads && st.cur.End == fll.EndFault && last && st.reader.PendingOne()) {
			return fmt.Errorf("%w: interval C%d ended with unconsumed log entries", ErrDiverged, st.cur.CID)
		}
	}
	// Nothing but the thread ran between an interval that filled up or was
	// preempted and the thread's next one, so that one's header holds the
	// state replay must have reached: a divergence that changed only
	// registers shows here. A window cut short (Intervals) checks against
	// the interval after its end too.
	if (st.cur.End == fll.EndIntervalFull || st.cur.End == fll.EndTimer) && st.idx < len(st.r.logs) {
		if next := st.r.logs[st.idx]; st.c.State() != next.State {
			return fmt.Errorf("%w: interval C%d ended at pc %#x, not at the state interval C%d starts from (pc %#x)",
				ErrDiverged, st.cur.CID, st.c.PC, next.CID, next.State.PC)
		}
	}
	return nil
}

// fail records the first hook failure and asks the in-flight batch to
// stop after the current instruction.
func (st *state) fail(err error) {
	if st.err == nil {
		st.err = err
	}
	st.c.Stop()
}

// touch ends the StepN call after the current instruction when it may have
// changed the known value of a watched word.
func (st *state) touch(wordAddr uint32) {
	if _, found := slices.BinarySearch(st.watches, wordAddr); found {
		st.stops |= WatchTouched
		st.c.Stop()
	}
}

// onWordStore records a replayed word store for the known set and the
// user's hook; onLoggable ends the same way, spelled out in both so plain
// replay pays two nil checks per access, not a call.
func (st *state) onWordStore(wordAddr uint32) {
	if st.known != nil {
		if len(st.watches) != 0 {
			st.touch(wordAddr)
		}
		st.known.Add(wordAddr)
	}
	if st.r.OnAccess != nil {
		st.r.OnAccess(st.c.PC, wordAddr, true)
	}
}

// onLoggable injects logged first-load values before each loggable
// operation the core does not pass (see state.counts). A due operation's
// value goes in with one page walk that stores only a value that differs
// from the word replay memory already holds: contents are the same either
// way, and a load that merely confirms memory leaves its page shared with
// the checkpoints instead of copy-on-write faulting it. Memory is read only
// for the dictionary, while the reader is Feeding.
func (st *state) onLoggable(wordAddr uint32, isWrite bool) {
	v, injected, err := st.reader.Take()
	if err != nil {
		st.fail(fmt.Errorf("%w: %v", ErrDiverged, err))
		return
	}
	changed := false
	if injected {
		st.injected++
		if changed, err = st.mem.SetWord(wordAddr, v); err != nil {
			st.fail(fmt.Errorf("%w: inject at %#x: %v", ErrDiverged, wordAddr, err))
			return
		}
	} else if st.reader.Feeding() {
		cur, err := st.mem.LoadWord(wordAddr)
		if err != nil {
			st.fail(fmt.Errorf("%w: replay memory read %#x: %v", ErrDiverged, wordAddr, err))
			return
		}
		st.reader.Feed(cur)
	}
	if st.counts {
		st.c.PassLoggable(st.reader.Pass())
	}
	if st.known != nil {
		// A load that injects nothing new into a known word changes
		// nothing a watch sees.
		if len(st.watches) != 0 && (isWrite || changed || !st.known.Has(wordAddr)) {
			st.touch(wordAddr)
		}
		st.known.Add(wordAddr)
	}
	if st.r.OnAccess != nil {
		st.r.OnAccess(st.c.PC, wordAddr, isWrite)
	}
}

// onFetch mirrors the recorder's fetch hook: verification tracing and
// code-load injection under the self-modifying-code extension.
func (st *state) onFetch(pc uint32) {
	if st.trace != nil {
		e := TraceEntry{PC: pc}
		if st.r.verifyRegs {
			e.RegHash = hashRegs(&st.c.Regs)
		}
		st.trace.push(e)
	}
	if st.r.LogCodeLoads {
		wordAddr := pc &^ 3
		if !st.mem.TryMap(wordAddr, 4) {
			// The MaxPages cap guards untrusted logs; a fetch stride that
			// exhausts it is a divergence, not an allocation.
			st.fail(fmt.Errorf("%w: code load at %#x exceeds the replay page budget", ErrDiverged, pc))
			return
		}
		cur, _ := st.mem.LoadWord(wordAddr)
		v, injected, err := st.reader.Op(cur)
		if err != nil {
			st.fail(fmt.Errorf("%w: code load: %v", ErrDiverged, err))
			return
		}
		if injected {
			st.injected++
			if v != cur { // the guest really modified this code word
				st.mem.StoreWord(wordAddr, v)
				st.c.InvalidateFetchCache()
				if len(st.watches) != 0 {
					st.touch(wordAddr)
				}
			}
		}
	}
}

// result builds the final summary.
func (st *state) result() *ReplayResult {
	res := &ReplayResult{
		Final:        st.c.State(),
		Instructions: st.total,
		Intervals:    st.idx - st.r.first,
		Injected:     st.injected,
	}
	if len(st.logs) > 0 {
		last := st.logs[len(st.logs)-1]
		res.TID = int(last.TID)
		res.Fault = last.Fault
	}
	if st.trace != nil {
		res.Trace = st.trace.entries()
	}
	return res
}
