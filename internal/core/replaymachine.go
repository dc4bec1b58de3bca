package core

import (
	"fmt"
	"slices"
	"unsafe"

	"bugnet/internal/asm"
	"bugnet/internal/cpu"
	"bugnet/internal/fll"
	"bugnet/internal/mem"
)

// MachineOptions tunes a ReplayMachine.
type MachineOptions struct {
	// TrackKnown maintains the §7.1 known-memory set: the word addresses
	// the replayed window has touched (injected first loads or replayed
	// stores), held as a page-granular bitmap (mem.KnownSet). Debuggers
	// need it for ReadWord's unknown-memory semantics; the multithreaded
	// triage replay disables it to keep even that branch-and-bitmap write
	// off the per-access hot path.
	TrackKnown bool
}

// ReplayMachine is the incremental single-thread replay engine: the replay
// state machine of Replayer, advanced one instruction at a time with
// interval transitions handled internally, plus full-state snapshot and
// restore. It is the shared substrate of the time-travel debugger
// (internal/timetravel, which the bugnet façade, bugnet-debug, the HTTP
// sessions and the gdb stub all drive) and the multithreaded replayer.
//
// The machine takes ownership of the Replayer it is built from (an
// OnAccess hook already set keeps firing after the known-set insert, as
// the multithreaded replayer's race detector relies on), and the Replayer
// must not be mutated or reused afterwards.
type ReplayMachine struct {
	r     *Replayer
	st    *state // st.known is the known-memory set, nil unless TrackKnown
	pos   uint64
	total uint64
	done  bool
}

// Machine wraps the replayer in an incremental stepping engine positioned
// at the start of its first interval (see Intervals).
func (r *Replayer) Machine(opts MachineOptions) *ReplayMachine {
	m := &ReplayMachine{r: r, pos: r.starts[r.first], total: r.starts[r.end]}
	var known *mem.KnownSet
	if opts.TrackKnown {
		known = mem.NewKnownSet()
	}
	m.st = r.newState(known, new(Scratch))
	m.done = !m.st.next()
	return m
}

// Reset rewinds the machine to the start of its first interval,
// re-deriving all replay state (including the known-memory set) from the
// logs.
func (m *ReplayMachine) Reset() {
	known := m.st.known
	if known != nil {
		known.Reset()
	}
	old := m.st
	m.st = m.r.newState(known, new(Scratch))
	m.st.watches = old.watches
	for _, pc := range old.c.Breakpoints() {
		m.SetBreak(pc, true)
	}
	m.pos = m.r.starts[m.r.first]
	m.done = !m.st.next()
}

// Window returns the window position the machine's last interval ends at:
// the instructions the retained logs cover, for a machine built to the
// window's end.
func (m *ReplayMachine) Window() uint64 { return m.total }

// Pos returns the window position: the instructions before the machine's
// first interval plus those it executed.
func (m *ReplayMachine) Pos() uint64 { return m.pos }

// Done reports whether the window is exhausted.
func (m *ReplayMachine) Done() bool { return m.done }

// PC returns the current program counter.
func (m *ReplayMachine) PC() uint32 { return m.st.c.PC }

// Registers returns the current architectural state.
func (m *ReplayMachine) Registers() cpu.Snapshot { return m.st.c.State() }

// Fault returns the crash record of the final log, if any.
func (m *ReplayMachine) Fault() *fll.FaultRecord {
	if len(m.st.logs) == 0 {
		return nil
	}
	return m.st.logs[len(m.st.logs)-1].Fault
}

// Trace returns the verification/backtrace ring (oldest first), empty
// unless the Replayer was built with TraceDepth > 0.
func (m *ReplayMachine) Trace() []TraceEntry {
	if m.st.trace == nil {
		return nil
	}
	return m.st.trace.entries()
}

// Result builds the replay summary at the current position (the
// multithreaded replayer calls it once each thread's window is exhausted).
func (m *ReplayMachine) Result() *ReplayResult { return m.st.result() }

// StepOne advances exactly one instruction, handling interval transitions
// on both sides. At the end of the window it sets Done and returns nil.
func (m *ReplayMachine) StepOne() error {
	_, err := m.StepN(1)
	return err
}

// Stops is the set of stops a StepN call ended on (see Stopped).
type Stops uint8

// Stops a StepN call reports.
const (
	// BreakNext: the call ran at least one instruction and the next is a
	// breakpoint.
	BreakNext Stops = 1 << iota
	// WatchTouched: the call's last instruction may have changed the known
	// value of a watched word — stored to it, injected into it, or made it
	// known.
	WatchTouched
)

// SetBreak sets (on) or clears the breakpoint at pc. Breakpoints and
// watches survive Restore and Reset.
func (m *ReplayMachine) SetBreak(pc uint32, on bool) { m.st.c.SetBreak(pc, on) }

// Breakpoints returns the breakpoints in ascending order. The caller must
// not modify the slice.
func (m *ReplayMachine) Breakpoints() []uint32 { return m.st.c.Breakpoints() }

// SetWatch sets (on) or clears the watch on the word containing addr. The
// machine must track the known set: only its hooks look for watched words.
func (m *ReplayMachine) SetWatch(addr uint32, on bool) {
	w := addr &^ 3
	i, found := slices.BinarySearch(m.st.watches, w)
	switch {
	case on && !found:
		m.st.watches = slices.Insert(m.st.watches, i, w)
	case !on && found:
		m.st.watches = slices.Delete(m.st.watches, i, i+1)
	}
}

// Watches returns the watched word addresses in ascending order. The
// caller must not modify the slice.
func (m *ReplayMachine) Watches() []uint32 { return m.st.watches }

// Stopped returns the stops the last StepN call ended on, none if it ran
// all it was asked to and no breakpoint is next.
func (m *ReplayMachine) Stopped() Stops { return m.st.stops }

// StepN advances up to n instructions through the predecoded block engine,
// handling interval transitions, and returns how many executed. It stops
// early at the end of the window (setting Done), on error, before a
// breakpoint once it has run an instruction, and after an instruction that
// touched a watched word; Stopped tells which. The instruction the call
// starts on runs even when it is a breakpoint, so calling StepN again
// moves on.
//
// The backtrace ring is read only between calls, so the fetch hook that
// fills it fires only on the last TraceDepth instructions the call can run
// (see state.untraced).
func (m *ReplayMachine) StepN(n uint64) (uint64, error) {
	st := m.st
	st.stops = 0
	quiet := st.untraced(min(n, m.total-m.pos))
	if quiet == 0 {
		return m.stepN(n)
	}
	st.c.OnFetch = nil
	done, err := m.stepN(quiet)
	st.c.OnFetch = st.fetch
	if err != nil || done < quiet {
		return done, err
	}
	more, err := m.stepN(n - done)
	return done + more, err
}

// stepN is StepN with the fetch hook left as it is.
func (m *ReplayMachine) stepN(n uint64) (uint64, error) {
	st := m.st
	if m.done {
		// Includes the window that never opened: a first interval whose
		// encoded bytes failed to load parks its error in the state.
		return 0, st.err
	}
	var done uint64
	for {
		for st.intervalDone() {
			if err := st.finishInterval(); err != nil {
				return done, err
			}
			if !st.next() {
				m.done = true
				break
			}
		}
		// cpu.Run checks breakpoints only after its call's first
		// instruction; this checks the one each later call starts on, and
		// the one the call ends before.
		if done != 0 && st.c.AtBreak() {
			st.stops |= BreakNext
		}
		if m.done {
			return done, st.err
		}
		if done == n || st.stops != 0 {
			return done, nil
		}
		executed, err := st.run(min(n-done, st.cur.Length-st.executed))
		done += executed
		m.pos += executed
		if err != nil {
			return done, err
		}
	}
}

// Known reports whether the recorded window has touched addr's word so
// far. Always false when the machine was built without TrackKnown.
func (m *ReplayMachine) Known(addr uint32) bool {
	return m.st.known != nil && m.st.known.Has(addr)
}

// KnownWords returns the touched word addresses in ascending order.
func (m *ReplayMachine) KnownWords() []uint32 {
	if m.st.known == nil {
		return []uint32{}
	}
	return m.st.known.Words()
}

// ReadWord inspects replayed memory under the paper's §7.1 semantics:
// known is false for locations the recorded window has not touched —
// their values were never logged and cannot be examined. Program text is
// always known (the developer has the binary). Requires TrackKnown.
func (m *ReplayMachine) ReadWord(addr uint32) (value uint32, known bool) {
	wordAddr := addr &^ 3
	if m.st.known == nil || !m.st.known.Has(wordAddr) {
		img := m.r.img
		if wordAddr >= img.TextBase && int(wordAddr-img.TextBase)+4 <= len(img.Text) {
			if v, err := m.st.mem.LoadWord(wordAddr); err == nil {
				return v, true
			}
		}
		return 0, false
	}
	v, err := m.st.mem.LoadWord(wordAddr)
	if err != nil {
		return 0, false
	}
	return v, true
}

// ReplaySnapshot is a frozen logical copy of an in-flight replay: memory
// image, architectural state, log cursors (interval index, bit position,
// prefetched entry, the L-Count the core is counting down), dictionary
// contents, trace ring and known-memory bitmap. The memory image and known set are captured copy-on-write
// (O(directory), not O(pages)), so taking a checkpoint no longer
// deep-copies page arrays or word maps; pages are copied lazily as the
// live machine dirties them. Restoring one reproduces the replay exactly
// as it was at Pos — the checkpoint primitive behind O(K) reverse
// execution. A snapshot is immutable and may be restored any number of
// times.
type ReplaySnapshot struct {
	pos  uint64
	done bool

	mem    *mem.Memory
	regs   cpu.Snapshot
	ic     uint64
	halted bool
	fault  *cpu.FaultInfo

	idx      int
	executed uint64
	total    uint64
	injected uint64
	passing  uint64      // the L-Count the core was counting down
	reader   *fll.Reader // refers to its own frozen dictionary clone
	trace    *traceRing
	err      error

	known *mem.KnownSet
	added mem.Delta
	fixed int64
}

// Pos returns the instruction position the snapshot was taken at.
func (s *ReplaySnapshot) Pos() uint64 { return s.pos }

// Added names the pages, known bitmaps and table leaves the machine copied
// or created between its previous share (Snapshot or Restore) and this
// snapshot: the parts this snapshot holds that no earlier one does.
// Everything else it references, the snapshot or restore before it already
// holds. Callers must not modify the result.
func (s *ReplaySnapshot) Added() mem.Delta { return s.added }

// SizeBytes returns the heap bytes the snapshot added when it was taken,
// for checkpoint byte budgets: the parts Added names plus what every
// snapshot owns outright — the two table directories, the dictionary and
// trace-ring clones, the cursor.
func (s *ReplaySnapshot) SizeBytes() int64 { return s.fixed + s.added.Bytes() }

// Parts visits every table part the snapshot references (see
// mem.Memory.Parts); accounting tests compare identities across snapshots.
func (s *ReplaySnapshot) Parts(fn func(key uint32, part any)) {
	s.mem.Parts(true, fn)
	s.known.Parts(true, fn)
}

// Parts visits every table part the live machine references.
func (m *ReplayMachine) Parts(fn func(key uint32, part any)) {
	m.st.mem.Parts(true, fn)
	m.st.known.Parts(true, fn)
}

// private names the table parts the state owns alone.
func (st *state) private() (d mem.Delta) {
	own := func(key uint32, _ any) { d = append(d, key) }
	st.mem.Parts(false, own)
	st.known.Parts(false, own)
	return d
}

// Snapshot captures the machine's complete replay state.
func (m *ReplayMachine) Snapshot() *ReplaySnapshot {
	st := m.st
	s := &ReplaySnapshot{
		pos:  m.pos,
		done: m.done,
		// Sharing clears what the tables own alone: read that first.
		added:    st.private(),
		mem:      st.mem.Snapshot(),
		regs:     st.c.State(),
		ic:       st.c.IC,
		halted:   st.c.Halted,
		idx:      st.idx,
		executed: st.executed,
		total:    st.total,
		injected: st.injected,
		passing:  st.c.Passing(),
		trace:    st.trace.clone(),
		err:      st.err,
	}
	if st.c.Fault != nil {
		f := *st.c.Fault
		s.fault = &f
	}
	if st.reader != nil {
		d := st.d.Clone()
		s.reader = st.reader.Clone(d)
	}
	s.known = st.known.Clone()
	s.fixed = int64(unsafe.Sizeof(*s)) + 4*int64(cap(s.added)) + mem.DirBytes
	if s.known != nil {
		s.fixed += mem.DirBytes
	}
	if s.reader != nil {
		s.fixed += int64(unsafe.Sizeof(*s.reader)) + s.reader.Dict().SizeBytes()
	}
	if s.trace != nil {
		s.fixed += int64(len(s.trace.buf)) * int64(unsafe.Sizeof(TraceEntry{}))
	}
	return s
}

// Restore installs a snapshot, copying out of it (copy-on-write for the
// memory image and known set) so the snapshot stays reusable. The machine
// rewinds in place: the pages, known bitmaps and table leaves it owns alone
// are kept to back its next copy-on-write faults, the dictionary, log
// reader and trace ring are overwritten in their own storage, and the
// predecoded blocks stay unless the memory recycled a page they could have
// come from, so a warmed restore allocates nothing and re-executing from it
// decodes no block twice. The machine must have been built from the same
// logs the snapshot was taken over.
func (m *ReplayMachine) Restore(s *ReplaySnapshot) {
	st := m.st
	st.mem.RestoreFrom(s.mem)
	// A recycled page can come back at the same page number with other
	// bytes, which the block cache's Gen and pointer check would accept.
	// Every other page a block can name is shared with a snapshot and
	// keeps its bytes, so only the recycled pages' numbers flush.
	if lo, hi, ok := st.mem.FreedPages(); ok {
		st.c.InvalidateFetchPages(lo, hi)
	}
	st.c.Restore(s.regs)
	st.c.IC = s.ic
	st.c.PassLoggable(s.passing)
	st.c.Halted = s.halted
	st.c.Fault = nil
	if s.fault != nil {
		f := *s.fault
		st.c.Fault = &f
	}
	st.idx = s.idx
	// The current interval rides inside the snapshot's reader; restore
	// never loads it again.
	st.cur = nil
	if s.reader != nil {
		st.cur = s.reader.Log()
	}
	st.executed = s.executed
	st.total = s.total
	st.injected = s.injected
	if st.trace == nil || s.trace == nil {
		st.trace = s.trace.clone()
	} else {
		st.trace.copyFrom(s.trace)
	}
	st.err = s.err
	if s.reader == nil {
		st.reader = nil
	} else {
		// The snapshot's reader refers to the snapshot's frozen dictionary;
		// copy the pair so the restored cursor updates the state's own
		// table, which no snapshot shares.
		sd := s.reader.Dict()
		if st.d == nil || st.d.Size() != sd.Size() {
			st.d = sd.Clone()
		} else {
			st.d.CopyFrom(sd)
		}
		if st.reader == nil {
			st.reader = s.reader.Clone(st.d)
		} else {
			st.reader.CopyFrom(s.reader, st.d)
		}
	}
	m.pos = s.pos
	m.done = s.done
	if st.known != nil {
		st.known.RestoreFrom(s.known) // a nil s.known: a machine without tracking
	}
}

// Release drops what the machine shares with the snapshot it last
// restored: memory, the known-memory set, and the interval reader. The
// parts it owns alone stay on its free lists for the next Restore, which
// must come before the machine steps again.
func (m *ReplayMachine) Release() {
	st := m.st
	st.mem.Recycle()
	if st.known != nil {
		st.known.RestoreFrom(nil)
	}
	st.cur, st.d, st.reader = nil, nil, nil
}

// SymbolAt renders pc as the closest preceding symbol plus offset, falling
// back to the bare address.
func SymbolAt(img *asm.Image, pc uint32) string {
	bestName := ""
	bestAddr := uint32(0)
	for name, addr := range img.Symbols {
		if addr <= pc && (bestName == "" || addr > bestAddr ||
			(addr == bestAddr && name < bestName)) {
			bestName, bestAddr = name, addr
		}
	}
	if bestName == "" {
		return fmt.Sprintf("%#x", pc)
	}
	if bestAddr == pc {
		return bestName
	}
	return fmt.Sprintf("%s+%#x", bestName, pc-bestAddr)
}
