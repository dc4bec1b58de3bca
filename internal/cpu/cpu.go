// Package cpu implements the interpreting processor core of the simulated
// machine.
//
// The core executes the ISA of internal/isa against a mem.Memory, exposing
// exactly the architecturally visible events BugNet's hardware taps:
//
//   - OnLoggable fires before every committed "loggable" memory operation
//     with the address of the aligned word it touches, unless the core was
//     handed a count of operations to let through (PassLoggable). Loggable
//     operations are loads (LW/LH/LHU/LB/LBU), atomics, and sub-word stores
//     (SB/SH, which read-modify-write their containing word — see
//     DESIGN.md §5). The recorder uses this hook to test first-load bits and
//     log values; the replayer uses it to inject logged values before the
//     access. Only a replay machine that tracks no known set, has no
//     OnAccess hook and does not log code loads hands the core a count: an
//     FLL entry's L-Count, the operations that log nothing before the next
//     logged one.
//   - OnWordStore fires before every committed full-word store (SW), which
//     sets the first-load bit without logging (paper §4.3).
//   - OnFetch, when enabled, fires for every instruction fetch; it backs
//     the self-modifying-code extension (paper §5.3).
//
// Faulting instructions do not commit and fire no hooks; the CPU stops with
// a FaultInfo describing the architectural fault, which is what triggers
// BugNet's log dump (paper §4.8).
//
// Run (block.go) is the only interpreter: it executes predecoded basic
// blocks, and its one opcode switch is the single statement of the ISA's
// semantics that recording and every replay share. A caller that needs
// one instruction at a time asks for Run(1).
package cpu

import (
	"encoding/binary"
	"fmt"
	"slices"

	"bugnet/internal/isa"
	"bugnet/internal/mem"
)

// FaultCause classifies an architectural fault.
type FaultCause uint8

// Fault causes.
const (
	FaultNone          FaultCause = iota
	FaultInvalidOpcode            // undefined instruction word
	FaultMemRead                  // load from unmapped memory
	FaultMemWrite                 // store to unmapped memory
	FaultMemFetch                 // instruction fetch from unmapped memory
	FaultMisaligned               // misaligned data access
	FaultDivZero                  // integer division by zero
	FaultBreak                    // explicit BREAK instruction
)

func (c FaultCause) String() string {
	switch c {
	case FaultNone:
		return "none"
	case FaultInvalidOpcode:
		return "invalid opcode"
	case FaultMemRead:
		return "invalid memory read"
	case FaultMemWrite:
		return "invalid memory write"
	case FaultMemFetch:
		return "invalid instruction fetch"
	case FaultMisaligned:
		return "misaligned access"
	case FaultDivZero:
		return "division by zero"
	case FaultBreak:
		return "breakpoint trap"
	}
	return "unknown fault"
}

// FaultInfo describes a fault that stopped the core.
type FaultInfo struct {
	Cause FaultCause
	PC    uint32 // address of the faulting instruction
	Addr  uint32 // faulting data address, if a memory fault
	IC    uint64 // committed instructions before the fault
}

func (f *FaultInfo) Error() string {
	return fmt.Sprintf("cpu: %s at pc=0x%08x addr=0x%08x after %d instructions",
		f.Cause, f.PC, f.Addr, f.IC)
}

// Event is why Run stopped.
type Event uint8

// Run outcomes.
const (
	EventStep    Event = iota // instructions committed, nothing notable
	EventSyscall              // a SYSCALL committed; the kernel must service it
	EventFault                // the instruction faulted; the core is stopped
	EventHalted               // the core was already halted
	EventBreak                // the next instruction is a breakpoint; none of it ran
)

// CPU is one processor core's architectural state plus hooks.
//
// Hooks are plain function fields rather than an interface so the hot
// interpreter loop pays a nil check instead of a dynamic dispatch when a
// hook is unused.
type CPU struct {
	PC   uint32
	Regs [isa.NumRegs]uint32
	Mem  *mem.Memory

	// IC is the number of committed instructions.
	IC uint64

	// Halted stops the core; set by the kernel on thread exit.
	Halted bool

	// Fault holds the fault that stopped the core, if any.
	Fault *FaultInfo

	// AutoMap makes data accesses map missing pages (zero-filled) instead
	// of faulting. The replayer runs with AutoMap: replay memory starts
	// empty and materializes from logged values and replayed stores
	// (paper §5.1 "clear all of the data memory locations").
	AutoMap bool

	// OnLoggable, if set, is called with the aligned word address before
	// every committed loggable memory operation, except the ones a count
	// handed over by PassLoggable lets through. isWrite distinguishes
	// operations that also modify memory (sub-word stores, atomics), which
	// the recorder must route through the coherence directory as writes.
	OnLoggable func(wordAddr uint32, isWrite bool)

	// OnWordStore, if set, is called with the aligned word address before
	// every committed full-word store.
	OnWordStore func(wordAddr uint32)

	// OnFetch, if set, is called with the instruction address before each
	// fetch. Used by the LogCodeLoads extension.
	OnFetch func(pc uint32)

	// breaks are the breakpoint PCs in ascending order (see SetBreak).
	breaks []uint32

	// bc is the predecoded basic-block cache behind Run (see block.go),
	// created lazily on the first Run so a core that never runs pays
	// nothing.
	bc *blockCache
	// stop is the pending Stop request consumed by Run.
	stop bool
	// pass is how many more loggable operations commit without calling
	// OnLoggable (see PassLoggable).
	pass uint64

	// _ pads the struct from 248 to 272 bytes (TestCPUSize pins 272). At
	// 240 (Go's 240-byte size class) sequential replay measured 8-10 % and
	// parallel replay 11-20 % slower on the mcf and gzip guests (2-vCPU AMD
	// EPYC VM); at 256 or 272 neither moved. No field offset changes: the
	// size only decides where the core lands on the heap among the
	// replayer's hot objects.
	_ [24]byte
}

// New returns a core attached to m with all state zero.
func New(m *mem.Memory) *CPU {
	return &CPU{Mem: m}
}

// Reset returns the core to what New(m) builds — registers, counters, hooks
// and breakpoints gone — keeping only the block cache's storage, flushed:
// the blocks in it were decoded from another memory's text.
func (c *CPU) Reset(m *mem.Memory) {
	bc := c.bc
	*c = CPU{Mem: m, bc: bc}
	if bc != nil {
		bc.flush()
	}
}

// SetBreak sets (on) or clears the breakpoint at pc. Run returns
// EventBreak before it executes a breakpoint's instruction, unless that is
// the first instruction of the call. Blocks end before breakpoints, so a
// new one flushes the blocks already decoded.
func (c *CPU) SetBreak(pc uint32, on bool) {
	i, found := slices.BinarySearch(c.breaks, pc)
	switch {
	case on && !found:
		c.breaks = slices.Insert(c.breaks, i, pc)
		c.InvalidateFetchCache()
	case !on && found:
		c.breaks = slices.Delete(c.breaks, i, i+1)
	}
}

// Breakpoints returns the breakpoints in ascending order. The caller must
// not modify the slice.
func (c *CPU) Breakpoints() []uint32 { return c.breaks }

// AtBreak reports whether the next instruction is a breakpoint.
func (c *CPU) AtBreak() bool { return len(c.breaks) != 0 && c.isBreak(c.PC) }

func (c *CPU) isBreak(pc uint32) bool {
	_, found := slices.BinarySearch(c.breaks, pc)
	return found
}

// InvalidateFetchCache drops every predecoded block, so each instruction
// is next decoded from the bytes in memory. Must be called after modifying
// text behind the core's back (self-modifying-code extension) or
// unmapping pages.
func (c *CPU) InvalidateFetchCache() {
	if c.bc != nil {
		c.bc.flush()
	}
}

// BlockFlushes returns how many times the predecoded block cache has been
// flushed — by InvalidateFetchCache, a range invalidation that hit code, a
// new breakpoint, or a guest store into decoded text.
func (c *CPU) BlockFlushes() uint64 {
	if c.bc == nil {
		return 0
	}
	return c.bc.epoch
}

// PassLoggable lets the next n loggable operations commit without calling
// OnLoggable, replacing any count left over. Replay hands the core an FLL
// entry's L-Count, once the hook has nothing to do for the operations it
// counts; Reset clears the count.
func (c *CPU) PassLoggable(n uint64) { c.pass = n }

// Passing returns how many more loggable operations commit without calling
// OnLoggable.
func (c *CPU) Passing() uint64 { return c.pass }

// fault stops the core.
func (c *CPU) fault(cause FaultCause, pc, addr uint32) Event {
	c.Fault = &FaultInfo{Cause: cause, PC: pc, Addr: addr, IC: c.IC}
	c.Halted = true
	return EventFault
}

// load performs the aligned-word read behind a width-byte load at ea,
// firing the loggable hook first, and returns the word shifted so the
// addressed bytes are its low bits; the caller extends them. It walks the
// page table once, and again only when the hook moved Mem.Gen (an injected
// value copied the page on write).
func (c *CPU) load(pc, ea, width uint32) (uint32, Event) {
	if ea&(width-1) != 0 {
		return 0, c.fault(FaultMisaligned, pc, ea)
	}
	wordAddr := ea &^ 3
	num := wordAddr >> mem.PageShift
	p := c.Mem.Page(num)
	if p == nil {
		if !c.AutoMap || !c.Mem.TryMap(wordAddr, 4) {
			return 0, c.fault(FaultMemRead, pc, ea)
		}
		p = c.Mem.Page(num)
	}
	if c.pass != 0 {
		c.pass--
	} else if c.OnLoggable != nil {
		gen := c.Mem.Gen()
		c.OnLoggable(wordAddr, false)
		if c.Mem.Gen() != gen {
			if p = c.Mem.Page(num); p == nil {
				return 0, c.fault(FaultMemRead, pc, ea)
			}
		}
	}
	o := wordAddr & (mem.PageSize - 1)
	return binary.LittleEndian.Uint32(p[o:o+4:o+4]) >> ((ea & 3) * 8), EventStep
}

// store performs a width-byte store. Full-word stores fire OnWordStore;
// sub-word stores are read-modify-writes of their containing word and fire
// OnLoggable (see package comment).
func (c *CPU) store(pc, ea, v, width uint32) Event {
	if ea&(width-1) != 0 {
		return c.fault(FaultMisaligned, pc, ea)
	}
	wordAddr := ea &^ 3
	if !c.Mem.Mapped(wordAddr) {
		if !c.AutoMap || !c.Mem.TryMap(wordAddr, 4) {
			return c.fault(FaultMemWrite, pc, ea)
		}
	}
	var err error
	if width == 4 {
		if c.OnWordStore != nil {
			c.OnWordStore(wordAddr)
		}
		err = c.Mem.StoreWord(ea, v)
	} else {
		if c.pass != 0 {
			c.pass--
		} else if c.OnLoggable != nil {
			c.OnLoggable(wordAddr, true)
		}
		if width == 2 {
			err = c.Mem.StoreHalf(ea, uint16(v))
		} else {
			err = c.Mem.StoreByte(ea, byte(v))
		}
	}
	if err != nil {
		return c.fault(FaultMemWrite, pc, ea)
	}
	c.noteCodeWrite(wordAddr)
	return EventStep
}

// amo performs an atomic read-modify-write on the word at ea: it stores
// old+src when add is set and src otherwise, and returns old.
func (c *CPU) amo(pc, ea, src uint32, add bool) (uint32, Event) {
	if ea&3 != 0 {
		return 0, c.fault(FaultMisaligned, pc, ea)
	}
	if !c.Mem.Mapped(ea) {
		if !c.AutoMap || !c.Mem.TryMap(ea, 4) {
			return 0, c.fault(FaultMemRead, pc, ea)
		}
	}
	if c.pass != 0 {
		c.pass--
	} else if c.OnLoggable != nil {
		c.OnLoggable(ea, true)
	}
	old, err := c.Mem.LoadWord(ea)
	if err != nil {
		return 0, c.fault(FaultMemRead, pc, ea)
	}
	next := src
	if add {
		next += old
	}
	if err := c.Mem.StoreWord(ea, next); err != nil {
		return 0, c.fault(FaultMemWrite, pc, ea)
	}
	c.noteCodeWrite(ea)
	return old, EventStep
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Snapshot captures the architectural state (PC + registers) — exactly what
// a First-Load Log header records at a checkpoint boundary (paper §4.2).
type Snapshot struct {
	PC   uint32
	Regs [isa.NumRegs]uint32
}

// State returns the current architectural snapshot.
func (c *CPU) State() Snapshot {
	return Snapshot{PC: c.PC, Regs: c.Regs}
}

// Restore installs an architectural snapshot, as the replayer does from an
// FLL header.
func (c *CPU) Restore(s Snapshot) {
	c.PC = s.PC
	c.Regs = s.Regs
	c.Regs[isa.RegZero] = 0
}
