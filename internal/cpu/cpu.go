// Package cpu implements the interpreting processor core of the simulated
// machine.
//
// The core executes the ISA of internal/isa against a mem.Memory, exposing
// exactly the architecturally visible events BugNet's hardware taps:
//
//   - OnLoggable fires before every committed "loggable" memory operation
//     with the address of the aligned word it touches. Loggable operations
//     are loads (LW/LH/LHU/LB/LBU), atomics, and sub-word stores (SB/SH,
//     which read-modify-write their containing word — see DESIGN.md §5).
//     The recorder uses this hook to test first-load bits and log values;
//     the replayer uses it to inject logged values before the access.
//   - OnWordStore fires before every committed full-word store (SW), which
//     sets the first-load bit without logging (paper §4.3).
//   - OnFetch, when enabled, fires for every instruction fetch; it backs
//     the self-modifying-code extension (paper §5.3).
//
// Faulting instructions do not commit and fire no hooks; the CPU stops with
// a FaultInfo describing the architectural fault, which is what triggers
// BugNet's log dump (paper §4.8).
//
// Two execution engines share this state and these hooks: Step, the
// reference switch interpreter that decodes every instruction word on
// every execution, and Run (block.go), the predecoded basic-block engine
// all record/replay consumers drive by default. The two are held to
// instruction-identical behavior by differential tests and fuzzing.
package cpu

import (
	"encoding/binary"
	"fmt"

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

// Event is the outcome of one Step.
type Event uint8

// Step outcomes.
const (
	EventStep    Event = iota // instruction committed, nothing notable
	EventSyscall              // a SYSCALL committed; the kernel must service it
	EventFault                // the instruction faulted; the core is stopped
	EventHalted               // the core was already halted
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
	// every committed loggable memory operation. isWrite distinguishes
	// operations that also modify memory (sub-word stores, atomics), which
	// the recorder must route through the coherence directory as writes.
	OnLoggable func(wordAddr uint32, isWrite bool)

	// OnWordStore, if set, is called with the aligned word address before
	// every committed full-word store.
	OnWordStore func(wordAddr uint32)

	// OnFetch, if set, is called with the instruction address before each
	// fetch. Used by the LogCodeLoads extension.
	OnFetch func(pc uint32)

	// watches are PCs whose most recent execution IC is tracked, used to
	// measure root-cause→crash windows (Table 1).
	watches []watchedPC

	// fetch cache: one page of text, revalidated against the memory's
	// pointer-invalidation generation (a copy-on-write fault or Unmap can
	// replace the backing array) and invalidated explicitly after code
	// injection; the base system does not support self-modifying code
	// (paper §5.3).
	fetchPageNum uint32
	fetchPage    *mem.Page
	fetchGen     uint64
	fetchValid   bool

	// bc is the predecoded basic-block cache behind Run (see block.go),
	// created lazily on the first Run so Step-only cores pay nothing.
	bc *blockCache
	// stop is the pending Stop request consumed by Run.
	stop bool
}

type watchedPC struct {
	pc     uint32
	lastIC uint64
	hits   uint64
}

// New returns a core attached to m with all state zero.
func New(m *mem.Memory) *CPU {
	return &CPU{Mem: m}
}

// Reset returns the core to what New(m) builds — registers, counters, hooks
// and watches gone — keeping only the block cache's storage, flushed: the
// blocks in it were decoded from another memory's text.
func (c *CPU) Reset(m *mem.Memory) {
	bc := c.bc
	*c = CPU{Mem: m, bc: bc}
	if bc != nil {
		bc.flush()
	}
}

// Watch registers pc for last-execution tracking. Watched PCs are
// resolved into per-instruction block metadata at predecode time, so
// already-decoded blocks are flushed.
func (c *CPU) Watch(pc uint32) {
	c.watches = append(c.watches, watchedPC{pc: pc})
	if c.bc != nil {
		c.bc.flush()
	}
}

// LastExec returns the IC at which the watched pc most recently committed
// and how many times it committed. ok is false if pc was never watched.
func (c *CPU) LastExec(pc uint32) (ic uint64, hits uint64, ok bool) {
	for i := range c.watches {
		if c.watches[i].pc == pc {
			return c.watches[i].lastIC, c.watches[i].hits, true
		}
	}
	return 0, 0, false
}

// InvalidateFetchCache drops the cached text page and every predecoded
// block. Must be called after modifying text (self-modifying-code
// extension) or unmapping pages.
func (c *CPU) InvalidateFetchCache() {
	c.fetchValid = false
	if c.bc != nil {
		c.bc.flush()
	}
}

// BlockFlushes returns how many times the predecoded block cache has been
// flushed — by InvalidateFetchCache, a range invalidation that hit code, a
// new watch, or a guest store into decoded text.
func (c *CPU) BlockFlushes() uint64 {
	if c.bc == nil {
		return 0
	}
	return c.bc.epoch
}

// fault stops the core.
func (c *CPU) fault(cause FaultCause, pc, addr uint32) Event {
	c.Fault = &FaultInfo{Cause: cause, PC: pc, Addr: addr, IC: c.IC}
	c.Halted = true
	return EventFault
}

// fetch reads the instruction word at pc through the one-page fetch cache.
func (c *CPU) fetch(pc uint32) (uint32, bool) {
	pageNum := pc >> mem.PageShift
	if !c.fetchValid || pageNum != c.fetchPageNum || c.Mem.Gen() != c.fetchGen {
		p := c.Mem.Page(pageNum)
		if p == nil {
			return 0, false
		}
		c.fetchPage, c.fetchPageNum, c.fetchGen, c.fetchValid = p, pageNum, c.Mem.Gen(), true
	}
	o := pc & (mem.PageSize - 1)
	return binary.LittleEndian.Uint32(c.fetchPage[o : o+4 : o+4]), true
}

// Step executes one instruction and returns what happened.
func (c *CPU) Step() Event {
	if c.Halted {
		return EventHalted
	}
	pc := c.PC
	if pc&3 != 0 {
		return c.fault(FaultMemFetch, pc, pc)
	}
	if c.OnFetch != nil {
		c.OnFetch(pc)
	}
	w, ok := c.fetch(pc)
	if !ok {
		return c.fault(FaultMemFetch, pc, pc)
	}
	ins := isa.Decode(w)
	op := ins.Op

	r := &c.Regs
	nextPC := pc + 4
	ev := EventStep

	switch op {
	case isa.OpInvalid:
		return c.fault(FaultInvalidOpcode, pc, 0)

	// --- R-type ALU ---
	case isa.OpADD:
		r[ins.Rd] = r[ins.Rs1] + r[ins.Rs2]
	case isa.OpSUB:
		r[ins.Rd] = r[ins.Rs1] - r[ins.Rs2]
	case isa.OpMUL:
		r[ins.Rd] = r[ins.Rs1] * r[ins.Rs2]
	case isa.OpMULH:
		p := int64(int32(r[ins.Rs1])) * int64(int32(r[ins.Rs2]))
		r[ins.Rd] = uint32(uint64(p) >> 32)
	case isa.OpMULHU:
		p := uint64(r[ins.Rs1]) * uint64(r[ins.Rs2])
		r[ins.Rd] = uint32(p >> 32)
	case isa.OpDIV:
		d := int32(r[ins.Rs2])
		if d == 0 {
			return c.fault(FaultDivZero, pc, 0)
		}
		n := int32(r[ins.Rs1])
		if n == -1<<31 && d == -1 {
			r[ins.Rd] = uint32(n)
		} else {
			r[ins.Rd] = uint32(n / d)
		}
	case isa.OpDIVU:
		if r[ins.Rs2] == 0 {
			return c.fault(FaultDivZero, pc, 0)
		}
		r[ins.Rd] = r[ins.Rs1] / r[ins.Rs2]
	case isa.OpREM:
		d := int32(r[ins.Rs2])
		if d == 0 {
			return c.fault(FaultDivZero, pc, 0)
		}
		n := int32(r[ins.Rs1])
		if n == -1<<31 && d == -1 {
			r[ins.Rd] = 0
		} else {
			r[ins.Rd] = uint32(n % d)
		}
	case isa.OpREMU:
		if r[ins.Rs2] == 0 {
			return c.fault(FaultDivZero, pc, 0)
		}
		r[ins.Rd] = r[ins.Rs1] % r[ins.Rs2]
	case isa.OpAND:
		r[ins.Rd] = r[ins.Rs1] & r[ins.Rs2]
	case isa.OpOR:
		r[ins.Rd] = r[ins.Rs1] | r[ins.Rs2]
	case isa.OpXOR:
		r[ins.Rd] = r[ins.Rs1] ^ r[ins.Rs2]
	case isa.OpSLL:
		r[ins.Rd] = r[ins.Rs1] << (r[ins.Rs2] & 31)
	case isa.OpSRL:
		r[ins.Rd] = r[ins.Rs1] >> (r[ins.Rs2] & 31)
	case isa.OpSRA:
		r[ins.Rd] = uint32(int32(r[ins.Rs1]) >> (r[ins.Rs2] & 31))
	case isa.OpSLT:
		r[ins.Rd] = b2u(int32(r[ins.Rs1]) < int32(r[ins.Rs2]))
	case isa.OpSLTU:
		r[ins.Rd] = b2u(r[ins.Rs1] < r[ins.Rs2])

	// --- I-type ALU ---
	case isa.OpADDI:
		r[ins.Rd] = r[ins.Rs1] + uint32(ins.Imm)
	case isa.OpANDI:
		r[ins.Rd] = r[ins.Rs1] & uint32(ins.Imm)
	case isa.OpORI:
		r[ins.Rd] = r[ins.Rs1] | uint32(ins.Imm)
	case isa.OpXORI:
		r[ins.Rd] = r[ins.Rs1] ^ uint32(ins.Imm)
	case isa.OpSLTI:
		r[ins.Rd] = b2u(int32(r[ins.Rs1]) < ins.Imm)
	case isa.OpSLTIU:
		r[ins.Rd] = b2u(r[ins.Rs1] < uint32(ins.Imm))
	case isa.OpSLLI:
		r[ins.Rd] = r[ins.Rs1] << (uint32(ins.Imm) & 31)
	case isa.OpSRLI:
		r[ins.Rd] = r[ins.Rs1] >> (uint32(ins.Imm) & 31)
	case isa.OpSRAI:
		r[ins.Rd] = uint32(int32(r[ins.Rs1]) >> (uint32(ins.Imm) & 31))
	case isa.OpLUI:
		r[ins.Rd] = uint32(ins.Imm) << 16

	// --- memory ---
	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		ea := r[ins.Rs1] + uint32(ins.Imm)
		v, evt := c.load(op, pc, ea)
		if evt != EventStep {
			return evt
		}
		r[ins.Rd] = v

	case isa.OpSW, isa.OpSH, isa.OpSB:
		ea := r[ins.Rs1] + uint32(ins.Imm)
		if evt := c.store(op, pc, ea, r[ins.Rd]); evt != EventStep {
			return evt
		}

	case isa.OpAMOSWAP, isa.OpAMOADD:
		ea := r[ins.Rs1]
		old, evt := c.amo(op, pc, ea, r[ins.Rs2])
		if evt != EventStep {
			return evt
		}
		r[ins.Rd] = old

	// --- control transfer ---
	case isa.OpBEQ:
		if r[ins.Rs1] == r[ins.Rs2] {
			nextPC = pc + 4 + uint32(ins.Imm)
		}
	case isa.OpBNE:
		if r[ins.Rs1] != r[ins.Rs2] {
			nextPC = pc + 4 + uint32(ins.Imm)
		}
	case isa.OpBLT:
		if int32(r[ins.Rs1]) < int32(r[ins.Rs2]) {
			nextPC = pc + 4 + uint32(ins.Imm)
		}
	case isa.OpBGE:
		if int32(r[ins.Rs1]) >= int32(r[ins.Rs2]) {
			nextPC = pc + 4 + uint32(ins.Imm)
		}
	case isa.OpBLTU:
		if r[ins.Rs1] < r[ins.Rs2] {
			nextPC = pc + 4 + uint32(ins.Imm)
		}
	case isa.OpBGEU:
		if r[ins.Rs1] >= r[ins.Rs2] {
			nextPC = pc + 4 + uint32(ins.Imm)
		}
	case isa.OpJAL:
		r[isa.RegRA] = pc + 4
		nextPC = pc + 4 + uint32(ins.Imm)
	case isa.OpJ:
		nextPC = pc + 4 + uint32(ins.Imm)
	case isa.OpJALR:
		target := r[ins.Rs1] + uint32(ins.Imm)
		r[ins.Rd] = pc + 4
		nextPC = target

	// --- system ---
	case isa.OpSYSCALL:
		ev = EventSyscall
	case isa.OpBREAK:
		return c.fault(FaultBreak, pc, 0)
	}

	r[isa.RegZero] = 0
	c.PC = nextPC
	c.IC++
	if len(c.watches) != 0 {
		for i := range c.watches {
			if c.watches[i].pc == pc {
				c.watches[i].lastIC = c.IC
				c.watches[i].hits++
			}
		}
	}
	return ev
}

// load performs a load of any width, firing the loggable hook first.
func (c *CPU) load(op isa.Opcode, pc, ea uint32) (uint32, Event) {
	width := op.MemBytes()
	if ea&uint32(width-1) != 0 {
		return 0, c.fault(FaultMisaligned, pc, ea)
	}
	wordAddr := ea &^ 3
	if !c.Mem.Mapped(wordAddr) {
		if !c.AutoMap || !c.Mem.TryMap(wordAddr, 4) {
			return 0, c.fault(FaultMemRead, pc, ea)
		}
	}
	if c.OnLoggable != nil {
		c.OnLoggable(wordAddr, false)
	}
	word, err := c.Mem.LoadWord(wordAddr)
	if err != nil {
		return 0, c.fault(FaultMemRead, pc, ea)
	}
	shift := (ea & 3) * 8
	switch op {
	case isa.OpLW:
		return word, EventStep
	case isa.OpLH:
		return uint32(int32(int16(word >> shift))), EventStep
	case isa.OpLHU:
		return word >> shift & 0xFFFF, EventStep
	case isa.OpLB:
		return uint32(int32(int8(word >> shift))), EventStep
	case isa.OpLBU:
		return word >> shift & 0xFF, EventStep
	}
	return 0, c.fault(FaultInvalidOpcode, pc, 0)
}

// store performs a store of any width. Full-word stores fire OnWordStore;
// sub-word stores are read-modify-writes of their containing word and fire
// OnLoggable (see package comment).
func (c *CPU) store(op isa.Opcode, pc, ea, v uint32) Event {
	width := op.MemBytes()
	if ea&uint32(width-1) != 0 {
		return c.fault(FaultMisaligned, pc, ea)
	}
	wordAddr := ea &^ 3
	if !c.Mem.Mapped(wordAddr) {
		if !c.AutoMap || !c.Mem.TryMap(wordAddr, 4) {
			return c.fault(FaultMemWrite, pc, ea)
		}
	}
	switch op {
	case isa.OpSW:
		if c.OnWordStore != nil {
			c.OnWordStore(wordAddr)
		}
		if err := c.Mem.StoreWord(ea, v); err != nil {
			return c.fault(FaultMemWrite, pc, ea)
		}
	case isa.OpSH:
		if c.OnLoggable != nil {
			c.OnLoggable(wordAddr, true)
		}
		if err := c.Mem.StoreHalf(ea, uint16(v)); err != nil {
			return c.fault(FaultMemWrite, pc, ea)
		}
	case isa.OpSB:
		if c.OnLoggable != nil {
			c.OnLoggable(wordAddr, true)
		}
		if err := c.Mem.StoreByte(ea, byte(v)); err != nil {
			return c.fault(FaultMemWrite, pc, ea)
		}
	}
	c.noteCodeWrite(wordAddr)
	return EventStep
}

// amo performs an atomic read-modify-write on the word at ea.
func (c *CPU) amo(op isa.Opcode, pc, ea, src uint32) (uint32, Event) {
	if ea&3 != 0 {
		return 0, c.fault(FaultMisaligned, pc, ea)
	}
	if !c.Mem.Mapped(ea) {
		if !c.AutoMap || !c.Mem.TryMap(ea, 4) {
			return 0, c.fault(FaultMemRead, pc, ea)
		}
	}
	if c.OnLoggable != nil {
		c.OnLoggable(ea, true)
	}
	old, err := c.Mem.LoadWord(ea)
	if err != nil {
		return 0, c.fault(FaultMemRead, pc, ea)
	}
	var next uint32
	switch op {
	case isa.OpAMOSWAP:
		next = src
	case isa.OpAMOADD:
		next = old + src
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
