package timetravel

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"bugnet/internal/cpu"
	"bugnet/internal/isa"
)

// Command is one debugger operation, the wire format of the remote debug
// protocol (POST /debug/sessions/{id}/cmd) and the unit the local CLI
// dispatches. Addresses may be given numerically (Addr) or symbolically
// (Sym, resolved against the session's binary — the server has the image,
// the remote client need not).
type Command struct {
	// Cmd selects the operation: step, rstep, cont, rcont, seek, runto,
	// break, delete, watch, unwatch, regs, mem, backtrace, where.
	Cmd string `json:"cmd"`
	// N is the step/rstep count (default 1), the mem word count, or the
	// backtrace depth.
	N uint64 `json:"n,omitempty"`
	// Addr is the target address for break/delete/watch/unwatch/mem.
	Addr uint32 `json:"addr,omitempty"`
	// Sym names a symbol (or a hex/decimal literal) to resolve against
	// the session's image instead of Addr.
	Sym string `json:"sym,omitempty"`
	// Pos is the absolute target for seek.
	Pos uint64 `json:"pos,omitempty"`
}

// MaxMemWords bounds one mem read so a remote client cannot stream the
// whole address space through a single command. A mem command asking for
// more is clamped to this many words and its Outcome reports
// Truncated=true — never silently, so byte-granular consumers (the RSP
// stub chunks its reads by this cap) and humans alike can tell a short
// read from a short request.
const MaxMemWords = 256

// RegValue is one architectural register in an Outcome.
type RegValue struct {
	Name  string `json:"name"`
	Value uint32 `json:"value"`
}

// Word is one inspected memory word. Known follows §7.1: false means the
// recorded window never touched the location and its value is unavailable.
type Word struct {
	Addr  uint32 `json:"addr"`
	Value uint32 `json:"value"`
	Known bool   `json:"known"`
}

// Frame is one backtrace entry.
type Frame struct {
	PC     uint32 `json:"pc"`
	Symbol string `json:"symbol"`
	Disasm string `json:"disasm"`
}

// FaultDesc describes the recorded crash of the debugged thread.
type FaultDesc struct {
	PC     uint32 `json:"pc"`
	Symbol string `json:"symbol"`
	Disasm string `json:"disasm"`
	Cause  string `json:"cause"`
}

// Outcome is the result of one Command: where the replay now stands, why
// it stopped, and whatever the command asked to inspect.
type Outcome struct {
	Stop   string `json:"stop,omitempty"` // set by motion commands
	Pos    uint64 `json:"pos"`
	Window uint64 `json:"window"`
	Done   bool   `json:"done,omitempty"`
	PC     uint32 `json:"pc"`
	Symbol string `json:"symbol"`
	Disasm string `json:"disasm"`

	Regs []RegValue `json:"regs,omitempty"`
	Mem  []Word     `json:"mem,omitempty"`
	// Truncated marks a mem read clamped at MaxMemWords: Mem holds fewer
	// words than the command asked for, and the tail was never read.
	Truncated bool      `json:"truncated,omitempty"`
	Backtrace []Frame   `json:"backtrace,omitempty"`
	Breaks    []uint32  `json:"breaks,omitempty"`
	Watches   []uint32  `json:"watches,omitempty"`
	Watch     *WatchHit `json:"watch,omitempty"` // set on a watchpoint stop
	Error     string    `json:"error,omitempty"`
}

// status fills the always-present position fields.
func (e *Engine) status(out *Outcome) {
	out.Pos = e.Pos()
	out.Window = e.Window()
	out.Done = e.Done()
	out.PC = e.PC()
	out.Symbol = e.SymbolAt(e.PC())
	out.Disasm = e.Disasm(e.PC())
}

// resolveAddr turns a Command's Sym/Addr into an address. The parse order
// is explicit: a symbol in the session's image always wins; failing that,
// a "0x" prefix selects hex, bare digits parse as decimal, and anything
// else is a resolution error. A numeric-looking token like "10" therefore
// means ten, never 0x10 — the old symbol→hex→decimal cascade made bare
// digits ambiguous.
func (e *Engine) resolveAddr(c Command) (uint32, error) {
	if c.Sym == "" {
		return c.Addr, nil
	}
	if addr, ok := e.img.Symbol(c.Sym); ok {
		return addr, nil
	}
	if rest, ok := strings.CutPrefix(c.Sym, "0x"); ok {
		if v, err := strconv.ParseUint(rest, 16, 32); err == nil {
			return uint32(v), nil
		}
		return 0, fmt.Errorf("cannot resolve %q: bad hex literal", c.Sym)
	}
	if v, err := strconv.ParseUint(c.Sym, 10, 32); err == nil {
		return uint32(v), nil
	}
	return 0, fmt.Errorf("cannot resolve %q", c.Sym)
}

// Exec runs one command against the engine and reports the outcome. All
// failures are carried in Outcome.Error: a malformed command must not tear
// down the session (or the server) it runs in.
func (e *Engine) Exec(c Command) Outcome {
	start := time.Now()
	out := e.exec(c)
	observeCommand(c.Cmd, start)
	return out
}

func (e *Engine) exec(c Command) Outcome {
	var out Outcome
	count := c.N
	if count == 0 {
		count = 1
	}
	fail := func(err error) Outcome {
		out.Error = err.Error()
		e.status(&out)
		return out
	}
	motion := func(reason StopReason, err error) Outcome {
		if err != nil {
			out.Error = err.Error()
		}
		out.Stop = reason.String()
		if reason == StopWatch {
			out.Watch = e.LastWatch()
		}
		e.status(&out)
		return out
	}

	switch c.Cmd {
	case "step":
		return motion(e.Step(count))
	case "rstep":
		return motion(e.ReverseStep(count))
	case "cont", "continue":
		return motion(e.Continue())
	case "rcont":
		return motion(e.ReverseContinue())
	case "seek":
		if err := e.SeekTo(c.Pos); err != nil {
			return fail(err)
		}
		out.Stop = StopStep.String()
		e.status(&out)
		return out
	case "runto":
		addr, err := e.resolveAddr(c)
		if err != nil {
			return fail(err)
		}
		had := slices.Contains(e.m.Breakpoints(), addr)
		e.AddBreak(addr)
		reason, rerr := e.Continue()
		if !had {
			e.ClearBreak(addr)
		}
		return motion(reason, rerr)
	case "break":
		addr, err := e.resolveAddr(c)
		if err != nil {
			return fail(err)
		}
		e.AddBreak(addr)
		out.Breaks = e.Breakpoints()
	case "delete":
		addr, err := e.resolveAddr(c)
		if err != nil {
			return fail(err)
		}
		e.ClearBreak(addr)
		out.Breaks = e.Breakpoints()
	case "watch":
		addr, err := e.resolveAddr(c)
		if err != nil {
			return fail(err)
		}
		if err := e.derive(addr, mFillWatch); err != nil {
			return fail(err)
		}
		e.AddWatch(addr)
		out.Watches = e.Watches()
	case "unwatch":
		addr, err := e.resolveAddr(c)
		if err != nil {
			return fail(err)
		}
		e.ClearWatch(addr)
		out.Watches = e.Watches()
	case "regs":
		st := e.Registers()
		out.Regs = make([]RegValue, isa.NumRegs)
		for i := range st.Regs {
			out.Regs[i] = RegValue{Name: isa.RegName(uint8(i)), Value: st.Regs[i]}
		}
	case "mem":
		addr, err := e.resolveAddr(c)
		if err != nil {
			return fail(err)
		}
		if count > MaxMemWords {
			count = MaxMemWords
			out.Truncated = true
		}
		addr &^= 3
		for i := uint64(0); i < count; i++ {
			a := addr + uint32(i)*4
			if err := e.derive(a, mFillMem); err != nil {
				return fail(err)
			}
			v, known := e.ReadWord(a)
			out.Mem = append(out.Mem, Word{Addr: a, Value: v, Known: known})
		}
	case "backtrace", "bt":
		tr := e.Backtrace()
		if c.N > 0 && uint64(len(tr)) > c.N {
			tr = tr[uint64(len(tr))-c.N:]
		}
		for _, te := range tr {
			out.Backtrace = append(out.Backtrace, Frame{
				PC: te.PC, Symbol: e.SymbolAt(te.PC), Disasm: e.Disasm(te.PC)})
		}
	case "where", "":
		// Status only.
	default:
		return fail(fmt.Errorf("unknown command %q", c.Cmd))
	}
	e.status(&out)
	return out
}

// faultDesc renders the engine's recorded crash, if any.
func (e *Engine) faultDesc() *FaultDesc {
	f := e.Fault()
	if f == nil {
		return nil
	}
	return &FaultDesc{
		PC:     f.PC,
		Symbol: e.SymbolAt(f.PC),
		Disasm: e.Disasm(f.PC),
		Cause:  cpu.FaultCause(f.Cause).String(),
	}
}
