package cpu

// block.go implements the core's one interpreter, CPU.Run: a QEMU-TB-style
// predecoded basic-block engine. Instead of decoding every instruction
// word on every execution, Run translates straight-line text into blocks
// of resolved DecodedInst records once and re-executes the predecoded
// form:
//
//   - operands are extracted and branch/jump targets resolved to absolute
//     addresses at predecode time;
//   - a block ends at unconditional control transfers (J/JAL/JALR),
//     system ops (SYSCALL/BREAK), undecodable words, and page boundaries,
//     and before a breakpoint (see SetBreak), so Run checks breakpoints
//     once a block, never once an instruction; conditional branches stay
//     inside the block and fall through when untaken, so a block covers
//     whole loop bodies.
//
// Blocks live in a direct-mapped cache keyed by entry PC. Three
// mechanisms keep cached decodes coherent with memory:
//
//   - InvalidateFetchCache flushes the whole cache (epoch bump) — the
//     documented hook for external code mutation, called by the replayer's
//     LogCodeLoads injection; InvalidateFetchRange and
//     InvalidateFetchPages flush it only when the range touches a page
//     blocks were decoded from, called by the kernel after it or the DMA
//     engine writes user memory and by snapshot restore for the pages its
//     memory recycled;
//   - the store path watches the page range blocks were decoded from and
//     flushes when a guest store lands there (self-modifying code), ending
//     the current block after the mutating instruction; cores that share
//     one memory share one cache (ShareCode), so a store on any of them
//     flushes what all of them run;
//   - mem.Gen revalidation: a generation bump means page pointers may
//     have gone stale (copy-on-write replacement or unmap), so block entry
//     re-checks the backing page pointer and re-decodes on mismatch.
//
// runBlock's opcode switch is the only statement of the ISA's semantics.
// The differential tests in block_test.go and fuzz_test.go hold cached
// execution to what decoding every instruction from live memory gives.

import (
	"encoding/binary"

	"bugnet/internal/isa"
	"bugnet/internal/mem"
)

// DecodedInst is one predecoded instruction: the fields of isa.Instruction
// with everything resolvable at decode time already resolved.
type DecodedInst struct {
	Op  isa.Opcode
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	// Imm is the sign-extended immediate; for branches and J/JAL it holds
	// the absolute target address instead of the PC-relative offset.
	Imm int32
}

// block is a predecoded run of straight-line text starting at pc.
type block struct {
	pc      uint32
	pageNum uint32
	page    *mem.Page // backing page at decode time, for Gen revalidation
	gen     uint64    // mem.Gen when the page pointer was last validated
	epoch   uint64    // owning cache epoch; a flush orphans the block
	inst    []DecodedInst
}

// Direct-mapped cache geometry: 4096 slots indexed by word address cover
// 16 KB of text alias-free; collisions only cost a re-decode.
const (
	blockCacheSlots = 4096
	blockCacheMask  = blockCacheSlots - 1
)

// blockCache is the per-CPU translation cache.
type blockCache struct {
	// epoch is bumped to invalidate every cached block at once; blocks
	// carry the epoch they were decoded under.
	epoch  uint64
	blocks [blockCacheSlots]*block
	// haveCode/loPage/hiPage bound the pages blocks were decoded from, so
	// the store path can detect self-modifying writes with two compares.
	haveCode       bool
	loPage, hiPage uint32
}

// flush orphans every cached block. The code-page bounds reset too; they
// re-establish as blocks are re-decoded.
func (bc *blockCache) flush() {
	bc.epoch++
	bc.haveCode = false
}

// noteCodeWrite flushes the block cache when a committed guest store lands
// in a page blocks were decoded from (self-modifying code). Called from
// the store/amo helpers after the write commits.
func (c *CPU) noteCodeWrite(wordAddr uint32) {
	if bc := c.bc; bc != nil && bc.haveCode {
		if p := wordAddr >> mem.PageShift; p >= bc.loPage && p <= bc.hiPage {
			bc.flush()
		}
	}
}

// ShareCode makes c decode into o's block cache. Cores that share one
// memory and run one at a time must share it: a guest store on one into a
// page any of them decoded from then flushes the blocks all of them run,
// where a cache of its own would leave another core running code the store
// rewrote. Cores sharing a cache must set the same breakpoints.
func (c *CPU) ShareCode(o *CPU) {
	if o.bc == nil {
		o.bc = new(blockCache)
	}
	c.bc = o.bc
}

// InvalidateFetchRange invalidates cached decodes that may cover the
// externally written range [addr, addr+n): the kernel and the DMA engine
// call it after writing user memory behind the core's back. Unlike
// InvalidateFetchCache it is range-filtered — writes outside the pages
// blocks were decoded from (the overwhelmingly common case: syscall and
// DMA buffers live in data memory) keep every cached block, so I/O-heavy
// recorded workloads do not re-predecode their hot loops after each read.
func (c *CPU) InvalidateFetchRange(addr, n uint32) {
	if n == 0 {
		return
	}
	lo := addr >> mem.PageShift
	hi := (addr + n - 1) >> mem.PageShift
	if hi < lo { // the range wraps the address space
		hi = ^uint32(0) >> mem.PageShift
		lo = 0
	}
	c.InvalidateFetchPages(lo, hi)
}

// InvalidateFetchPages is InvalidateFetchRange over whole pages: it
// invalidates cached decodes that may come from the page numbers lo..hi,
// inclusive. A replay machine's restore passes the pages its memory put on
// the free list (mem.Memory.FreedPages).
func (c *CPU) InvalidateFetchPages(lo, hi uint32) {
	if bc := c.bc; bc != nil && bc.haveCode && hi >= bc.loPage && lo <= bc.hiPage {
		bc.flush()
	}
}

// Stop asks an in-progress Run to return after the instruction currently
// executing. Hooks call it to surface mid-batch failures promptly (the
// replayer stops on the exact instruction whose log entry diverged, as the
// single-step path does). The request is consumed by the current Run and
// does not carry into the next one.
func (c *CPU) Stop() { c.stop = true }

// Run executes up to max instructions through the predecoded block engine
// and returns how many committed and why execution stopped:
//
//   - EventStep: the budget ran out (or a hook requested Stop);
//   - EventSyscall: a SYSCALL committed (it is counted) and the kernel
//     must service it;
//   - EventFault: an instruction faulted without committing; c.Fault is
//     set and the core is stopped;
//   - EventHalted: the core was already halted;
//   - EventBreak: the next instruction, not the call's first, is a
//     breakpoint; its fetch hook has not fired.
//
// Hooks fire in program order with the PC/IC of the instruction they
// belong to observable, whatever the batch size, and Run(1) executes
// exactly one instruction: the differential tests enforce both.
func (c *CPU) Run(max uint64) (uint64, Event) {
	if c.Halted {
		return 0, EventHalted
	}
	if c.bc == nil {
		c.bc = new(blockCache)
	}
	c.stop = false
	bc := c.bc
	var n uint64
	for n < max {
		pc := c.PC
		if len(c.breaks) != 0 && n != 0 && c.isBreak(pc) {
			return n, EventBreak
		}
		if pc&3 != 0 {
			return n, c.fault(FaultMemFetch, pc, pc)
		}
		// The entry instruction's fetch hook fires before the lookup, so
		// code a hook maps or injects (LogCodeLoads replay under AutoMap)
		// is decoded from the bytes it left. runBlock fires the rest.
		if c.OnFetch != nil {
			c.OnFetch(pc)
		}
		blk := c.lookupBlock(bc, pc)
		if blk == nil {
			return n, c.fault(FaultMemFetch, pc, pc)
		}
		exec, ev := c.runBlock(bc, blk, max-n)
		n += exec
		if ev != EventStep {
			return n, ev
		}
		if c.stop {
			c.stop = false
			return n, EventStep
		}
	}
	return n, EventStep
}

// lookupBlock returns a valid block starting exactly at the word-aligned
// pc, decoding one if needed, or nil when pc's page is unmapped.
func (c *CPU) lookupBlock(bc *blockCache, pc uint32) *block {
	idx := (pc >> 2) & blockCacheMask
	b := bc.blocks[idx]
	if b != nil && b.pc == pc && b.epoch == bc.epoch {
		if gen := c.Mem.Gen(); gen != b.gen {
			// Page pointers may have gone stale (COW replacement, unmap).
			// Same pointer ⇒ same bytes: a COW bump elsewhere leaves this
			// decode valid. A different pointer means replaced content
			// (the copy-on-write fault that bumped Gen came with a write);
			// re-decode from the live page.
			if c.Mem.Page(b.pageNum) != b.page {
				b = nil
			} else {
				b.gen = gen
			}
		}
		if b != nil {
			return b
		}
	}
	if b = c.decodeBlock(bc, pc); b != nil {
		bc.blocks[idx] = b
	}
	return b
}

// decodeBlock translates text starting at pc into a block, stopping at the
// first unconditional control transfer, system op, undecodable word, or
// the end of the page, and before the first breakpoint after pc.
func (c *CPU) decodeBlock(bc *blockCache, pc uint32) *block {
	pageNum := pc >> mem.PageShift
	p := c.Mem.Page(pageNum)
	if p == nil {
		return nil
	}
	gen := c.Mem.Gen()
	insts := make([]DecodedInst, 0, 16)
	for o := pc & (mem.PageSize - 1); o < mem.PageSize; o += 4 {
		ipc := pageNum<<mem.PageShift | o
		if len(insts) != 0 && len(c.breaks) != 0 && c.isBreak(ipc) {
			break
		}
		w := binary.LittleEndian.Uint32(p[o : o+4 : o+4])
		d := resolveInst(isa.Decode(w), ipc)
		insts = append(insts, d)
		if op := d.Op; op == isa.OpInvalid || op.IsJump() ||
			op == isa.OpSYSCALL || op == isa.OpBREAK {
			break
		}
	}
	if !bc.haveCode {
		bc.haveCode, bc.loPage, bc.hiPage = true, pageNum, pageNum
	} else if pageNum < bc.loPage {
		bc.loPage = pageNum
	} else if pageNum > bc.hiPage {
		bc.hiPage = pageNum
	}
	return &block{pc: pc, pageNum: pageNum, page: p, gen: gen, epoch: bc.epoch, inst: insts}
}

// resolveInst turns a decoded instruction at address ipc into its
// predecoded form: branch/J/JAL targets become absolute.
func resolveInst(ins isa.Instruction, ipc uint32) DecodedInst {
	d := DecodedInst{Op: ins.Op, Rd: ins.Rd, Rs1: ins.Rs1, Rs2: ins.Rs2, Imm: ins.Imm}
	if ins.Op.IsBranch() || ins.Op == isa.OpJAL || ins.Op == isa.OpJ {
		d.Imm = int32(ipc + 4 + uint32(ins.Imm))
	}
	return d
}

// decodeInstAt decodes the single instruction at pc from live memory.
// runBlock uses it when an OnFetch hook rewrote code mid-block: the hook
// for pc has already fired, so the instruction must execute from the
// fresh bytes without re-entering Run.
func (c *CPU) decodeInstAt(pc uint32) (DecodedInst, bool) {
	p := c.Mem.Page(pc >> mem.PageShift)
	if p == nil {
		return DecodedInst{}, false
	}
	o := pc & (mem.PageSize - 1)
	w := binary.LittleEndian.Uint32(p[o : o+4 : o+4])
	return resolveInst(isa.Decode(w), pc), true
}

// runBlock executes predecoded instructions from blk until the block ends,
// the budget runs out, a non-step event occurs, a hook requests Stop, or
// the cache is flushed under the block (self-modifying code, LogCodeLoads
// injection). Run has fired the first instruction's OnFetch; runBlock
// fires each later one's before executing it. On return c.PC is the next
// instruction to execute; the caller re-enters through the cache.
func (c *CPU) runBlock(bc *blockCache, blk *block, max uint64) (uint64, Event) {
	epoch := bc.epoch
	insts := blk.inst
	r := &c.Regs
	pc := blk.pc
	d := &insts[0]
	var fresh DecodedInst
	var n uint64
	for i := 0; ; {
		nextPC := pc + 4

		switch d.Op {
		case isa.OpInvalid:
			return n, c.fault(FaultInvalidOpcode, pc, 0)

		// --- R-type ALU ---
		case isa.OpADD:
			r[d.Rd] = r[d.Rs1] + r[d.Rs2]
		case isa.OpSUB:
			r[d.Rd] = r[d.Rs1] - r[d.Rs2]
		case isa.OpMUL:
			r[d.Rd] = r[d.Rs1] * r[d.Rs2]
		case isa.OpMULH:
			p := int64(int32(r[d.Rs1])) * int64(int32(r[d.Rs2]))
			r[d.Rd] = uint32(uint64(p) >> 32)
		case isa.OpMULHU:
			p := uint64(r[d.Rs1]) * uint64(r[d.Rs2])
			r[d.Rd] = uint32(p >> 32)
		case isa.OpDIV:
			dv := int32(r[d.Rs2])
			if dv == 0 {
				return n, c.fault(FaultDivZero, pc, 0)
			}
			nv := int32(r[d.Rs1])
			if nv == -1<<31 && dv == -1 {
				r[d.Rd] = uint32(nv)
			} else {
				r[d.Rd] = uint32(nv / dv)
			}
		case isa.OpDIVU:
			if r[d.Rs2] == 0 {
				return n, c.fault(FaultDivZero, pc, 0)
			}
			r[d.Rd] = r[d.Rs1] / r[d.Rs2]
		case isa.OpREM:
			dv := int32(r[d.Rs2])
			if dv == 0 {
				return n, c.fault(FaultDivZero, pc, 0)
			}
			nv := int32(r[d.Rs1])
			if nv == -1<<31 && dv == -1 {
				r[d.Rd] = 0
			} else {
				r[d.Rd] = uint32(nv % dv)
			}
		case isa.OpREMU:
			if r[d.Rs2] == 0 {
				return n, c.fault(FaultDivZero, pc, 0)
			}
			r[d.Rd] = r[d.Rs1] % r[d.Rs2]
		case isa.OpAND:
			r[d.Rd] = r[d.Rs1] & r[d.Rs2]
		case isa.OpOR:
			r[d.Rd] = r[d.Rs1] | r[d.Rs2]
		case isa.OpXOR:
			r[d.Rd] = r[d.Rs1] ^ r[d.Rs2]
		case isa.OpSLL:
			r[d.Rd] = r[d.Rs1] << (r[d.Rs2] & 31)
		case isa.OpSRL:
			r[d.Rd] = r[d.Rs1] >> (r[d.Rs2] & 31)
		case isa.OpSRA:
			r[d.Rd] = uint32(int32(r[d.Rs1]) >> (r[d.Rs2] & 31))
		case isa.OpSLT:
			r[d.Rd] = b2u(int32(r[d.Rs1]) < int32(r[d.Rs2]))
		case isa.OpSLTU:
			r[d.Rd] = b2u(r[d.Rs1] < r[d.Rs2])

		// --- I-type ALU ---
		case isa.OpADDI:
			r[d.Rd] = r[d.Rs1] + uint32(d.Imm)
		case isa.OpANDI:
			r[d.Rd] = r[d.Rs1] & uint32(d.Imm)
		case isa.OpORI:
			r[d.Rd] = r[d.Rs1] | uint32(d.Imm)
		case isa.OpXORI:
			r[d.Rd] = r[d.Rs1] ^ uint32(d.Imm)
		case isa.OpSLTI:
			r[d.Rd] = b2u(int32(r[d.Rs1]) < d.Imm)
		case isa.OpSLTIU:
			r[d.Rd] = b2u(r[d.Rs1] < uint32(d.Imm))
		case isa.OpSLLI:
			r[d.Rd] = r[d.Rs1] << (uint32(d.Imm) & 31)
		case isa.OpSRLI:
			r[d.Rd] = r[d.Rs1] >> (uint32(d.Imm) & 31)
		case isa.OpSRAI:
			r[d.Rd] = uint32(int32(r[d.Rs1]) >> (uint32(d.Imm) & 31))
		case isa.OpLUI:
			r[d.Rd] = uint32(d.Imm) << 16

		// --- memory ---
		case isa.OpLW:
			v, evt := c.load(pc, r[d.Rs1]+uint32(d.Imm), 4)
			if evt != EventStep {
				return n, evt
			}
			r[d.Rd] = v
		case isa.OpLH:
			v, evt := c.load(pc, r[d.Rs1]+uint32(d.Imm), 2)
			if evt != EventStep {
				return n, evt
			}
			r[d.Rd] = uint32(int32(int16(v)))
		case isa.OpLHU:
			v, evt := c.load(pc, r[d.Rs1]+uint32(d.Imm), 2)
			if evt != EventStep {
				return n, evt
			}
			r[d.Rd] = v & 0xFFFF
		case isa.OpLB:
			v, evt := c.load(pc, r[d.Rs1]+uint32(d.Imm), 1)
			if evt != EventStep {
				return n, evt
			}
			r[d.Rd] = uint32(int32(int8(v)))
		case isa.OpLBU:
			v, evt := c.load(pc, r[d.Rs1]+uint32(d.Imm), 1)
			if evt != EventStep {
				return n, evt
			}
			r[d.Rd] = v & 0xFF

		case isa.OpSW, isa.OpSH, isa.OpSB:
			ea := r[d.Rs1] + uint32(d.Imm)
			if evt := c.store(pc, ea, r[d.Rd], uint32(d.Op.MemBytes())); evt != EventStep {
				return n, evt
			}

		case isa.OpAMOSWAP, isa.OpAMOADD:
			old, evt := c.amo(pc, r[d.Rs1], r[d.Rs2], d.Op == isa.OpAMOADD)
			if evt != EventStep {
				return n, evt
			}
			r[d.Rd] = old

		// --- control transfer (targets absolute, resolved at decode) ---
		case isa.OpBEQ:
			if r[d.Rs1] == r[d.Rs2] {
				nextPC = uint32(d.Imm)
			}
		case isa.OpBNE:
			if r[d.Rs1] != r[d.Rs2] {
				nextPC = uint32(d.Imm)
			}
		case isa.OpBLT:
			if int32(r[d.Rs1]) < int32(r[d.Rs2]) {
				nextPC = uint32(d.Imm)
			}
		case isa.OpBGE:
			if int32(r[d.Rs1]) >= int32(r[d.Rs2]) {
				nextPC = uint32(d.Imm)
			}
		case isa.OpBLTU:
			if r[d.Rs1] < r[d.Rs2] {
				nextPC = uint32(d.Imm)
			}
		case isa.OpBGEU:
			if r[d.Rs1] >= r[d.Rs2] {
				nextPC = uint32(d.Imm)
			}
		case isa.OpJAL:
			r[isa.RegRA] = pc + 4
			nextPC = uint32(d.Imm)
		case isa.OpJ:
			nextPC = uint32(d.Imm)
		case isa.OpJALR:
			target := r[d.Rs1] + uint32(d.Imm)
			r[d.Rd] = pc + 4
			nextPC = target

		// --- system ---
		case isa.OpSYSCALL:
			// Commits below; control returns to the caller's kernel.
		case isa.OpBREAK:
			return n, c.fault(FaultBreak, pc, 0)
		}

		r[isa.RegZero] = 0
		c.PC = nextPC
		c.IC++
		n++
		if d.Op == isa.OpSYSCALL {
			return n, EventSyscall
		}
		if nextPC != pc+4 || i+1 == len(insts) ||
			n == max || c.stop || bc.epoch != epoch {
			// A taken branch or jump left the block; or the block, budget
			// or a Stop request ended it; or a flush (an executed store
			// rewrote a code page, or an OnFetch hook injected code) made
			// the rest of this decode stale.
			return n, EventStep
		}
		pc = nextPC
		i++
		d = &insts[i]
		if c.OnFetch != nil {
			c.OnFetch(pc)
			if bc.epoch != epoch {
				// The hook rewrote code under us (LogCodeLoads injection):
				// the decode at pc is stale. Its OnFetch has already fired,
				// so execute this one instruction from the live bytes; the
				// commit tail then ends the block and the caller re-decodes.
				var ok bool
				if fresh, ok = c.decodeInstAt(pc); !ok {
					return n, c.fault(FaultMemFetch, pc, pc)
				}
				d = &fresh
			}
		}
	}
}
