// Package asm implements a two-pass assembler for the simulated ISA.
//
// The paper's evaluation runs real x86 binaries (SPEC 2000 and the Table 1
// buggy applications); our workload analogues are written in assembly for
// the ISA in internal/isa, and this assembler turns those sources into
// loadable images. The syntax is deliberately close to classic MIPS/RISC-V
// assembler syntax:
//
//	        .data
//	buf:    .space 1024          # reserve bytes
//	msg:    .asciiz "hello"
//	tbl:    .word 1, 2, handler  # words and label addresses
//	        .text
//	main:   la   a1, buf
//	        li   a2, 1024
//	        loop: ...
//	        beq  a0, zero, done
//	        j    loop
//	done:   li   a7, 1           # SYS_exit
//	        syscall
//
// Comments start with '#', "//", or ';'. Labels may appear on their own
// line or before an instruction. Supported directives: .text .data .word
// .half .byte .space .asciiz .ascii .align .globl (recorded, no-op) and
// .equ NAME, value.
//
// A machine instruction's operands are the ones isa.Opcode.Syntax lists,
// the table the disassembler prints by, so a listing reassembles to the
// same words. A pseudo-instruction is one row of the pseudos table: the
// machine instruction it stands for and the syntax naming the fields its
// operands fill (bgt is blt with "rs2, rs1, target"). Only li, when its
// literal does not fit 16 bits, and la, always, expand to lui+addi. An
// instruction given more or fewer operands than its syntax names is an
// error ("add wants rd, rs1, rs2"). Both passes size a statement with the
// code that emits it: pass 1 reads labels as zero and writes nothing.
package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bugnet/internal/isa"
	"bugnet/internal/mem"
)

// Image is an assembled, loadable program.
type Image struct {
	Name     string
	Text     []byte            // machine code, loaded at TextBase
	Data     []byte            // initialized data, loaded at DataBase
	TextBase uint32            // load address of Text
	DataBase uint32            // load address of Data
	Entry    uint32            // initial PC (label _start, else main, else TextBase)
	Symbols  map[string]uint32 // label -> absolute address
	Lines    map[uint32]int    // text address -> source line (for diagnostics)
}

// Symbol returns the address of a label, with presence indication.
func (img *Image) Symbol(name string) (uint32, bool) {
	a, ok := img.Symbols[name]
	return a, ok
}

// MustSymbol returns the address of a label, panicking if it is undefined.
// Intended for tests and experiment harnesses that reference known labels.
func (img *Image) MustSymbol(name string) uint32 {
	a, ok := img.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: image %q has no symbol %q", img.Name, name))
	}
	return a
}

// DisassembleAt renders the instruction word at pc, for crash reports,
// backtraces, and debugging output.
func (img *Image) DisassembleAt(pc uint32) string {
	off := pc - img.TextBase
	if pc < img.TextBase || int(off)+4 > len(img.Text) {
		return "<outside text>"
	}
	w := uint32(img.Text[off]) | uint32(img.Text[off+1])<<8 |
		uint32(img.Text[off+2])<<16 | uint32(img.Text[off+3])<<24
	return isa.DisassembleWord(w, pc)
}

// SymbolsSorted returns the defined labels in address order.
func (img *Image) SymbolsSorted() []string {
	names := make([]string, 0, len(img.Symbols))
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ai, aj := img.Symbols[names[i]], img.Symbols[names[j]]
		if ai != aj {
			return ai < aj
		}
		return names[i] < names[j]
	})
	return names
}

// Error is an assembly diagnostic tied to a source line.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Assemble assembles source into an image. name is used in diagnostics and
// stored in the image.
func Assemble(name, source string) (*Image, error) {
	a := &assembler{
		file:     name,
		symbols:  make(map[string]uint32),
		equates:  make(map[string]int64),
		textBase: mem.TextBase,
		dataBase: mem.DataBase,
	}
	if err := a.run(source); err != nil {
		return nil, err
	}
	img := &Image{
		Name:     name,
		Text:     a.text,
		Data:     a.data,
		TextBase: a.textBase,
		DataBase: a.dataBase,
		Symbols:  a.symbols,
		Lines:    a.lines,
	}
	switch {
	case a.symbols["_start"] != 0 || hasSym(a.symbols, "_start"):
		img.Entry = a.symbols["_start"]
	case hasSym(a.symbols, "main"):
		img.Entry = a.symbols["main"]
	default:
		img.Entry = a.textBase
	}
	return img, nil
}

// MustAssemble is Assemble for embedded, known-good sources; it panics on
// error. Workload constructors use it so a broken workload fails loudly.
func MustAssemble(name, source string) *Image {
	img, err := Assemble(name, source)
	if err != nil {
		panic(err)
	}
	return img
}

func hasSym(m map[string]uint32, k string) bool { _, ok := m[k]; return ok }

type section int

const (
	secText section = iota
	secData
)

// item is a parsed source statement retained between the two passes.
type item struct {
	line int
	sec  section
	addr uint32   // assigned in pass 1
	mnem string   // instruction mnemonic (lowercased), or "" for directives
	args []string // operand strings
	dir  string   // directive name including '.', or ""
}

type assembler struct {
	file     string
	symbols  map[string]uint32
	equates  map[string]int64
	items    []item
	text     []byte
	data     []byte
	lines    map[uint32]int
	textBase uint32
	dataBase uint32
	sizing   bool // pass 1: labels not yet bound read as zero, appendTo writes nothing
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{File: a.file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) run(source string) error {
	if err := a.parse(source); err != nil {
		return err
	}
	if err := a.layout(); err != nil {
		return err
	}
	return a.emit()
}

// parse splits the source into labeled statements.
func (a *assembler) parse(source string) error {
	sec := secText
	for lineNo, raw := range strings.Split(source, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Peel off any leading labels.
		for {
			idx := labelEnd(line)
			if idx < 0 {
				break
			}
			label := strings.TrimSpace(line[:idx])
			if !validIdent(label) {
				return a.errf(lineNo+1, "invalid label %q", label)
			}
			a.items = append(a.items, item{line: lineNo + 1, sec: sec, dir: "label", args: []string{label}})
			line = strings.TrimSpace(line[idx+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			dir, rest := splitFirst(line)
			dir = strings.ToLower(dir)
			switch dir {
			case ".text":
				sec = secText
			case ".data":
				sec = secData
			case ".globl", ".global":
				// Recorded for compatibility; all labels are global.
			case ".equ", ".set":
				parts := splitArgs(rest)
				if len(parts) != 2 {
					return a.errf(lineNo+1, "%s wants NAME, VALUE", dir)
				}
				v, err := a.number(parts[1], lineNo+1)
				if err != nil {
					return err
				}
				a.equates[parts[0]] = v
			case ".word", ".half", ".byte", ".space", ".asciiz", ".ascii", ".align":
				a.items = append(a.items, item{line: lineNo + 1, sec: sec, dir: dir, args: splitArgs(rest)})
			default:
				return a.errf(lineNo+1, "unknown directive %s", dir)
			}
			continue
		}
		mnem, rest := splitFirst(line)
		a.items = append(a.items, item{
			line: lineNo + 1, sec: sec,
			mnem: strings.ToLower(mnem), args: splitArgs(rest),
		})
	}
	return nil
}

// layout is pass 1: assign addresses to every statement and label. It
// sizes each statement with the code that emits it, labels reading as
// zero and nothing written.
//
// Labels bind lazily to the address of the next emitted item in their
// section, so that a label immediately preceding an auto-aligning .word or
// .half points at the aligned data rather than into the padding.
func (a *assembler) layout() error {
	a.sizing = true
	defer func() { a.sizing = false }()
	textPC := a.textBase
	dataPC := a.dataBase
	var pending []*item // unbound labels awaiting the next sized item

	bind := func(addr uint32, sec section) error {
		rest := pending[:0]
		for _, lab := range pending {
			if lab.sec != sec {
				rest = append(rest, lab)
				continue
			}
			name := lab.args[0]
			if _, dup := a.symbols[name]; dup {
				return a.errf(lab.line, "duplicate label %q", name)
			}
			a.symbols[name] = addr
		}
		pending = rest
		return nil
	}

	for i := range a.items {
		it := &a.items[i]
		pc := &textPC
		if it.sec == secData {
			pc = &dataPC
		}
		it.addr = *pc
		switch {
		case it.dir == "label":
			pending = append(pending, it)
		case it.dir != "":
			at, end, err := a.directive(it, *pc)
			if err != nil {
				return err
			}
			if err := bind(at, it.sec); err != nil {
				return err
			}
			*pc = end
		default:
			if it.sec != secText {
				return a.errf(it.line, "instruction %q in .data section", it.mnem)
			}
			n := 1
			switch it.mnem {
			case "li": // the one width that depends on an operand, a literal
				words, err := a.encodeInstruction(it)
				if err != nil {
					return err
				}
				n = len(words)
			case "la":
				n = 2
			}
			if err := bind(*pc, it.sec); err != nil {
				return err
			}
			*pc += uint32(n) * isa.WordSize
		}
	}
	// Labels at the end of a section bind to that section's final address.
	for _, lab := range pending {
		pc := textPC
		if lab.sec == secData {
			pc = dataPC
		}
		name := lab.args[0]
		if _, dup := a.symbols[name]; dup {
			return a.errf(lab.line, "duplicate label %q", name)
		}
		a.symbols[name] = pc
	}
	return nil
}

var dataWidth = map[string]uint32{".word": 4, ".half": 2, ".byte": 1}

// directive lays out and writes one data directive at pc. It returns the
// address its contents start at, past any alignment padding, which labels
// before it bind to, and the address after it.
func (a *assembler) directive(it *item, pc uint32) (at, end uint32, err error) {
	switch it.dir {
	case ".word", ".half", ".byte":
		size := dataWidth[it.dir]
		at = pc + padTo(pc, size)
		for i, arg := range it.args {
			v, err := a.value(arg, it.line)
			if err != nil {
				return 0, 0, err
			}
			if size < 4 && (v < -1<<(8*size-1) || v >= 1<<(8*size)) {
				return 0, 0, a.errf(it.line, "%s value %d out of range", it.dir, v)
			}
			a.appendTo(it.sec, at+uint32(i)*size, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}[:size])
		}
		return at, at + uint32(len(it.args))*size, nil
	case ".space", ".align":
		if len(it.args) != 1 {
			return 0, 0, a.errf(it.line, "%s wants one argument", it.dir)
		}
		v, err := a.number(it.args[0], it.line)
		if err != nil {
			return 0, 0, err
		}
		if v < 0 || it.dir == ".space" && v > 1<<28 || it.dir == ".align" && v > 12 {
			return 0, 0, a.errf(it.line, "%s %d out of range", it.dir, v)
		}
		at, end = pc, pc+uint32(v)
		if it.dir == ".align" {
			at = pc + padTo(pc, 1<<v)
			end = at
		}
		a.appendTo(it.sec, end, nil) // zero-filled
		return at, end, nil
	default: // .ascii, .asciiz
		if len(it.args) != 1 {
			return 0, 0, a.errf(it.line, "%s wants one string literal", it.dir)
		}
		s, err := strconv.Unquote(it.args[0])
		if err != nil {
			return 0, 0, a.errf(it.line, "bad string literal %s: %v", it.args[0], err)
		}
		if it.dir == ".asciiz" {
			s += "\x00"
		}
		a.appendTo(it.sec, pc, []byte(s))
		return pc, pc + uint32(len(s)), nil
	}
}

func padTo(pc, align uint32) uint32 {
	if align == 0 {
		return 0
	}
	rem := pc % align
	if rem == 0 {
		return 0
	}
	return align - rem
}

// emit is pass 2: encode instructions and materialize data.
func (a *assembler) emit() error {
	a.lines = make(map[uint32]int)
	for i := range a.items {
		it := &a.items[i]
		switch {
		case it.dir == "label":
		case it.dir != "":
			if _, _, err := a.directive(it, it.addr); err != nil {
				return err
			}
		default:
			words, err := a.encodeInstruction(it)
			if err != nil {
				return err
			}
			for wi, w := range words {
				addr := it.addr + uint32(wi)*isa.WordSize
				a.lines[addr] = it.line
				a.appendTo(it.sec, addr, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
			}
		}
	}
	return nil
}

// appendTo writes bytes at the absolute address into the proper section
// buffer, growing it as needed (directives may leave alignment gaps). It
// writes nothing while sizing.
func (a *assembler) appendTo(sec section, addr uint32, b []byte) {
	if a.sizing {
		return
	}
	buf, base := &a.text, a.textBase
	if sec == secData {
		buf, base = &a.data, a.dataBase
	}
	off := int(addr - base)
	if need := off + len(b); need > len(*buf) {
		*buf = append(*buf, make([]byte, need-len(*buf))...)
	}
	copy((*buf)[off:], b)
}
