package asm

import (
	"strconv"
	"strings"

	"bugnet/internal/isa"
)

// form is how a mnemonic assembles: the instruction its operands fill, and
// their syntax in isa.Opcode.Syntax's terms, plus two kinds of its own:
// "-imm" stores a literal negated and "addr" an absolute value that may be
// a label. A machine mnemonic's form is its opcode and that opcode's
// syntax; a pseudo-instruction's is a row of pseudos.
type form struct {
	ins    isa.Instruction
	syntax string
}

var pseudos = map[string]form{
	"nop":  {isa.Instruction{Op: isa.OpADDI}, ""},
	"li":   {isa.Instruction{Op: isa.OpADDI}, "rd, imm"}, // lui+addi when imm is wide
	"la":   {isa.Instruction{}, "rd, addr"},              // always lui+addi
	"mv":   {isa.Instruction{Op: isa.OpADDI}, "rd, rs1"},
	"not":  {isa.Instruction{Op: isa.OpXORI, Imm: -1}, "rd, rs1"},
	"neg":  {isa.Instruction{Op: isa.OpSUB}, "rd, rs2"},
	"seqz": {isa.Instruction{Op: isa.OpSLTIU, Imm: 1}, "rd, rs1"},
	"snez": {isa.Instruction{Op: isa.OpSLTU}, "rd, rs2"},
	"subi": {isa.Instruction{Op: isa.OpADDI}, "rd, rs1, -imm"},
	"call": {isa.Instruction{Op: isa.OpJAL}, "target"},
	"ret":  {isa.Instruction{Op: isa.OpJALR, Rs1: isa.RegRA}, ""},
	"jr":   {isa.Instruction{Op: isa.OpJALR}, "rs1"},
	"beqz": {isa.Instruction{Op: isa.OpBEQ}, "rs1, target"},
	"bnez": {isa.Instruction{Op: isa.OpBNE}, "rs1, target"},
	"bltz": {isa.Instruction{Op: isa.OpBLT}, "rs1, target"},
	"bgez": {isa.Instruction{Op: isa.OpBGE}, "rs1, target"},
	"bgtz": {isa.Instruction{Op: isa.OpBLT}, "rs2, target"},      // zero < rs
	"blez": {isa.Instruction{Op: isa.OpBGE}, "rs2, target"},      // zero >= rs
	"ble":  {isa.Instruction{Op: isa.OpBGE}, "rs2, rs1, target"}, // a <= b is b >= a
	"bgt":  {isa.Instruction{Op: isa.OpBLT}, "rs2, rs1, target"},
	"bleu": {isa.Instruction{Op: isa.OpBGEU}, "rs2, rs1, target"},
	"bgtu": {isa.Instruction{Op: isa.OpBLTU}, "rs2, rs1, target"},
}

// encodeInstruction expands one (pseudo)instruction into machine words.
func (a *assembler) encodeInstruction(it *item) ([]uint32, error) {
	f, ok := pseudos[it.mnem]
	if !ok {
		op, ok := isa.OpcodeByName(it.mnem)
		if !ok {
			return nil, a.errf(it.line, "unknown instruction %q", it.mnem)
		}
		f = form{isa.Instruction{Op: op}, op.Syntax()}
	}
	ins, err := a.operands(it, f.ins, f.syntax)
	if err != nil {
		return nil, err
	}
	if it.mnem == "la" || it.mnem == "li" && (ins.Imm < isa.MinImm16 || ins.Imm > isa.MaxImm16) {
		return luiAddi(ins.Rd, ins.Imm, it.mnem == "la"), nil
	}
	w, err := isa.Encode(ins)
	if err != nil {
		return nil, a.errf(it.line, "%v", err)
	}
	return []uint32{w}, nil
}

// luiAddi loads v into rd with lui+addi, or with lui alone when v's low
// half is zero and pair is false. la sets pair to keep its width
// label-free for pass 1.
func luiAddi(rd uint8, v int32, pair bool) []uint32 {
	lo := int32(int16(uint16(uint32(v))))
	hi := (v - lo) >> 16 // the 16 bits LUI must place in the upper half
	words := []uint32{isa.MustEncode(isa.Instruction{Op: isa.OpLUI, Rd: rd, Imm: int32(int16(uint16(hi)))})}
	if lo != 0 || pair {
		words = append(words, isa.MustEncode(isa.Instruction{Op: isa.OpADDI, Rd: rd, Rs1: rd, Imm: lo}))
	}
	return words
}

// operands fills ins from the statement's operands, which must be as many
// as syntax names, read in its order and by its kinds.
func (a *assembler) operands(it *item, ins isa.Instruction, syntax string) (isa.Instruction, error) {
	var kinds []string
	if syntax != "" {
		kinds = strings.Split(syntax, ", ")
	}
	if it.mnem == "jalr" && len(it.args) == 2 {
		kinds = kinds[:2] // the offset may be left out
	}
	if len(it.args) != len(kinds) {
		if syntax == "" {
			syntax = "no operands"
		}
		return ins, a.errf(it.line, "%s wants %s", it.mnem, syntax)
	}
	for i, kind := range kinds {
		arg := it.args[i]
		var err error
		var v int64
		switch kind {
		case "rd":
			ins.Rd, err = a.reg(arg, it.line)
		case "rs1":
			ins.Rs1, err = a.reg(arg, it.line)
		case "rs2":
			ins.Rs2, err = a.reg(arg, it.line)
		case "(rs1)", "imm(rs1)":
			ins.Imm, ins.Rs1, err = a.memOperand(arg, kind, it.line)
		case "imm", "-imm":
			v, err = a.number(arg, it.line)
			ins.Imm = int32(v)
			if kind == "-imm" {
				ins.Imm = -ins.Imm
			}
		case "addr", "target":
			v, err = a.value(arg, it.line)
			ins.Imm = int32(v)
			if kind == "target" { // PC-relative, from the successor
				ins.Imm = int32(uint32(v) - (it.addr + isa.WordSize))
			}
		}
		if err != nil {
			return ins, err
		}
	}
	return ins, nil
}

// reg parses a register name.
func (a *assembler) reg(arg string, line int) (uint8, error) {
	r, ok := isa.RegByName(arg)
	if !ok {
		return 0, a.errf(line, "unknown register %q", arg)
	}
	return r, nil
}

// memOperand parses an operand of kind "imm(rs1)", which is
// "offset(base)", "(base)" or "symbol(base)", or of kind "(rs1)", which is
// "(base)" alone.
func (a *assembler) memOperand(s, kind string, line int) (int32, uint8, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") || open > 0 && kind == "(rs1)" {
		return 0, 0, a.errf(line, "bad address operand %q; want %s", s, kind)
	}
	base, ok := isa.RegByName(s[open+1 : len(s)-1])
	if !ok {
		return 0, 0, a.errf(line, "bad base register in %q", s)
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		return 0, base, nil
	}
	v, err := a.number(offStr, line)
	if err != nil {
		return 0, 0, err
	}
	return int32(v), base, nil
}

// number evaluates a purely numeric expression (literal or .equ constant,
// with optional +/- literal suffix). It rejects label references.
func (a *assembler) number(s string, line int) (int64, error) {
	v, isLabel, err := a.eval(s, line)
	if err != nil {
		return 0, err
	}
	if isLabel {
		return 0, a.errf(line, "label reference %q not allowed here", s)
	}
	return v, nil
}

// value evaluates an expression that may reference a label.
func (a *assembler) value(s string, line int) (int64, error) {
	v, _, err := a.eval(s, line)
	return v, err
}

// eval evaluates "term" or "term+term" or "term-term" where terms are
// integer literals, character literals, .equ constants, or labels.
func (a *assembler) eval(s string, line int) (val int64, usedLabel bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false, a.errf(line, "empty expression")
	}
	// Find a top-level +/- (not the leading sign).
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			if s[i-1] == 'x' || s[i-1] == 'X' || s[i-1] == '+' || s[i-1] == '-' {
				continue
			}
			l, ll, err := a.eval(s[:i], line)
			if err != nil {
				return 0, false, err
			}
			r, rl, err := a.eval(s[i+1:], line)
			if err != nil {
				return 0, false, err
			}
			if s[i] == '+' {
				return l + r, ll || rl, nil
			}
			return l - r, ll || rl, nil
		}
	}
	return a.term(s, line)
}

func (a *assembler) term(s string, line int) (int64, bool, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false, a.errf(line, "empty term")
	}
	// Character literal.
	if strings.HasPrefix(s, "'") {
		r, err := strconv.Unquote(s)
		if err != nil || len(r) == 0 {
			return 0, false, a.errf(line, "bad character literal %s", s)
		}
		return int64(r[0]), false, nil
	}
	// Integer literal (decimal, hex, octal, binary per Go syntax).
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, false, nil
	}
	if v, err := strconv.ParseUint(s, 0, 64); err == nil {
		return int64(v), false, nil
	}
	// Equate.
	if v, ok := a.equates[s]; ok {
		return v, false, nil
	}
	// Label. While sizing, a name not yet bound reads as a label at zero.
	if addr, ok := a.symbols[s]; ok || a.sizing {
		return int64(addr), true, nil
	}
	return 0, false, a.errf(line, "undefined symbol %q", s)
}

// --- lexical helpers ---

// stripComment removes '#', '//' and ';' comments, respecting string
// literals so ".asciiz "a#b"" survives.
func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '#' || c == ';':
			return s[:i]
		case c == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

// labelEnd returns the index of a leading label's ':' or -1. It only
// considers a ':' before any whitespace-separated second token containing
// quotes or parens, to avoid misreading operands.
func labelEnd(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ':':
			return i
		case c == '"' || c == '(' || c == ',' || c == ' ' || c == '\t':
			return -1
		}
	}
	return -1
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c == '.':
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitFirst splits off the first whitespace-delimited token.
func splitFirst(s string) (first, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i+1:])
}

// splitArgs splits a comma-separated operand list, respecting string and
// character literals.
func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var args []string
	depth := 0
	inStr, inChar := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inChar:
			if c == '\\' {
				i++
			} else if c == '\'' {
				inChar = false
			}
		case c == '"':
			inStr = true
		case c == '\'':
			inChar = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			args = append(args, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	args = append(args, strings.TrimSpace(s[start:]))
	return args
}
