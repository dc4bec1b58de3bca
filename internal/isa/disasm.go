package isa

import (
	"fmt"
	"strings"
)

// Syntax returns the opcode's operands in assembler order, separated by
// ", ". It is the one statement of the instruction syntax: Disassemble
// prints by it and the assembler parses by it. Each operand names the
// Instruction fields it carries:
//
//	rd, rs1, rs2  a register
//	imm           a literal (JALR's may be left out)
//	imm(rs1)      a base register plus offset
//	(rs1)         a bare base register
//	target        a branch or jump target, absolute
func (op Opcode) Syntax() string {
	switch {
	case op == OpInvalid || op == OpSYSCALL || op == OpBREAK:
		return ""
	case op.IsLoad() || op.IsStore():
		return "rd, imm(rs1)" // a store's value register sits in rd
	case op.IsAMO():
		return "rd, rs2, (rs1)"
	case op == OpLUI:
		return "rd, imm"
	}
	switch op.Format() {
	case FormatI:
		return "rd, rs1, imm"
	case FormatB:
		return "rs1, rs2, target"
	case FormatJ:
		return "target"
	}
	return "rd, rs1, rs2"
}

// Disassemble renders a decoded instruction in assembler syntax. pc is the
// address of the instruction; it is used to print absolute branch and jump
// targets alongside the relative offsets.
func Disassemble(ins Instruction, pc uint32) string {
	syntax := ins.Op.Syntax()
	if syntax == "" {
		return ins.Op.String()
	}
	var b strings.Builder
	b.WriteString(ins.Op.String())
	sep := " "
	for _, kind := range strings.Split(syntax, ", ") {
		b.WriteString(sep)
		sep = ", "
		switch kind {
		case "rd":
			b.WriteString(RegName(ins.Rd))
		case "rs1":
			b.WriteString(RegName(ins.Rs1))
		case "rs2":
			b.WriteString(RegName(ins.Rs2))
		case "imm":
			fmt.Fprint(&b, ins.Imm)
		case "imm(rs1)":
			fmt.Fprintf(&b, "%d(%s)", ins.Imm, RegName(ins.Rs1))
		case "(rs1)":
			fmt.Fprintf(&b, "(%s)", RegName(ins.Rs1))
		case "target":
			fmt.Fprintf(&b, "0x%x", branchTarget(pc, ins.Imm))
		}
	}
	return b.String()
}

// branchTarget computes the absolute target of a PC-relative control
// transfer whose offset is relative to the successor instruction.
func branchTarget(pc uint32, imm int32) uint32 {
	return pc + WordSize + uint32(imm)
}

// DisassembleWord decodes and renders a raw instruction word.
func DisassembleWord(w uint32, pc uint32) string {
	return Disassemble(Decode(w), pc)
}
