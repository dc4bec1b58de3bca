package asm_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bugnet/internal/asm"
	"bugnet/internal/isa"
	"bugnet/internal/workload"
)

// TestDisassembleReassembleIdentity: disassembling every instruction of an
// assembled program and reassembling the listing must reproduce the exact
// text bytes. This closes the loop between the assembler, the encoder and
// the disassembler. Branches and jumps print absolute targets, which the
// assembler reads back because the listing loads at the same text base.
// It covers a hand-written program and every image the repo ships.
func TestDisassembleReassembleIdentity(t *testing.T) {
	src := `
        .data
v:      .word 1, 2, 3
s:      .asciiz "x"
        .text
main:   li   t0, 0x12345678
        la   t1, v
        lw   t2, 8(t1)
        sw   t2, -4(sp)
        sb   t2, 3(t1)
        amoadd t3, t2, (t1)
loop:   addi t0, t0, -1
        bnez t0, loop
        call fn
        li   a7, 1
        syscall
fn:     mulh a0, t0, t2
        sltiu a1, a0, 44
        srai a2, a1, 3
        ret
`
	imgs := []*asm.Image{asm.MustAssemble("rt.s", src), workload.MTShare().Image}
	for _, w := range workload.SPEC() {
		imgs = append(imgs, w.Image)
	}
	for _, b := range workload.Bugs(100) {
		imgs = append(imgs, b.Image)
	}
	for _, img := range imgs {
		var b strings.Builder
		for off := 0; off+4 <= len(img.Text); off += 4 {
			b.WriteString(img.DisassembleAt(img.TextBase+uint32(off)) + "\n")
		}
		re, err := asm.Assemble(img.Name, b.String())
		if err != nil {
			t.Fatalf("%s: reassemble: %v", img.Name, err)
		}
		if string(re.Text) != string(img.Text) {
			t.Fatalf("%s: reassembled text differs from the original", img.Name)
		}
	}
}

// TestPropertyRandomEncodableInstructions: any random valid instruction
// disassembles to text that reassembles to the identical word.
func TestPropertyRandomEncodableInstructions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			ins := randomInstruction(rng)
			w := isa.MustEncode(ins)
			text := isa.Disassemble(ins, 0x400000)
			img, err := asm.Assemble("p.s", "main: "+text+"\n")
			if err != nil {
				t.Logf("%q: %v", text, err)
				return false
			}
			got := uint32(img.Text[0]) | uint32(img.Text[1])<<8 |
				uint32(img.Text[2])<<16 | uint32(img.Text[3])<<24
			if got != w {
				t.Logf("%q: %#x -> %#x", text, w, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomInstruction generates a random encodable instruction, its unused
// fields zero as the assembler leaves them.
func randomInstruction(rng *rand.Rand) isa.Instruction {
	op := isa.Opcode(1 + rng.Intn(isa.NumOpcodes()))
	ins := isa.Instruction{Op: op}
	reg := func() uint8 { return uint8(rng.Intn(isa.NumRegs)) }
	switch {
	case op == isa.OpSYSCALL || op == isa.OpBREAK:
		// operand fields are architecturally zero
	case op.Format() == isa.FormatR:
		ins.Rd, ins.Rs1, ins.Rs2 = reg(), reg(), reg()
	case op.Format() == isa.FormatI:
		ins.Rd = reg()
		if op != isa.OpLUI { // LUI architecturally ignores rs1
			ins.Rs1 = reg()
		}
		ins.Imm = int32(rng.Intn(1<<16)) + isa.MinImm16
	case op.Format() == isa.FormatB:
		ins.Rs1, ins.Rs2 = reg(), reg()
		ins.Imm = (int32(rng.Intn(1<<16)) + isa.MinImm16) &^ 3
	case op.Format() == isa.FormatJ:
		ins.Imm = (int32(rng.Intn(1<<26)) + isa.MinImm26) * isa.WordSize
	}
	return ins
}
