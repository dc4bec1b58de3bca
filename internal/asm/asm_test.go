package asm

import (
	"strings"
	"testing"

	"bugnet/internal/isa"
	"bugnet/internal/mem"
)

func mustAsm(t *testing.T, src string) *Image {
	t.Helper()
	img, err := Assemble("test.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return img
}

// textWord extracts the i'th instruction word from the image.
func textWord(img *Image, i int) uint32 {
	o := i * 4
	return uint32(img.Text[o]) | uint32(img.Text[o+1])<<8 |
		uint32(img.Text[o+2])<<16 | uint32(img.Text[o+3])<<24
}

func TestBasicProgram(t *testing.T) {
	img := mustAsm(t, `
        .text
main:   addi a0, zero, 5
        addi a1, zero, 7
        add  a0, a0, a1
        syscall
`)
	if img.Entry != mem.TextBase {
		t.Errorf("entry = %#x; want %#x", img.Entry, mem.TextBase)
	}
	if len(img.Text) != 16 {
		t.Fatalf("text len = %d", len(img.Text))
	}
	ins := isa.Decode(textWord(img, 2))
	want := isa.Instruction{Op: isa.OpADD, Rd: isa.RegA0, Rs1: isa.RegA0, Rs2: isa.RegA1}
	if ins != want {
		t.Errorf("third instruction = %+v; want %+v", ins, want)
	}
}

func TestEntryPreference(t *testing.T) {
	img := mustAsm(t, `
        .text
helper: nop
_start: nop
main:   nop
`)
	if img.Entry != img.MustSymbol("_start") {
		t.Errorf("entry = %#x; want _start", img.Entry)
	}
	img2 := mustAsm(t, "\nmain: nop\nother: nop\n")
	if img2.Entry != img2.MustSymbol("main") {
		t.Error("entry should fall back to main")
	}
}

func TestDataDirectives(t *testing.T) {
	img := mustAsm(t, `
        .data
bytes:  .byte 1, 2, 0xFF, 'A'
half:   .half 0x1234
words:  .word 0xDEADBEEF, -1
str:    .asciiz "hi\n"
raw:    .ascii "ab"
gap:    .space 3
        .align 2
end:    .word 7
`)
	if img.Data[0] != 1 || img.Data[1] != 2 || img.Data[2] != 0xFF || img.Data[3] != 'A' {
		t.Errorf("bytes = %v", img.Data[:4])
	}
	halfAddr := img.MustSymbol("half") - mem.DataBase
	if img.Data[halfAddr] != 0x34 || img.Data[halfAddr+1] != 0x12 {
		t.Error("half not little-endian")
	}
	wordsAddr := img.MustSymbol("words") - mem.DataBase
	if wordsAddr%4 != 0 {
		t.Errorf(".word not aligned: offset %d", wordsAddr)
	}
	if img.Data[wordsAddr] != 0xEF || img.Data[wordsAddr+3] != 0xDE {
		t.Error(".word bytes wrong")
	}
	strAddr := img.MustSymbol("str") - mem.DataBase
	if string(img.Data[strAddr:strAddr+4]) != "hi\n\x00" {
		t.Errorf("asciiz = %q", img.Data[strAddr:strAddr+4])
	}
	endAddr := img.MustSymbol("end")
	if endAddr%4 != 0 {
		t.Errorf("end not aligned: %#x", endAddr)
	}
}

func TestWordWithLabel(t *testing.T) {
	img := mustAsm(t, `
        .data
tbl:    .word fn, fn+4
        .text
fn:     nop
        nop
`)
	fn := img.MustSymbol("fn")
	got := uint32(img.Data[0]) | uint32(img.Data[1])<<8 | uint32(img.Data[2])<<16 | uint32(img.Data[3])<<24
	if got != fn {
		t.Errorf(".word fn = %#x; want %#x", got, fn)
	}
	got2 := uint32(img.Data[4]) | uint32(img.Data[5])<<8 | uint32(img.Data[6])<<16 | uint32(img.Data[7])<<24
	if got2 != fn+4 {
		t.Errorf(".word fn+4 = %#x; want %#x", got2, fn+4)
	}
}

func TestLIExpansions(t *testing.T) {
	img := mustAsm(t, `
        li t0, 5
        li t1, -5
        li t2, 0x12345678
        li t3, 0x10000
        li t4, -100000
`)
	// li t0, 5 -> addi
	if ins := isa.Decode(textWord(img, 0)); ins.Op != isa.OpADDI || ins.Imm != 5 {
		t.Errorf("li small = %+v", ins)
	}
	// decode-and-execute check for the wide ones
	checkConst := func(startWord int, want uint32) {
		t.Helper()
		var reg uint32
		ins := isa.Decode(textWord(img, startWord))
		if ins.Op == isa.OpLUI {
			reg = uint32(ins.Imm) << 16
			next := isa.Decode(textWord(img, startWord+1))
			if next.Op == isa.OpADDI && next.Rs1 == ins.Rd && next.Rd == ins.Rd {
				reg += uint32(next.Imm)
			}
		} else if ins.Op == isa.OpADDI {
			reg = uint32(ins.Imm)
		}
		if reg != want {
			t.Errorf("li materialized %#x; want %#x", reg, want)
		}
	}
	checkConst(2, 0x12345678)
	checkConst(4, 0x10000)
	checkConst(5, uint32(0xFFFE7960)) // -100000
}

func TestLAMatchesSymbol(t *testing.T) {
	img := mustAsm(t, `
        .data
        .space 0x8000
x:      .word 1
        .text
main:   la a0, x
`)
	want := img.MustSymbol("x")
	lui := isa.Decode(textWord(img, 0))
	addi := isa.Decode(textWord(img, 1))
	if lui.Op != isa.OpLUI || addi.Op != isa.OpADDI {
		t.Fatalf("la expansion = %v, %v", lui.Op, addi.Op)
	}
	got := uint32(lui.Imm)<<16 + uint32(addi.Imm)
	if got != want {
		t.Errorf("la computes %#x; want %#x", got, want)
	}
}

func TestBranchTargets(t *testing.T) {
	img := mustAsm(t, `
main:   beq a0, a1, skip
        nop
skip:   bne a0, a1, main
        j main
        beqz a0, main
        ble a0, a1, main
`)
	// beq at word 0, target = word 2: offset = 2*4 - 4 = 4
	if ins := isa.Decode(textWord(img, 0)); ins.Imm != 4 {
		t.Errorf("forward branch imm = %d; want 4", ins.Imm)
	}
	// bne at word 2, target = word 0: offset = -(2*4) - 4 = -12
	if ins := isa.Decode(textWord(img, 2)); ins.Imm != -12 {
		t.Errorf("backward branch imm = %d; want -12", ins.Imm)
	}
	if ins := isa.Decode(textWord(img, 3)); ins.Op != isa.OpJ || ins.Imm != -16 {
		t.Errorf("j = %+v", ins)
	}
	if ins := isa.Decode(textWord(img, 4)); ins.Op != isa.OpBEQ || ins.Rs2 != isa.RegZero {
		t.Errorf("beqz = %+v", ins)
	}
	// ble a0, a1 -> bge a1, a0
	if ins := isa.Decode(textWord(img, 5)); ins.Op != isa.OpBGE || ins.Rs1 != isa.RegA1 || ins.Rs2 != isa.RegA0 {
		t.Errorf("ble = %+v", ins)
	}
}

func TestMemOperands(t *testing.T) {
	img := mustAsm(t, `
        lw  a0, 8(sp)
        sw  a0, -4(s0)
        lb  t0, (a1)
        amoswap t0, t1, (a2)
`)
	if ins := isa.Decode(textWord(img, 0)); ins.Op != isa.OpLW || ins.Imm != 8 || ins.Rs1 != isa.RegSP {
		t.Errorf("lw = %+v", ins)
	}
	if ins := isa.Decode(textWord(img, 1)); ins.Op != isa.OpSW || ins.Imm != -4 || ins.Rs1 != isa.RegS0 || ins.Rd != isa.RegA0 {
		t.Errorf("sw = %+v", ins)
	}
	if ins := isa.Decode(textWord(img, 2)); ins.Op != isa.OpLB || ins.Imm != 0 || ins.Rs1 != isa.RegA1 {
		t.Errorf("lb = %+v", ins)
	}
	if ins := isa.Decode(textWord(img, 3)); ins.Op != isa.OpAMOSWAP || ins.Rs1 != isa.RegA2 || ins.Rs2 != isa.RegT1 {
		t.Errorf("amoswap = %+v", ins)
	}
}

func TestCallRet(t *testing.T) {
	img := mustAsm(t, `
main:   call fn
        syscall
fn:     ret
`)
	if ins := isa.Decode(textWord(img, 0)); ins.Op != isa.OpJAL || ins.Imm != 4 {
		t.Errorf("call = %+v", ins)
	}
	if ins := isa.Decode(textWord(img, 2)); ins.Op != isa.OpJALR || ins.Rs1 != isa.RegRA || ins.Rd != isa.RegZero {
		t.Errorf("ret = %+v", ins)
	}
}

func TestEquates(t *testing.T) {
	img := mustAsm(t, `
        .equ SYS_exit, 1
        .equ BUFSZ, 0x40
        li a7, SYS_exit
        addi a0, zero, BUFSZ
`)
	if ins := isa.Decode(textWord(img, 0)); ins.Imm != 1 {
		t.Errorf("equate SYS_exit = %+v", ins)
	}
	if ins := isa.Decode(textWord(img, 1)); ins.Imm != 0x40 {
		t.Errorf("equate BUFSZ = %+v", ins)
	}
}

func TestComments(t *testing.T) {
	img := mustAsm(t, `
        # full line comment
        nop          # trailing
        nop          // c++ style
        nop          ; asm style
        .data
s:      .asciiz "a#b;c//d"   # comment after string
`)
	if len(img.Text) != 12 {
		t.Errorf("text len = %d; want 12", len(img.Text))
	}
	off := img.MustSymbol("s") - mem.DataBase
	if string(img.Data[off:off+8]) != "a#b;c//d" {
		t.Errorf("string = %q", img.Data[off:off+8])
	}
}

func TestPseudoOps(t *testing.T) {
	img := mustAsm(t, `
        mv a0, a1
        not t0, t1
        neg t2, t3
        seqz a2, a3
        snez a4, a5
        subi sp, sp, 16
        jr ra
        nop
`)
	checks := []isa.Instruction{
		{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA1},
		{Op: isa.OpXORI, Rd: isa.RegT0, Rs1: isa.RegT1, Imm: -1},
		{Op: isa.OpSUB, Rd: isa.RegT2, Rs2: isa.RegT3},
		{Op: isa.OpSLTIU, Rd: isa.RegA2, Rs1: isa.RegA3, Imm: 1},
		{Op: isa.OpSLTU, Rd: isa.RegA4, Rs2: isa.RegA5},
		{Op: isa.OpADDI, Rd: isa.RegSP, Rs1: isa.RegSP, Imm: -16},
		{Op: isa.OpJALR, Rd: isa.RegZero, Rs1: isa.RegRA},
		{Op: isa.OpADDI},
	}
	for i, want := range checks {
		if got := isa.Decode(textWord(img, i)); got != want {
			t.Errorf("pseudo %d = %+v; want %+v", i, got, want)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"bogus a0, a1", "unknown instruction"},
		{"addi a0, a1", "wants rd, rs1, imm"},
		{"addi a0, a1, 99999", "out of 16-bit range"},
		{"lw a0, 4(bogus)", "bad base register"},
		{"j nowhere", "undefined symbol"},
		{"x: nop\nx: nop", "duplicate label"},
		{".data\nword: .word\n.text\naddi a0, zero, word", "label reference"},
		{".unknown 4", "unknown directive"},
		{".byte 300", "out of range"},
		{"9bad: nop", "invalid label"},
		{".data\n.space -1", "out of range"},
		{"lui a0", "lui wants rd, imm"},
		{"subi a0, a1", "subi wants rd, rs1, -imm"},
		{"add a0, a1, a2, a3", "add wants rd, rs1, rs2"},
		{"syscall a0", "syscall wants no operands"},
		{"amoswap t0, t1, t2", `bad address operand "t2"; want (rs1)`},
		{"amoadd t0, t1, (t2", `bad address operand "(t2"; want (rs1)`},
	}
	for _, c := range cases {
		_, err := Assemble("e.s", c.src)
		if err == nil {
			t.Errorf("source %q assembled; want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("source %q: error %q does not contain %q", c.src, err, c.wantSub)
		}
		if e, ok := err.(*Error); !ok || e.File != "e.s" || e.Line < 1 {
			t.Errorf("source %q: error %q is not a file:line: diagnostic", c.src, err)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("file.s", "nop\nnop\nbogus\n")
	if err == nil || !strings.HasPrefix(err.Error(), "file.s:3:") {
		t.Errorf("error = %v; want file.s:3 prefix", err)
	}
}

func TestLinesMap(t *testing.T) {
	img := mustAsm(t, `
main:   nop
        li t0, 0x12345678
        nop
`)
	if img.Lines[mem.TextBase] != 2 {
		t.Errorf("line of first instruction = %d", img.Lines[mem.TextBase])
	}
	// li expands to two words, both mapping to line 3.
	if img.Lines[mem.TextBase+4] != 3 || img.Lines[mem.TextBase+8] != 3 {
		t.Error("expanded pseudo lines wrong")
	}
	if img.Lines[mem.TextBase+12] != 4 {
		t.Errorf("line of trailing nop = %d", img.Lines[mem.TextBase+12])
	}
}

func TestLabelOnOwnLineAndSameLine(t *testing.T) {
	img := mustAsm(t, `
a:
b:      nop
c: d:   nop
`)
	if img.MustSymbol("a") != img.MustSymbol("b") {
		t.Error("a and b should coincide")
	}
	if img.MustSymbol("c") != img.MustSymbol("d") {
		t.Error("c and d should coincide")
	}
	if img.MustSymbol("c") != img.MustSymbol("b")+4 {
		t.Error("c should follow b's nop")
	}
}

func TestSymbolsSorted(t *testing.T) {
	img := mustAsm(t, "z: nop\na: nop\n")
	got := img.SymbolsSorted()
	if len(got) != 2 || got[0] != "z" || got[1] != "a" {
		t.Errorf("SymbolsSorted = %v (want address order z,a)", got)
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bad.s", "bogus")
}
