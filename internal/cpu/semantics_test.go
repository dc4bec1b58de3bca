package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bugnet/internal/isa"
	"bugnet/internal/mem"
)

// refALU is an independent Go reference for every register-register and
// register-immediate ALU operation. The interpreter must agree with it on
// random operands — this catches sign-extension and shift-masking slips
// that targeted tests miss.
func refALU(op isa.Opcode, a, b uint32, imm int32) (uint32, bool) {
	switch op {
	case isa.OpADD:
		return a + b, true
	case isa.OpSUB:
		return a - b, true
	case isa.OpMUL:
		return a * b, true
	case isa.OpMULH:
		return uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32), true
	case isa.OpMULHU:
		return uint32(uint64(a) * uint64(b) >> 32), true
	case isa.OpDIV:
		if b == 0 {
			return 0, false
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return a, true
		}
		return uint32(int32(a) / int32(b)), true
	case isa.OpDIVU:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case isa.OpREM:
		if b == 0 {
			return 0, false
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return 0, true
		}
		return uint32(int32(a) % int32(b)), true
	case isa.OpREMU:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case isa.OpAND:
		return a & b, true
	case isa.OpOR:
		return a | b, true
	case isa.OpXOR:
		return a ^ b, true
	case isa.OpSLL:
		return a << (b & 31), true
	case isa.OpSRL:
		return a >> (b & 31), true
	case isa.OpSRA:
		return uint32(int32(a) >> (b & 31)), true
	case isa.OpSLT:
		if int32(a) < int32(b) {
			return 1, true
		}
		return 0, true
	case isa.OpSLTU:
		if a < b {
			return 1, true
		}
		return 0, true
	case isa.OpADDI:
		return a + uint32(imm), true
	case isa.OpANDI:
		return a & uint32(imm), true
	case isa.OpORI:
		return a | uint32(imm), true
	case isa.OpXORI:
		return a ^ uint32(imm), true
	case isa.OpSLTI:
		if int32(a) < imm {
			return 1, true
		}
		return 0, true
	case isa.OpSLTIU:
		if a < uint32(imm) {
			return 1, true
		}
		return 0, true
	case isa.OpSLLI:
		return a << (uint32(imm) & 31), true
	case isa.OpSRLI:
		return a >> (uint32(imm) & 31), true
	case isa.OpSRAI:
		return uint32(int32(a) >> (uint32(imm) & 31)), true
	case isa.OpLUI:
		return uint32(imm) << 16, true
	}
	return 0, false
}

var rTypeOps = []isa.Opcode{
	isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpMULH, isa.OpMULHU,
	isa.OpDIV, isa.OpDIVU, isa.OpREM, isa.OpREMU,
	isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL, isa.OpSRA,
	isa.OpSLT, isa.OpSLTU,
}

var iTypeALUOps = []isa.Opcode{
	isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI,
	isa.OpSLTI, isa.OpSLTIU, isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpLUI,
}

// execOne runs a single pre-encoded instruction on a fresh core with the
// given source register values and returns the destination result.
func execOne(t *testing.T, ins isa.Instruction, a, b uint32) (uint32, Event) {
	t.Helper()
	m := mem.New()
	m.Map(0x1000, 64)
	word := isa.MustEncode(ins)
	if err := m.StoreWord(0x1000, word); err != nil {
		t.Fatal(err)
	}
	c := New(m)
	c.PC = 0x1000
	c.Regs[5] = a // t0
	c.Regs[6] = b // t1
	_, ev := c.Run(1)
	return c.Regs[7], ev // t2
}

// interestingValues are the operand corner cases.
var interestingValues = []uint32{
	0, 1, 2, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFE,
	0x00008000, 0xFFFF8000, 0xDEADBEEF, 0x01000000,
}

func TestALUAgainstReference(t *testing.T) {
	for _, op := range rTypeOps {
		for _, a := range interestingValues {
			for _, b := range interestingValues {
				want, ok := refALU(op, a, b, 0)
				got, ev := execOne(t, isa.Instruction{Op: op, Rd: 7, Rs1: 5, Rs2: 6}, a, b)
				if !ok {
					if ev != EventFault {
						t.Errorf("%v(%#x,%#x): expected div-zero fault, got event %v", op, a, b, ev)
					}
					continue
				}
				if ev != EventStep || got != want {
					t.Errorf("%v(%#x,%#x) = %#x (event %v); want %#x", op, a, b, got, ev, want)
				}
			}
		}
	}
}

func TestImmediateALUAgainstReference(t *testing.T) {
	imms := []int32{0, 1, -1, 31, 32, 0x7FFF, -0x8000, 100, -100}
	for _, op := range iTypeALUOps {
		for _, a := range interestingValues {
			for _, imm := range imms {
				want, _ := refALU(op, a, 0, imm)
				got, ev := execOne(t, isa.Instruction{Op: op, Rd: 7, Rs1: 5, Imm: imm}, a, 0)
				if ev != EventStep || got != want {
					t.Errorf("%v(%#x, imm=%d) = %#x (event %v); want %#x", op, a, imm, got, ev, want)
				}
			}
		}
	}
}

// TestPropertyALURandom cross-checks the interpreter against the reference
// on random operands.
func TestPropertyALURandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			op := rTypeOps[rng.Intn(len(rTypeOps))]
			a, b := rng.Uint32(), rng.Uint32()
			want, ok := refALU(op, a, b, 0)
			got, ev := execOne(t, isa.Instruction{Op: op, Rd: 7, Rs1: 5, Rs2: 6}, a, b)
			if !ok {
				if ev != EventFault {
					return false
				}
				continue
			}
			if ev != EventStep || got != want {
				t.Logf("%v(%#x,%#x) = %#x; want %#x", op, a, b, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBranchSemantics checks taken/not-taken against reference predicates.
func TestBranchSemantics(t *testing.T) {
	preds := map[isa.Opcode]func(a, b uint32) bool{
		isa.OpBEQ:  func(a, b uint32) bool { return a == b },
		isa.OpBNE:  func(a, b uint32) bool { return a != b },
		isa.OpBLT:  func(a, b uint32) bool { return int32(a) < int32(b) },
		isa.OpBGE:  func(a, b uint32) bool { return int32(a) >= int32(b) },
		isa.OpBLTU: func(a, b uint32) bool { return a < b },
		isa.OpBGEU: func(a, b uint32) bool { return a >= b },
	}
	for op, pred := range preds {
		for _, a := range interestingValues {
			for _, b := range interestingValues {
				m := mem.New()
				m.Map(0x1000, 64)
				m.StoreWord(0x1000, isa.MustEncode(isa.Instruction{Op: op, Rs1: 5, Rs2: 6, Imm: 16}))
				c := New(m)
				c.PC = 0x1000
				c.Regs[5], c.Regs[6] = a, b
				c.Run(1)
				wantPC := uint32(0x1004)
				if pred(a, b) {
					wantPC = 0x1014
				}
				if c.PC != wantPC {
					t.Errorf("%v(%#x,%#x): pc = %#x; want %#x", op, a, b, c.PC, wantPC)
				}
			}
		}
	}
}

// TestJumpSemantics checks link-register and target computation.
func TestJumpSemantics(t *testing.T) {
	m := mem.New()
	m.Map(0x1000, 256)
	m.StoreWord(0x1000, isa.MustEncode(isa.Instruction{Op: isa.OpJAL, Imm: 32}))
	c := New(m)
	c.PC = 0x1000
	c.Run(1)
	if c.PC != 0x1024 || c.Regs[isa.RegRA] != 0x1004 {
		t.Errorf("jal: pc=%#x ra=%#x", c.PC, c.Regs[isa.RegRA])
	}

	m.StoreWord(0x1024, isa.MustEncode(isa.Instruction{Op: isa.OpJALR, Rd: 7, Rs1: 5, Imm: 8}))
	c.Regs[5] = 0x1080
	c.Run(1)
	if c.PC != 0x1088 || c.Regs[7] != 0x1028 {
		t.Errorf("jalr: pc=%#x rd=%#x", c.PC, c.Regs[7])
	}

	m.StoreWord(0x1088, isa.MustEncode(isa.Instruction{Op: isa.OpJ, Imm: -8}))
	c.Run(1)
	if c.PC != 0x1084 {
		t.Errorf("j backward: pc=%#x", c.PC)
	}
}
