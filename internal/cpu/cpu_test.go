package cpu

import (
	"slices"
	"testing"
	"unsafe"

	"bugnet/internal/asm"
	"bugnet/internal/isa"
	"bugnet/internal/mem"
)

// run assembles src, loads it, and executes until fault, syscall or the
// step limit. It returns the CPU for state inspection.
func run(t *testing.T, src string, maxSteps uint64) (*CPU, Event) {
	t.Helper()
	img, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := load(img)
	_, ev := c.Run(maxSteps)
	return c, ev
}

func load(img *asm.Image) *CPU {
	m := mem.New()
	if len(img.Text) > 0 {
		m.Map(img.TextBase, uint32(len(img.Text)))
		m.StoreBytes(img.TextBase, img.Text)
	}
	if len(img.Data) > 0 {
		m.Map(img.DataBase, uint32(len(img.Data)))
		m.StoreBytes(img.DataBase, img.Data)
	}
	m.Map(mem.StackTop-mem.DefaultStackSize, mem.DefaultStackSize)
	c := New(m)
	c.PC = img.Entry
	c.Regs[isa.RegSP] = mem.StackTop
	return c
}

func TestArithmetic(t *testing.T) {
	c, ev := run(t, `
        li   a0, 6
        li   a1, 7
        mul  a2, a0, a1      # 42
        sub  a3, a2, a1      # 35
        div  a4, a2, a0      # 7
        rem  a5, a2, a1      # 0
        syscall
`, 100)
	if ev != EventSyscall {
		t.Fatalf("event = %v; fault=%v", ev, c.Fault)
	}
	want := map[uint8]uint32{isa.RegA2: 42, isa.RegA3: 35, isa.RegA4: 7, isa.RegA5: 0}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("%s = %d; want %d", isa.RegName(r), c.Regs[r], v)
		}
	}
}

func TestSignedUnsignedOps(t *testing.T) {
	c, ev := run(t, `
        li   t0, -8
        li   t1, 2
        div  a0, t0, t1      # -4
        srl  a1, t0, t1      # logical: 0x3FFFFFFE
        sra  a2, t0, t1      # arithmetic: -2
        slt  a3, t0, t1      # signed: 1
        sltu a4, t0, t1      # unsigned: 0 (big number)
        mulh a5, t0, t1      # high bits of -16: -1
        syscall
`, 100)
	if ev != EventSyscall {
		t.Fatalf("event = %v; fault=%v", ev, c.Fault)
	}
	if int32(c.Regs[isa.RegA0]) != -4 {
		t.Errorf("div = %d", int32(c.Regs[isa.RegA0]))
	}
	if c.Regs[isa.RegA1] != 0x3FFFFFFE {
		t.Errorf("srl = %#x", c.Regs[isa.RegA1])
	}
	if int32(c.Regs[isa.RegA2]) != -2 {
		t.Errorf("sra = %d", int32(c.Regs[isa.RegA2]))
	}
	if c.Regs[isa.RegA3] != 1 || c.Regs[isa.RegA4] != 0 {
		t.Errorf("slt/sltu = %d/%d", c.Regs[isa.RegA3], c.Regs[isa.RegA4])
	}
	if int32(c.Regs[isa.RegA5]) != -1 {
		t.Errorf("mulh = %d", int32(c.Regs[isa.RegA5]))
	}
}

func TestLoadsStores(t *testing.T) {
	c, ev := run(t, `
        .data
w:      .word 0x11223344
b:      .space 8
        .text
main:   la   t0, w
        lw   a0, (t0)        # 0x11223344
        lb   a1, 1(t0)       # 0x33
        lbu  a2, 3(t0)       # 0x11
        lh   a3, 2(t0)       # 0x1122
        la   t1, b
        li   t2, -2
        sw   t2, (t1)
        lw   a4, (t1)        # -2
        sb   zero, (t1)
        lw   a5, (t1)        # 0xFFFFFF00
        sh   zero, 2(t1)
        lw   a6, (t1)        # 0x0000FF00
        syscall
`, 100)
	if ev != EventSyscall {
		t.Fatalf("event = %v; fault=%v", ev, c.Fault)
	}
	checks := map[uint8]uint32{
		isa.RegA0: 0x11223344,
		isa.RegA1: 0x33,
		isa.RegA2: 0x11,
		isa.RegA3: 0x1122,
		isa.RegA4: 0xFFFFFFFE,
		isa.RegA5: 0xFFFFFF00,
		isa.RegA6: 0x0000FF00,
	}
	for r, v := range checks {
		if c.Regs[r] != v {
			t.Errorf("%s = %#x; want %#x", isa.RegName(r), c.Regs[r], v)
		}
	}
}

func TestSignExtensionLoads(t *testing.T) {
	c, _ := run(t, `
        .data
x:      .word 0xFF80FF80
        .text
main:   la  t0, x
        lb  a0, (t0)     # 0x80 -> -128
        lh  a1, (t0)     # 0xFF80 -> -128
        lbu a2, (t0)     # 128
        lhu a3, (t0)     # 0xFF80
        syscall
`, 100)
	if int32(c.Regs[isa.RegA0]) != -128 || int32(c.Regs[isa.RegA1]) != -128 {
		t.Errorf("signed loads = %d, %d", int32(c.Regs[isa.RegA0]), int32(c.Regs[isa.RegA1]))
	}
	if c.Regs[isa.RegA2] != 128 || c.Regs[isa.RegA3] != 0xFF80 {
		t.Errorf("unsigned loads = %d, %#x", c.Regs[isa.RegA2], c.Regs[isa.RegA3])
	}
}

func TestControlFlow(t *testing.T) {
	c, ev := run(t, `
main:   li   a0, 0
        li   t0, 10
        li   t1, 0
loop:   add  a0, a0, t1
        addi t1, t1, 1
        blt  t1, t0, loop
        call double
        syscall
double: add  a0, a0, a0
        ret
`, 1000)
	if ev != EventSyscall {
		t.Fatalf("event = %v; fault=%v", ev, c.Fault)
	}
	if c.Regs[isa.RegA0] != 90 { // sum 0..9 = 45, doubled
		t.Errorf("a0 = %d; want 90", c.Regs[isa.RegA0])
	}
}

func TestAMO(t *testing.T) {
	c, ev := run(t, `
        .data
lockw:  .word 0
ctr:    .word 100
        .text
main:   la   t0, lockw
        li   t1, 1
        amoswap a0, t1, (t0)   # a0 = 0 (old), lock = 1
        la   t2, ctr
        li   t3, 5
        amoadd a1, t3, (t2)    # a1 = 100, ctr = 105
        lw   a2, (t2)
        syscall
`, 100)
	if ev != EventSyscall {
		t.Fatalf("event = %v; fault=%v", ev, c.Fault)
	}
	if c.Regs[isa.RegA0] != 0 || c.Regs[isa.RegA1] != 100 || c.Regs[isa.RegA2] != 105 {
		t.Errorf("amo results = %d, %d, %d", c.Regs[isa.RegA0], c.Regs[isa.RegA1], c.Regs[isa.RegA2])
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c, _ := run(t, `
        addi zero, zero, 5
        li   a0, 7
        add  zero, a0, a0
        syscall
`, 100)
	if c.Regs[isa.RegZero] != 0 {
		t.Errorf("zero register = %d", c.Regs[isa.RegZero])
	}
}

func TestFaults(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want FaultCause
	}{
		{"null load", "lw a0, (zero)\n", FaultMemRead},
		{"null store", "sw a0, (zero)\n", FaultMemWrite},
		{"wild load", "li t0, 0x7000\nlw a0, (t0)\n", FaultMemRead},
		{"misaligned load", "li t0, 0x10000002\nlw a0, (t0)\n", FaultMisaligned},
		{"div zero", "li a0, 3\ndiv a1, a0, zero\n", FaultDivZero},
		{"rem zero", "li a0, 3\nrem a1, a0, zero\n", FaultDivZero},
		{"divu zero", "li a0, 3\ndivu a1, a0, zero\n", FaultDivZero},
		{"break", "break\n", FaultBreak},
		{"null call", "jalr ra, zero, 0\n", FaultMemFetch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ev := run(t, tc.src, 100)
			if ev != EventFault {
				t.Fatalf("event = %v; want fault", ev)
			}
			if c.Fault == nil || c.Fault.Cause != tc.want {
				t.Fatalf("fault = %+v; want cause %v", c.Fault, tc.want)
			}
			if !c.Halted {
				t.Error("core not halted after fault")
			}
		})
	}
}

func TestFaultDoesNotCommit(t *testing.T) {
	c, ev := run(t, `
        li  a0, 1
        li  a1, 2
        lw  a2, (zero)
`, 100)
	if ev != EventFault {
		t.Fatalf("event = %v", ev)
	}
	if c.Fault.IC != 2 {
		t.Errorf("fault IC = %d; want 2 committed instructions", c.Fault.IC)
	}
	if c.Fault.Addr != 0 || c.Fault.Cause != FaultMemRead {
		t.Errorf("fault = %+v", c.Fault)
	}
	// PC must still point at the faulting instruction.
	if c.PC != c.Fault.PC {
		t.Errorf("PC advanced past fault: %#x vs %#x", c.PC, c.Fault.PC)
	}
}

func TestLoggableHookFiring(t *testing.T) {
	img := asm.MustAssemble("h.s", `
        .data
x:      .word 7
        .text
main:   la  t0, x
        lw  a0, (t0)     # loggable
        sb  a0, (t0)     # loggable (sub-word RMW)
        sh  a0, (t0)     # loggable
        sw  a0, (t0)     # word store: NOT loggable
        amoadd a1, a0, (t0)  # loggable
        syscall
`)
	c := load(img)
	var loggable, stores []uint32
	var writes int
	c.OnLoggable = func(w uint32, isWrite bool) {
		loggable = append(loggable, w)
		if isWrite {
			writes++
		}
	}
	c.OnWordStore = func(w uint32) { stores = append(stores, w) }
	c.Run(100)
	x := img.MustSymbol("x")
	if len(loggable) != 4 {
		t.Fatalf("loggable hooks = %d; want 4 (lw, sb, sh, amoadd)", len(loggable))
	}
	for _, a := range loggable {
		if a != x {
			t.Errorf("loggable addr = %#x; want %#x", a, x)
		}
	}
	if len(stores) != 1 || stores[0] != x {
		t.Errorf("word-store hooks = %v", stores)
	}
	if writes != 3 { // sb, sh, amoadd
		t.Errorf("write-flagged loggable ops = %d; want 3", writes)
	}
}

func TestHookNotFiredOnFault(t *testing.T) {
	img := asm.MustAssemble("h.s", "lw a0, (zero)\n")
	c := load(img)
	fired := false
	c.OnLoggable = func(uint32, bool) { fired = true }
	c.Run(1)
	if fired {
		t.Error("loggable hook fired for a faulting load")
	}
}

func TestAutoMap(t *testing.T) {
	img := asm.MustAssemble("h.s", `
        li t0, 0x2000000
        lw a0, (t0)
        syscall
`)
	c := load(img)
	c.AutoMap = true
	if _, ev := c.Run(100); ev != EventSyscall {
		t.Fatalf("event = %v; fault=%v (AutoMap should prevent the fault)", ev, c.Fault)
	}
	if c.Regs[isa.RegA0] != 0 {
		t.Errorf("auto-mapped load = %d; want 0", c.Regs[isa.RegA0])
	}
}

// TestBreakPC: a breakpoint at a taken branch's target and one ending a
// block stop Run before every execution of theirs but the first a call
// runs, at the points one-instruction Runs pass them.
func TestBreakPC(t *testing.T) {
	img := asm.MustAssemble("b.s", `
main:   li   t0, 3
loop:   addi t0, t0, -1
target: bnez t0, loop
        syscall
`)
	want := []uint64{1, 2, 3, 4, 5, 6} // li, then addi/bnez pairs; the last bnez falls through
	for _, batch := range []uint64{1, 2, 100} {
		if got := breakTest(t, img, 100, batch, img.MustSymbol("loop"), img.MustSymbol("target")); !slices.Equal(got, want) {
			t.Fatalf("batch %d: stops at %v, want %v", batch, got, want)
		}
	}
}

// TestCPUSize pins the size the padding comment on CPU states.
func TestCPUSize(t *testing.T) {
	if got := unsafe.Sizeof(CPU{}); got != 272 {
		t.Fatalf("CPU is %d bytes; the padding comment says 272", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	img := asm.MustAssemble("s.s", "li a0, 1\nli a1, 2\nsyscall\n")
	c := load(img)
	c.Run(1)
	snap := c.State()
	c.Run(2)
	c2 := load(img)
	c2.Restore(snap)
	if c2.PC != snap.PC || c2.Regs[isa.RegA0] != 1 || c2.Regs[isa.RegA1] != 0 {
		t.Error("restore did not reproduce snapshot state")
	}
}

func TestFetchFaultOnUnmappedPC(t *testing.T) {
	m := mem.New()
	c := New(m)
	c.PC = 0x400000
	if _, ev := c.Run(1); ev != EventFault || c.Fault.Cause != FaultMemFetch {
		t.Fatalf("event = %v fault = %+v", ev, c.Fault)
	}
}

func TestHaltedStaysHalted(t *testing.T) {
	m := mem.New()
	c := New(m)
	c.Halted = true
	if _, ev := c.Run(1); ev != EventHalted {
		t.Fatalf("event = %v", ev)
	}
}

// BenchmarkRunOneInstruction times Run(1) over a load/store loop: the
// per-instruction price of a caller that must act between instructions,
// as FDR replay does.
func BenchmarkRunOneInstruction(b *testing.B) {
	img := asm.MustAssemble("b.s", `
        .data
arr:    .space 4096
        .text
main:   la   t0, arr
        li   t1, 0
loop:   andi t2, t1, 1023
        slli t2, t2, 2
        add  t3, t0, t2
        lw   t4, (t3)
        addi t4, t4, 1
        sw   t4, (t3)
        addi t1, t1, 1
        j    loop
`)
	c := load(img)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(1)
	}
}
