package fdr

import (
	"encoding/binary"
	"fmt"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
)

func recordFDR(t *testing.T, src string, kcfg kernel.Config, cfg Config) (*kernel.Result, *Recorder, *asm.Image) {
	t.Helper()
	img, err := asm.Assemble("fdr.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := kernel.New(img, kcfg, nil)
	rec := NewRecorder(m, cfg)
	res := m.Run()
	rec.Finalize()
	return res, rec, img
}

const storeLoop = `
        .data
arr:    .space 1024
        .text
main:   la   t0, arr
        li   t1, 0
        li   t2, 256
loop:   slli t3, t1, 2
        add  t3, t0, t3
        sw   t1, (t3)
        addi t1, t1, 1
        blt  t1, t2, loop
        la   t0, arr
        lw   a0, 100(t0)
        li   a7, 1
        syscall
`

func TestUndoLogCapturesFirstStores(t *testing.T) {
	res, rec, _ := recordFDR(t, storeLoop, kernel.Config{}, Config{IntervalSteps: 1 << 30, BlockBytes: 64})
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	cps := rec.Checkpoints()
	if len(cps) != 1 {
		t.Fatalf("checkpoints = %d", len(cps))
	}
	// 1024 bytes of array = 16 blocks of 64B, plus stack blocks if any
	// (none here: no stack traffic).
	if n := len(cps[0].undo); n < 16 || n > 20 {
		t.Errorf("undo entries = %d; want ≈16 (one per stored block)", n)
	}
	sizes := rec.Sizes()
	if sizes.CoreDumpBytes == 0 {
		t.Error("no core dump recorded")
	}
	if sizes.CacheCheckpointBytes != int64(len(cps[0].undo))*(4+64) {
		t.Errorf("undo bytes accounting wrong: %d", sizes.CacheCheckpointBytes)
	}
}

func TestCheckpointRotation(t *testing.T) {
	_, rec, _ := recordFDR(t, storeLoop, kernel.Config{}, Config{IntervalSteps: 200})
	cps := rec.Checkpoints()
	if len(cps) < 4 {
		t.Fatalf("checkpoints = %d; want several at interval 200", len(cps))
	}
	for i := 1; i < len(cps); i++ {
		if cps[i].startStep <= cps[i-1].startStep {
			t.Error("checkpoints not monotonically ordered")
		}
	}
}

func TestReplayFromEachCheckpoint(t *testing.T) {
	res, rec, _ := recordFDR(t, storeLoop, kernel.Config{}, Config{IntervalSteps: 300})
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	for i := range rec.Checkpoints() {
		rr, err := Replay(rec, i)
		if err != nil {
			t.Fatalf("replay from checkpoint %d: %v", i, err)
		}
		// arr[25] == 25: the final load result must be reproduced.
		if rr.Final.Regs[isa.RegA0] != 25 {
			t.Errorf("checkpoint %d: replayed a0 = %d; want 25", i, rr.Final.Regs[isa.RegA0])
		}
		if rr.Faulted {
			t.Errorf("checkpoint %d: unexpected fault", i)
		}
	}
}

func TestReplayWithSyscallInputs(t *testing.T) {
	src := `
        .data
buf:    .space 16
        .text
main:   li a0, 0
        la a1, buf
        li a2, 16
        li a7, 3          # read
        syscall
        mv s0, a0         # bytes read (from input log during replay)
        la t0, buf
        lw s1, (t0)
        li a7, 1
        mv a0, s1
        syscall
`
	res, rec, _ := recordFDR(t, src,
		kernel.Config{Inputs: map[string][]byte{"stdin": []byte("MNOP....")}},
		Config{IntervalSteps: 1 << 30})
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	rr, err := Replay(rec, 0)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rr.Final.Regs[isa.RegS0] != 8 {
		t.Errorf("replayed read result = %d; want 8", rr.Final.Regs[isa.RegS0])
	}
	if want := uint32(0x504F4E4D); rr.Final.Regs[isa.RegS1] != want { // "MNOP"
		t.Errorf("replayed buf word = %#x; want %#x", rr.Final.Regs[isa.RegS1], want)
	}
	sizes := rec.Sizes()
	if sizes.InputBytes == 0 {
		t.Error("input log empty despite read syscall")
	}
}

func TestReplayWithDMA(t *testing.T) {
	src := `
        .data
buf:    .space 8
        .text
main:   li a0, 0
        la a1, buf
        li a2, 8
        li a7, 10         # dma_read
        syscall
        li t1, 1000
spin:   addi t1, t1, -1
        bnez t1, spin
        la t0, buf
        lw a0, (t0)
        li a7, 1
        syscall
`
	res, rec, _ := recordFDR(t, src,
		kernel.Config{Inputs: map[string][]byte{"stdin": []byte("QRSTUVWX")}, DMALatency: 50},
		Config{IntervalSteps: 1 << 30})
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	if rec.Sizes().DMABytes == 0 {
		t.Fatal("DMA log empty")
	}
	rr, err := Replay(rec, 0)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if want := uint32(0x54535251); rr.Final.Regs[isa.RegA0] != want { // "QRST"
		t.Errorf("post-DMA word = %#x; want %#x", rr.Final.Regs[isa.RegA0], want)
	}
}

// TestReplayInvalidatesLoggedTextWrites: a recorded read (or DMA) lands an
// instruction in a text page the core has already executed, and the
// program then runs it. Replay writes the logged bytes behind the core's
// back; unless it drops the decoded blocks they cover, the stale
// instruction runs again and replay misses the recorded final state.
func TestReplayInvalidatesLoggedTextWrites(t *testing.T) {
	patch := isa.MustEncode(isa.Instruction{Op: isa.OpADDI, Rd: isa.RegS0, Rs1: isa.RegS0, Imm: 100})
	for _, tc := range []struct {
		name    string
		sysno   int
		latency uint64
	}{
		{"read", kernel.SysRead, 0},
		{"dma_read", kernel.SysDMARead, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := asm.MustAssemble("smc.s", fmt.Sprintf(`
main:   li   s1, 0
loop:   addi s0, s0, 1       # the input rewrites it to addi s0, s0, 100
        bnez s1, done
        li   s1, 1
        li   a0, 0
        la   a1, loop
        li   a2, 4
        li   a7, %d
        syscall
        li   t1, 200         # outlast the DMA latency
spin:   addi t1, t1, -1
        bnez t1, spin
        j    loop
done:   mv   a0, s0
        li   a7, 1
        syscall
`, tc.sysno))
			m := kernel.New(img, kernel.Config{
				Inputs:     map[string][]byte{"stdin": binary.LittleEndian.AppendUint32(nil, patch)},
				DMALatency: tc.latency,
			}, nil)
			rec := NewRecorder(m, Config{IntervalSteps: 1 << 30})
			res := m.Run()
			rec.Finalize()
			if res.Crash != nil || res.ExitCode != 101 {
				t.Fatalf("recording: crash %v, exit code %d; want exit 101 (1 + the patched 100)", res.Crash, res.ExitCode)
			}
			rr, err := Replay(rec, 0)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if want := m.Threads[0].CPU.State(); rr.Final != want {
				t.Errorf("replayed final state %+v; want the recorded %+v", rr.Final, want)
			}
		})
	}
}

func TestReplayReproducesCrash(t *testing.T) {
	src := `
main:   li t0, 500
w:      addi t0, t0, -1
        bnez t0, w
boom:   lw a0, (zero)
`
	res, rec, img := recordFDR(t, src, kernel.Config{}, Config{IntervalSteps: 150})
	if res.Crash == nil {
		t.Fatal("no crash")
	}
	cps := rec.Checkpoints()
	rr, err := Replay(rec, len(cps)-1) // replay just the last interval
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rr.Faulted || rr.FaultPC != img.MustSymbol("boom") {
		t.Errorf("replayed fault = %v at %#x; want at %#x", rr.Faulted, rr.FaultPC, img.MustSymbol("boom"))
	}
	// Replaying from the oldest checkpoint must reproduce the same crash.
	rr0, err := Replay(rec, 0)
	if err != nil {
		t.Fatalf("replay from 0: %v", err)
	}
	if !rr0.Faulted || rr0.FaultPC != rr.FaultPC {
		t.Error("crash not reproduced from older checkpoint")
	}
}

func TestInterruptLogGrows(t *testing.T) {
	_, rec, _ := recordFDR(t, `
main:   li t0, 3000
l:      addi t0, t0, -1
        bnez t0, l
        li a7, 1
        syscall
`, kernel.Config{TimerInterval: 250}, Config{})
	if rec.Sizes().InterruptBytes == 0 {
		t.Error("timer interrupts not logged")
	}
}

func TestBudgetEvictsOldCheckpoints(t *testing.T) {
	_, rec, _ := recordFDR(t, storeLoop, kernel.Config{}, Config{IntervalSteps: 100, Budget: 1000})
	cps := rec.Checkpoints()
	if len(cps) == 0 {
		t.Fatal("nothing retained")
	}
	if cps[0].id == 0 {
		t.Error("oldest checkpoint should have been evicted under budget")
	}
	// Replay from the oldest retained checkpoint must still work.
	if _, err := Replay(rec, 0); err != nil {
		t.Fatalf("replay after eviction: %v", err)
	}
}

func TestMultiprocessorSizesButNoReplay(t *testing.T) {
	src := `
        .data
flag:   .word 0
        .text
main:   la   a0, worker
        li   a7, 8
        syscall
        la   t0, flag
mw:     lw   t1, (t0)
        beqz t1, mw
        li   a7, 1
        li   a0, 0
        syscall
worker: la   t0, flag
        li   t1, 1
        sw   t1, (t0)
        li   a7, 1
        syscall
`
	img := asm.MustAssemble("mp.s", src)
	m := kernel.New(img, kernel.Config{Cores: 2}, nil)
	rec := NewRecorder(m, Config{IntervalSteps: 1 << 30})
	res := m.Run()
	rec.Finalize()
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	if rec.Sizes().MRLBytes == 0 {
		t.Error("no MRL bytes recorded for sharing threads")
	}
	if _, err := Replay(rec, 0); err != ErrUnsupported {
		t.Errorf("MP replay error = %v; want ErrUnsupported", err)
	}
}

func TestSizeReportTotal(t *testing.T) {
	_, rec, _ := recordFDR(t, storeLoop, kernel.Config{}, Config{})
	s := rec.Sizes()
	sum := s.CacheCheckpointBytes + s.MemCheckpointBytes + s.InterruptBytes +
		s.InputBytes + s.DMABytes + s.MRLBytes + s.CoreDumpBytes
	if s.Total() != sum {
		t.Errorf("Total() = %d; want %d", s.Total(), sum)
	}
	if s.CoreDumpBytes < 4096 {
		t.Errorf("core dump = %d; want at least a page", s.CoreDumpBytes)
	}
}

// TestConfigRejectsSubWordBlocks: the first-store filter tracks blocks
// by base address at word granularity, so sub-word or non-power-of-two
// block sizes (which would alias distinct blocks) must fail loudly.
func TestConfigRejectsSubWordBlocks(t *testing.T) {
	for _, bad := range []int{1, 2, 3, 6, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BlockBytes=%d accepted", bad)
				}
			}()
			cfg := Config{BlockBytes: bad}
			cfg.fillDefaults()
		}()
	}
	good := Config{BlockBytes: 4}
	good.fillDefaults() // must not panic
}
