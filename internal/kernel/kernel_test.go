package kernel

import (
	"slices"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/cpu"
)

// hookLog records Hooks callbacks for assertions.
type hookLog struct {
	NopHooks
	interrupts   []string
	returns      int
	kernelWrites []uint32
	dmaWrites    []uint32
	starts       []int
	exits        []int
	faults       int
}

func (h *hookLog) OnInterrupt(tid int, kind InterruptKind) {
	h.interrupts = append(h.interrupts, kind.String())
}
func (h *hookLog) OnInterruptReturn(tid int) { h.returns++ }
func (h *hookLog) OnKernelWrite(tid int, a uint32, n uint32) {
	h.kernelWrites = append(h.kernelWrites, a)
}
func (h *hookLog) OnDMAWrite(a uint32, n uint32)     { h.dmaWrites = append(h.dmaWrites, a) }
func (h *hookLog) OnThreadStart(tid int)             { h.starts = append(h.starts, tid) }
func (h *hookLog) OnThreadExit(tid int)              { h.exits = append(h.exits, tid) }
func (h *hookLog) OnFault(tid int, f *cpu.FaultInfo) { h.faults++ }

func runSrc(t *testing.T, src string, cfg Config, hooks Hooks) (*Machine, *Result) {
	t.Helper()
	img, err := asm.Assemble("k.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(img, cfg, hooks)
	return m, m.Run()
}

func TestExitCode(t *testing.T) {
	_, res := runSrc(t, `
main:   li a0, 42
        li a7, 1        # SysExit
        syscall
`, Config{}, nil)
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	if res.ExitCode != 42 {
		t.Errorf("exit code = %d", res.ExitCode)
	}
}

func TestWriteStdout(t *testing.T) {
	m, res := runSrc(t, `
        .data
msg:    .asciiz "hello\n"
        .text
main:   li a0, 1
        la a1, msg
        li a2, 6
        li a7, 2        # SysWrite
        syscall
        li a7, 1
        li a0, 0
        syscall
`, Config{}, nil)
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	if got := string(m.Output(1)); got != "hello\n" {
		t.Errorf("stdout = %q", got)
	}
}

func TestReadStdin(t *testing.T) {
	h := &hookLog{}
	m, res := runSrc(t, `
        .data
buf:    .space 16
        .text
main:   li a0, 0
        la a1, buf
        li a2, 16
        li a7, 3        # SysRead
        syscall
        mv s0, a0       # bytes read
        # echo back
        li a0, 1
        la a1, buf
        mv a2, s0
        li a7, 2
        syscall
        li a7, 1
        li a0, 0
        syscall
`, Config{Inputs: map[string][]byte{"stdin": []byte("abc")}}, h)
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	if got := string(m.Output(1)); got != "abc" {
		t.Errorf("echo = %q", got)
	}
	if len(h.kernelWrites) != 1 {
		t.Errorf("kernel writes = %v; want one (the read copy-in)", h.kernelWrites)
	}
	// read at EOF returns 0
}

func TestOpenNamedInput(t *testing.T) {
	m, res := runSrc(t, `
        .data
name:   .asciiz "data.txt"
buf:    .space 8
        .text
main:   la a0, name
        li a7, 4        # SysOpen
        syscall
        mv s0, a0       # fd
        mv a0, s0
        la a1, buf
        li a2, 8
        li a7, 3        # SysRead
        syscall
        li a0, 1
        la a1, buf
        li a2, 2
        li a7, 2
        syscall
        li a7, 1
        syscall
`, Config{Inputs: map[string][]byte{"data.txt": []byte("OK")}}, nil)
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	if got := string(m.Output(1)); got != "OK" {
		t.Errorf("read from named input = %q", got)
	}
}

func TestOpenMissingReturnsError(t *testing.T) {
	_, res := runSrc(t, `
        .data
name:   .asciiz "nope"
        .text
main:   la a0, name
        li a7, 4
        syscall
        li a7, 1        # exit(fd) -> -1
        syscall
`, Config{}, nil)
	if res.ExitCode != -1 {
		t.Errorf("open missing = %d; want -1", res.ExitCode)
	}
}

func TestSbrk(t *testing.T) {
	_, res := runSrc(t, `
main:   li a0, 4096
        li a7, 6        # SysSbrk
        syscall
        mv s0, a0       # old brk = heap base
        sw s0, (s0)     # store to newly mapped heap
        lw s1, (s0)
        sub a0, s0, s1  # 0 if round-trip worked
        li a7, 1
        syscall
`, Config{}, nil)
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	if res.ExitCode != 0 {
		t.Errorf("heap round trip failed: %d", res.ExitCode)
	}
}

func TestTimeIsVirtualAndMonotonic(t *testing.T) {
	_, res := runSrc(t, `
main:   li a7, 7
        syscall
        mv s0, a0
        li a7, 7
        syscall
        bgt a0, s0, ok
        li a0, 1
        li a7, 1
        syscall
ok:     li a0, 0
        li a7, 1
        syscall
`, Config{}, nil)
	if res.ExitCode != 0 {
		t.Error("time went backwards")
	}
}

func TestSpawnAndSharedMemory(t *testing.T) {
	// Main spawns a worker that increments a shared counter 100 times with
	// amoadd; main spins until it observes 100.
	h := &hookLog{}
	_, res := runSrc(t, `
        .data
ctr:    .word 0
        .text
main:   la   a0, worker
        li   a1, 0
        li   a7, 8          # SysSpawn
        syscall
wait:   la   t0, ctr
        lw   t1, (t0)
        li   t2, 100
        blt  t1, t2, wait
        li   a0, 0
        li   a7, 1
        syscall

worker: la   t0, ctr
        li   t1, 0
wloop:  li   t3, 1
        amoadd t2, t3, (t0)
        addi t1, t1, 1
        li   t4, 100
        blt  t1, t4, wloop
        li   a0, 0
        li   a7, 1
        syscall
`, Config{Cores: 2}, h)
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
	if len(h.starts) != 2 {
		t.Errorf("thread starts = %v", h.starts)
	}
	if len(h.exits) != 2 {
		t.Errorf("thread exits = %v", h.exits)
	}
}

func TestSpawnExhaustion(t *testing.T) {
	_, res := runSrc(t, `
main:   la a0, main      # entry irrelevant
        li a7, 8
        syscall          # only 1 core: must fail
        li a7, 1
        syscall          # exit(-1)
`, Config{Cores: 1}, nil)
	if res.ExitCode != -1 {
		t.Errorf("spawn with no free core = %d; want -1", res.ExitCode)
	}
}

func TestThreadReturnViaSentinelExitsCleanly(t *testing.T) {
	h := &hookLog{}
	_, res := runSrc(t, `
main:   la   a0, worker
        li   a1, 7
        li   a7, 8
        syscall
        # spin briefly so the worker runs
        li   t0, 200
spin:   addi t0, t0, -1
        bnez t0, spin
        li   a0, 0
        li   a7, 1
        syscall
worker: ret              # returns to ExitSentinel
`, Config{Cores: 2}, h)
	if res.Crash != nil {
		t.Fatalf("sentinel return crashed the machine: %v", res.Crash)
	}
	found := false
	for _, tid := range h.exits {
		if tid == 1 {
			found = true
		}
	}
	if !found {
		t.Error("worker thread did not exit cleanly")
	}
}

func TestTimerInterruptHooks(t *testing.T) {
	h := &hookLog{}
	_, res := runSrc(t, `
main:   li t0, 1000
loop:   addi t0, t0, -1
        bnez t0, loop
        li a7, 1
        li a0, 0
        syscall
`, Config{TimerInterval: 100}, h)
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	timer := 0
	for _, k := range h.interrupts {
		if k == "timer" {
			timer++
		}
	}
	// ~2001 instructions / 100 ≈ 20 timer interrupts.
	if timer < 15 || timer > 25 {
		t.Errorf("timer interrupts = %d; want ≈20", timer)
	}
	if h.returns != len(h.interrupts) {
		// every interrupt (incl. final exit syscall which does not return)
		// except exit should return; exit has no return.
		if h.returns != len(h.interrupts)-1 {
			t.Errorf("returns = %d, interrupts = %d", h.returns, len(h.interrupts))
		}
	}
}

func TestDMACompletesAsynchronously(t *testing.T) {
	h := &hookLog{}
	m, res := runSrc(t, `
        .data
buf:    .space 8
        .text
main:   li a0, 0
        la a1, buf
        li a2, 8
        li a7, 10        # SysDMARead
        syscall
        mv s0, a0        # scheduled bytes
        la t0, buf
        lb s1, (t0)      # immediately after: still zero (DMA in flight)
        li t1, 3000      # spin past DMA latency
dspin:  addi t1, t1, -1
        bnez t1, dspin
        lb s2, (t0)      # now the data must be there: 'X'
        mv a0, s2
        li a7, 1
        syscall
`, Config{Inputs: map[string][]byte{"stdin": []byte("XYZZYXYZ")}, DMALatency: 500}, h)
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	if res.ExitCode != 'X' {
		t.Errorf("post-DMA byte = %d; want %d", res.ExitCode, 'X')
	}
	if len(h.dmaWrites) != 1 {
		t.Errorf("dma writes = %v", h.dmaWrites)
	}
	_ = m
}

func TestCrashStopsEverything(t *testing.T) {
	h := &hookLog{}
	_, res := runSrc(t, `
main:   la  a0, worker
        li  a7, 8
        syscall
        lw  t0, (zero)    # crash main
worker: j   worker        # would spin forever
`, Config{Cores: 2}, h)
	if res.Crash == nil {
		t.Fatal("no crash recorded")
	}
	if res.Crash.TID != 0 || res.Crash.Fault.Cause != cpu.FaultMemRead {
		t.Errorf("crash = %+v", res.Crash)
	}
	if h.faults != 1 {
		t.Errorf("fault hooks = %d", h.faults)
	}
}

func TestMaxStepsBudget(t *testing.T) {
	_, res := runSrc(t, "main: j main\n", Config{MaxSteps: 5000}, nil)
	if res.Crash != nil {
		t.Fatal("runaway loop crashed instead of hitting budget")
	}
	if res.Steps < 5000 || res.Steps > 5100 {
		t.Errorf("steps = %d; want ≈5000", res.Steps)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
        .data
ctr:    .word 0
buf:    .space 32
        .text
main:   la   a0, worker
        li   a7, 8
        syscall
        li   a0, 0
        la   a1, buf
        li   a2, 32
        li   a7, 3
        syscall
        la   t0, ctr
mwait:  lw   t1, (t0)
        li   t2, 50
        blt  t1, t2, mwait
        li   a7, 7
        syscall
        mv   s0, a0
        li   a0, 0
        li   a7, 1
        syscall
worker: la   t0, ctr
        li   t1, 0
wl:     li   t3, 1
        amoadd t2, t3, (t0)
        addi t1, t1, 1
        li   t4, 50
        blt  t1, t4, wl
        li   a0, 0
        li   a7, 1
        syscall
`
	cfg := Config{Cores: 2, TimerInterval: 64,
		Inputs: map[string][]byte{"stdin": []byte("deterministic-input")}}
	img := asm.MustAssemble("d.s", src)
	run := func() (uint64, uint64) {
		m := New(img, cfg, nil)
		res := m.Run()
		if res.Crash != nil {
			t.Fatalf("crash: %v", res.Crash)
		}
		return res.Steps, res.Instructions
	}
	s1, i1 := run()
	s2, i2 := run()
	if s1 != s2 || i1 != i2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", s1, i1, s2, i2)
	}
}

// orderedHooks records the relative order of pre-write and post-write
// callbacks, which undo-logging recorders depend on: the pre hook must see
// memory *before* the kernel's copy lands.
type orderedHooks struct {
	NopHooks
	m       *Machine
	events  []string
	preVal  byte
	postVal byte
	addr    uint32
}

func (h *orderedHooks) OnKernelPreWrite(tid int, addr uint32, n uint32) {
	h.events = append(h.events, "pre")
	h.preVal, _ = h.m.Mem.LoadByte(addr)
	h.addr = addr
}

func (h *orderedHooks) OnKernelWrite(tid int, addr uint32, n uint32) {
	h.events = append(h.events, "post")
	h.postVal, _ = h.m.Mem.LoadByte(addr)
}

func TestKernelPreWriteHookSeesOldMemory(t *testing.T) {
	img, err := asm.Assemble("k.s", `
        .data
buf:    .space 8
        .text
main:   la  t0, buf
        li  t1, 0x55
        sb  t1, (t0)      # buf[0] = 0x55 before the read
        li  a0, 0
        la  a1, buf
        li  a2, 8
        li  a7, 3         # read overwrites buf with 'Z...'
        syscall
        li  a7, 1
        syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	h := &orderedHooks{}
	m := New(img, Config{Inputs: map[string][]byte{"stdin": []byte("ZZZZZZZZ")}}, h)
	h.m = m
	res := m.Run()
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	if len(h.events) != 2 || h.events[0] != "pre" || h.events[1] != "post" {
		t.Fatalf("hook order = %v", h.events)
	}
	if h.preVal != 0x55 {
		t.Errorf("pre-write hook saw %#x; want the old 0x55", h.preVal)
	}
	if h.postVal != 'Z' {
		t.Errorf("post-write hook saw %#x; want the new 'Z'", h.postVal)
	}
}

func TestDMAPreWriteHookOrdering(t *testing.T) {
	img, err := asm.Assemble("k.s", `
        .data
buf:    .space 8
        .text
main:   li  a0, 0
        la  a1, buf
        li  a2, 8
        li  a7, 10        # dma_read
        syscall
        li  t0, 500
w:      addi t0, t0, -1
        bnez t0, w
        li  a7, 1
        syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	h := &orderedHooks{}
	m := New(img, Config{Inputs: map[string][]byte{"stdin": []byte("YYYYYYYY")}, DMALatency: 50}, h)
	h.m = m
	// Redirect the DMA hooks into the same recorder fields.
	res := m.Run()
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
}

// pauseLog records every callback by name, so a test can see where OnPause
// falls among them.
type pauseLog struct {
	NopHooks
	events []string
}

func (h *pauseLog) OnThreadExit(int)            { h.events = append(h.events, "exit") }
func (h *pauseLog) OnFault(int, *cpu.FaultInfo) { h.events = append(h.events, "fault") }
func (h *pauseLog) OnPause()                    { h.events = append(h.events, "pause") }

// panicOnExit is a pauseLog whose OnThreadExit panics.
type panicOnExit struct{ pauseLog }

func (h *panicOnExit) OnThreadExit(int) {
	h.events = append(h.events, "exit")
	panic("hook failed")
}

// TestOnPauseEndsEveryRun: OnPause fires exactly once as Run returns,
// after every other callback of that Run, whether the program exited,
// crashed or ran out of steps — and again for a Run that resumes a
// machine the step budget stopped. A Run that a panicking hook unwinds
// fires it too, before the caller recovers.
func TestOnPauseEndsEveryRun(t *testing.T) {
	cases := []struct {
		name, src string
		steps     uint64
		want      []string
	}{
		{"exit", "li a0, 0\nli a7, 1\nsyscall\n", 0, []string{"exit", "pause"}},
		{"crash", "lui t0, 0x7f00\nlw a0, 0(t0)\n", 0, []string{"fault", "pause"}},
		{"step budget", "spin: j spin\n", 100, []string{"pause"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &pauseLog{}
			m, _ := runSrc(t, tc.src, Config{MaxSteps: tc.steps}, h)
			if !slices.Equal(h.events, tc.want) {
				t.Fatalf("callbacks %v, want %v", h.events, tc.want)
			}
			m.SetMaxSteps(tc.steps + 100)
			m.Run()
			if got := h.events[len(h.events)-1]; len(h.events) != len(tc.want)+1 || got != "pause" {
				t.Fatalf("resumed Run: callbacks %v, want one more pause", h.events)
			}
		})
	}
	t.Run("hook panics", func(t *testing.T) {
		h := &panicOnExit{}
		func() {
			defer func() {
				if p := recover(); p != "hook failed" {
					t.Fatalf("recovered %v, want the hook's panic", p)
				}
			}()
			runSrc(t, "li a0, 0\nli a7, 1\nsyscall\n", Config{}, h)
		}()
		if !slices.Equal(h.events, []string{"exit", "pause"}) {
			t.Fatalf("callbacks %v, want exit then pause", h.events)
		}
	})
}
