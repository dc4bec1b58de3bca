// Package kernel implements the guest operating system and machine model
// that hosts recorded programs.
//
// BugNet explicitly does not record what happens inside the operating
// system: interrupts, system calls and DMA transfers mutate user memory
// behind the application's back, and the whole point of first-load logging
// is that those mutations are captured for free when the application next
// loads the affected words (paper §4.4, §4.5). To demonstrate that, the
// substrate must actually have an OS that mutates memory behind the
// program's back. This package provides it:
//
//   - a Machine with up to Config.Cores hardware threads over one shared
//     memory, interleaved deterministically (sequential consistency);
//   - system calls (exit/write/read/open/brk/sbrk/time/spawn/yield/
//     dma_read/threadid) whose results are written into user memory by
//     host code, invisible to the recorded instruction stream;
//   - timer interrupts every Config.TimerInterval instructions per thread,
//     modelling the interrupts and context switches of §4.4;
//   - an asynchronous DMA engine that completes transfers many cycles
//     after the initiating syscall returned (§4.5);
//   - fault capture that freezes the machine and reports the crash, the
//     trigger for BugNet's log dump (§4.8).
//
// Recorders observe the machine through the Hooks interface plus the
// per-CPU hooks on each thread's cpu.CPU. Everything is deterministic: the
// same program, inputs and config produce bit-identical executions.
package kernel

import (
	"bytes"
	"fmt"

	"bugnet/internal/asm"
	"bugnet/internal/cpu"
	"bugnet/internal/isa"
	"bugnet/internal/mem"
)

// System call numbers (loaded into a7 before SYSCALL).
const (
	SysExit     = 1  // a0 = exit code; ends the calling thread
	SysWrite    = 2  // a0 = fd, a1 = buf, a2 = len; returns bytes written
	SysRead     = 3  // a0 = fd, a1 = buf, a2 = len; returns bytes read, 0 at EOF
	SysOpen     = 4  // a0 = pathname (NUL-terminated); returns fd or -1
	SysBrk      = 5  // a0 = new break or 0 to query; returns current break
	SysSbrk     = 6  // a0 = increment; returns previous break, maps pages
	SysTime     = 7  // returns the global machine step count (virtual time)
	SysSpawn    = 8  // a0 = entry pc, a1 = argument; returns new thread id or -1
	SysYield    = 9  // relinquish the scheduling quantum
	SysDMARead  = 10 // a0 = fd, a1 = buf, a2 = len; schedules an async DMA copy
	SysThreadID = 11 // returns the calling thread's id
)

// ExitSentinel is the return address installed for spawned threads; a
// fetch fault there is interpreted as clean thread termination rather than
// a crash.
const ExitSentinel uint32 = 0xDEAD0000

// InterruptKind classifies why control entered the kernel.
type InterruptKind uint8

// Interrupt kinds.
const (
	IntSyscall InterruptKind = iota // synchronous trap (paper: "traps")
	IntTimer                        // asynchronous timer/context-switch interrupt
)

func (k InterruptKind) String() string {
	if k == IntSyscall {
		return "syscall"
	}
	return "timer"
}

// Hooks is the observation interface recorders implement. All methods are
// called synchronously from the machine's single-goroutine run loop. A nil
// Hooks disables observation.
//
// A recorder may keep work of its own running beside the loop while Run is
// executing (core.Recorder's log stage does), but OnPause is the last call
// of every Run: once it returns, the recorder must have settled, so state
// read between Run calls is complete.
type Hooks interface {
	// OnInterrupt fires when thread tid enters the kernel (checkpoint
	// intervals terminate here, paper §4.4).
	OnInterrupt(tid int, kind InterruptKind)
	// OnInterruptReturn fires when control returns to user code in tid (a
	// new checkpoint interval starts here).
	OnInterruptReturn(tid int)
	// OnKernelPreWrite fires immediately before the kernel writes n bytes
	// at addr into user memory. FDR-style undo logging captures pre-images
	// here; BugNet needs only the post-write notification.
	OnKernelPreWrite(tid int, addr uint32, n uint32)
	// OnKernelWrite fires after the kernel wrote n bytes at addr into user
	// memory on behalf of tid (syscall results).
	OnKernelWrite(tid int, addr uint32, n uint32)
	// OnDMAPreWrite fires immediately before a DMA completion writes n
	// bytes at addr.
	OnDMAPreWrite(addr uint32, n uint32)
	// OnDMAWrite fires after the DMA engine wrote n bytes at addr,
	// asynchronously to all threads.
	OnDMAWrite(addr uint32, n uint32)
	// OnThreadStart fires when a thread becomes runnable (including the
	// initial thread).
	OnThreadStart(tid int)
	// OnThreadExit fires when a thread terminates cleanly.
	OnThreadExit(tid int)
	// OnFault fires when a thread faults; the machine halts afterwards.
	OnFault(tid int, f *cpu.FaultInfo)
	// OnPause fires as Run returns, however it ended: exit, crash, the
	// step budget, or a panic unwinding through Run.
	OnPause()
}

// NopHooks implements Hooks with no-ops; embed it to implement only the
// callbacks a recorder cares about.
type NopHooks struct{}

// OnInterrupt implements Hooks.
func (NopHooks) OnInterrupt(int, InterruptKind) {}

// OnInterruptReturn implements Hooks.
func (NopHooks) OnInterruptReturn(int) {}

// OnKernelPreWrite implements Hooks.
func (NopHooks) OnKernelPreWrite(int, uint32, uint32) {}

// OnKernelWrite implements Hooks.
func (NopHooks) OnKernelWrite(int, uint32, uint32) {}

// OnDMAPreWrite implements Hooks.
func (NopHooks) OnDMAPreWrite(uint32, uint32) {}

// OnDMAWrite implements Hooks.
func (NopHooks) OnDMAWrite(uint32, uint32) {}

// OnThreadStart implements Hooks.
func (NopHooks) OnThreadStart(int) {}

// OnThreadExit implements Hooks.
func (NopHooks) OnThreadExit(int) {}

// OnFault implements Hooks.
func (NopHooks) OnFault(int, *cpu.FaultInfo) {}

// OnPause implements Hooks.
func (NopHooks) OnPause() {}

// Config parameterizes a Machine.
type Config struct {
	// Cores bounds the number of simultaneously live threads. Default 1.
	Cores int
	// TimerInterval delivers a timer interrupt to each thread every this
	// many committed instructions. 0 disables the timer.
	TimerInterval uint64
	// Quantum is the number of instructions a thread runs before the
	// scheduler rotates. Default 32.
	Quantum int
	// DMALatency is the number of global steps between a dma_read syscall
	// and its completion. Default 2000.
	DMALatency uint64
	// MaxSteps aborts runaway programs. Default 2^40.
	MaxSteps uint64
	// Inputs maps pathnames to file contents for SysOpen. The special
	// name "stdin" is pre-opened as fd 0.
	Inputs map[string][]byte
}

func (c *Config) fillDefaults() {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.Quantum <= 0 {
		c.Quantum = 32
	}
	if c.DMALatency == 0 {
		c.DMALatency = 2000
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1 << 40
	}
}

// ThreadState describes a thread slot.
type ThreadState uint8

// Thread states.
const (
	ThreadFree ThreadState = iota
	ThreadRunnable
	ThreadExited
)

// Thread is one hardware context.
type Thread struct {
	ID    int
	CPU   *cpu.CPU
	State ThreadState

	// nextTimer is the per-thread IC at which the next timer interrupt
	// fires.
	nextTimer uint64
}

// stream is an open file description.
type stream struct {
	data []byte
	pos  int
}

type dmaOp struct {
	addr       uint32
	data       []byte
	completeAt uint64
}

// CrashInfo describes the fault that stopped the machine.
type CrashInfo struct {
	TID   int
	Fault *cpu.FaultInfo
}

func (c *CrashInfo) Error() string {
	return fmt.Sprintf("thread %d: %v", c.TID, c.Fault)
}

// Result summarizes a completed run.
type Result struct {
	// Crash is non-nil if the program faulted.
	Crash *CrashInfo
	// ExitCode is the a0 of the first SysExit from thread 0.
	ExitCode int32
	// Steps is the total number of global machine steps.
	Steps uint64
	// Instructions is the total committed instruction count over all
	// threads.
	Instructions uint64
}

// Machine is the simulated multiprocessor plus its kernel.
type Machine struct {
	Mem     *mem.Memory
	Img     *asm.Image
	Threads []*Thread

	cfg   Config
	hooks Hooks
	// code is the first core started, whose block cache every later core
	// decodes into: a store on any core may rewrite code another runs.
	code *cpu.CPU

	steps    uint64
	brk      uint32
	fds      map[int]*stream
	nextFD   int
	outputs  map[int]*bytes.Buffer
	pending  []dmaOp
	alive    int
	exitCode int32
	crash    *CrashInfo

	// sched is the round-robin cursor.
	sched int
	// started records that Run has begun (thread 0 launched).
	started bool

	// running/runBaseIC identify the thread currently inside a batched
	// cpu.Run call and its instruction count when the batch began, so Now
	// stays per-instruction accurate for hooks that fire mid-batch (steps
	// is only folded forward when the batch returns).
	running   *Thread
	runBaseIC uint64
}

// New creates a machine, loads the image, and prepares thread 0 at the
// image entry point.
func New(img *asm.Image, cfg Config, hooks Hooks) *Machine {
	cfg.fillDefaults()
	m := &Machine{
		Mem:     mem.New(),
		Img:     img,
		cfg:     cfg,
		hooks:   hooks,
		fds:     make(map[int]*stream),
		outputs: map[int]*bytes.Buffer{1: {}, 2: {}},
		nextFD:  3,
	}
	// Load segments.
	if len(img.Text) > 0 {
		m.Mem.Map(img.TextBase, uint32(len(img.Text)))
		if err := m.Mem.StoreBytes(img.TextBase, img.Text); err != nil {
			panic(err)
		}
	}
	if len(img.Data) > 0 {
		m.Mem.Map(img.DataBase, uint32(len(img.Data)))
		if err := m.Mem.StoreBytes(img.DataBase, img.Data); err != nil {
			panic(err)
		}
	}
	// Program break starts page-aligned after the data segment.
	end := img.DataBase + uint32(len(img.Data))
	m.brk = (end + mem.PageSize - 1) &^ (mem.PageSize - 1)

	// Pre-open stdin.
	if in, ok := cfg.Inputs["stdin"]; ok {
		m.fds[0] = &stream{data: in}
	} else {
		m.fds[0] = &stream{}
	}

	// Thread slots. Thread 0 starts lazily on the first Run call so that a
	// recorder can attach via SetHooks and observe OnThreadStart(0).
	m.Threads = make([]*Thread, cfg.Cores)
	for i := range m.Threads {
		m.Threads[i] = &Thread{ID: i, State: ThreadFree}
	}
	return m
}

// SetHooks installs the observation hooks. Attaching to an
// already-running machine is allowed — BugNet records continuously, and
// experiments attach a recorder after a warm-up phase; the caller (see
// core.NewRecorder) is responsible for treating already-live threads as
// newly started.
func (m *Machine) SetHooks(h Hooks) {
	m.hooks = h
}

// Started reports whether Run has launched thread 0.
func (m *Machine) Started() bool { return m.started }

// SetMaxSteps raises (or lowers) the step budget, so a machine stopped by
// the budget can be resumed with another Run call.
func (m *Machine) SetMaxSteps(n uint64) { m.cfg.MaxSteps = n }

// startThread initializes slot tid and makes it runnable.
func (m *Machine) startThread(tid int, entry, arg, stackTop, stackSize uint32) {
	m.Mem.Map(stackTop-stackSize, stackSize)
	c := cpu.New(m.Mem)
	if m.code == nil {
		m.code = c
	} else {
		c.ShareCode(m.code)
	}
	c.PC = entry
	c.Regs[isa.RegSP] = stackTop
	c.Regs[isa.RegA0] = arg
	c.Regs[isa.RegRA] = ExitSentinel
	c.Regs[isa.RegTP] = uint32(tid)
	th := m.Threads[tid]
	th.CPU = c
	th.State = ThreadRunnable
	if m.cfg.TimerInterval > 0 {
		th.nextTimer = m.cfg.TimerInterval
	}
	m.alive++
	if m.hooks != nil {
		m.hooks.OnThreadStart(tid)
	}
}

// Now returns the global step counter — the machine's deterministic clock,
// used for SysTime and FLL/MRL timestamps. Inside a batched cpu.Run the
// committed instructions of the batch are counted live, so recorder hooks
// observe exactly the step they would have with one instruction per batch.
func (m *Machine) Now() uint64 {
	if m.running != nil {
		return m.steps + (m.running.CPU.IC - m.runBaseIC)
	}
	return m.steps
}

// Output returns everything the program wrote to the given fd (1=stdout,
// 2=stderr).
func (m *Machine) Output(fd int) []byte {
	b := m.outputs[fd]
	if b == nil {
		return nil
	}
	return b.Bytes()
}

// Crash returns the crash info if the machine has faulted.
func (m *Machine) Crash() *CrashInfo { return m.crash }

// Run executes until the program exits, crashes, or exceeds MaxSteps.
func (m *Machine) Run() *Result {
	if m.hooks != nil {
		defer m.hooks.OnPause()
	}
	if !m.started {
		m.started = true
		m.startThread(0, m.Img.Entry, 0, mem.StackTop, mem.DefaultStackSize)
	}
	for m.alive > 0 && m.crash == nil && m.steps < m.cfg.MaxSteps {
		th := m.pickThread()
		if th == nil {
			break
		}
		m.runQuantum(th)
	}
	res := &Result{
		Crash:    m.crash,
		ExitCode: m.exitCode,
		Steps:    m.steps,
	}
	for _, th := range m.Threads {
		if th.CPU != nil {
			res.Instructions += th.CPU.IC
		}
	}
	return res
}

// pickThread returns the next runnable thread round-robin, or nil.
func (m *Machine) pickThread() *Thread {
	n := len(m.Threads)
	for i := 0; i < n; i++ {
		th := m.Threads[(m.sched+i)%n]
		if th.State == ThreadRunnable {
			m.sched = (th.ID + 1) % n
			return th
		}
	}
	return nil
}

// runQuantum runs one thread for up to Quantum instructions through the
// predecoded block engine (cpu.Run), servicing timer interrupts, syscalls
// and DMA completions.
//
// Each batch is bounded so that no machine event can fall inside it: the
// quantum remainder, the step budget, the thread's next timer interrupt,
// and the earliest pending DMA completion. Within those bounds the batched
// execution is step-for-step identical to running one instruction per
// batch — timers fire on the exact instruction boundary and DMA
// completions land on the exact global step — so recorded logs do not
// depend on batch sizes.
func (m *Machine) runQuantum(th *Thread) {
	for q := 0; q < m.cfg.Quantum && th.State == ThreadRunnable && m.crash == nil; {
		if m.steps >= m.cfg.MaxSteps {
			return
		}
		batch := uint64(m.cfg.Quantum - q)
		if left := m.cfg.MaxSteps - m.steps; left < batch {
			batch = left
		}
		if th.nextTimer != 0 {
			if th.CPU.IC >= th.nextTimer {
				// Overdue (a syscall ended the previous quantum past the
				// mark): the timer fires after one more committed
				// instruction, as the stepped loop did.
				batch = 1
			} else if dt := th.nextTimer - th.CPU.IC; dt < batch {
				batch = dt
			}
		}
		if next, ok := m.nextDMACompletion(); ok {
			if next <= m.steps {
				batch = 1
			} else if dt := next - m.steps; dt < batch {
				batch = dt
			}
		}
		m.running, m.runBaseIC = th, th.CPU.IC
		executed, ev := th.CPU.Run(batch)
		m.running = nil
		m.steps += executed
		q += int(executed)
		switch ev {
		case cpu.EventStep:
			m.dmaTick()
			if th.nextTimer != 0 && th.CPU.IC >= th.nextTimer {
				m.timerInterrupt(th)
			}
		case cpu.EventSyscall:
			m.dmaTick()
			m.syscall(th)
			return // syscall ends the quantum (the thread trapped)
		case cpu.EventFault:
			// The faulting instruction did not commit but its attempt
			// consumed a machine step, exactly as in the stepped loop.
			m.steps++
			m.dmaTick()
			m.handleFault(th)
			return
		case cpu.EventHalted:
			m.steps++
			m.dmaTick()
			return
		}
	}
}

// nextDMACompletion returns the earliest pending DMA completion step.
func (m *Machine) nextDMACompletion() (uint64, bool) {
	if len(m.pending) == 0 {
		return 0, false
	}
	next := m.pending[0].completeAt
	for _, op := range m.pending[1:] {
		if op.completeAt < next {
			next = op.completeAt
		}
	}
	return next, true
}

// invalidateFetch drops every live core's predecoded blocks covering the
// externally written range. Called after the kernel or the DMA engine
// writes user memory behind the cores' backs: predecoded blocks cache
// decoded content and nothing re-reads text under them, so they must be
// told when it may have changed. The range filter keeps writes into plain
// data buffers — nearly all of them — from flushing anything.
func (m *Machine) invalidateFetch(addr, n uint32) {
	for _, th := range m.Threads {
		if th.CPU != nil {
			th.CPU.InvalidateFetchRange(addr, n)
		}
	}
}

// timerInterrupt models an asynchronous interrupt / context switch: the
// kernel borrows the core, possibly dirtying kernel-managed user memory,
// and returns. The recorder sees interval termination and restart.
func (m *Machine) timerInterrupt(th *Thread) {
	if m.hooks != nil {
		m.hooks.OnInterrupt(th.ID, IntTimer)
	}
	th.nextTimer = th.CPU.IC + m.cfg.TimerInterval
	if m.hooks != nil {
		m.hooks.OnInterruptReturn(th.ID)
	}
}

// handleFault processes a CPU fault: either a clean thread exit through
// the exit sentinel, or a genuine crash that halts the whole machine (the
// OS kills the process and BugNet dumps its logs).
func (m *Machine) handleFault(th *Thread) {
	f := th.CPU.Fault
	if f.Cause == cpu.FaultMemFetch && f.PC == ExitSentinel {
		m.exitThread(th, th.CPU.Regs[isa.RegA0])
		return
	}
	m.crash = &CrashInfo{TID: th.ID, Fault: f}
	if m.hooks != nil {
		m.hooks.OnFault(th.ID, f)
	}
	// The OS terminates the whole process.
	for _, t := range m.Threads {
		if t.State == ThreadRunnable {
			t.State = ThreadExited
			t.CPU.Halted = true
		}
	}
	m.alive = 0
}

// exitThread retires a thread cleanly.
func (m *Machine) exitThread(th *Thread, code uint32) {
	if th.ID == 0 {
		m.exitCode = int32(code)
	}
	th.State = ThreadExited
	th.CPU.Halted = true
	m.alive--
	if m.hooks != nil {
		m.hooks.OnThreadExit(th.ID)
	}
}

// dmaTick completes due DMA transfers.
func (m *Machine) dmaTick() {
	if len(m.pending) == 0 {
		return
	}
	rest := m.pending[:0]
	for _, op := range m.pending {
		if op.completeAt > m.steps {
			rest = append(rest, op)
			continue
		}
		// The DMA engine writes straight to memory; a directory-based
		// coherence protocol invalidates cached copies (paper §4.5) —
		// recorders perform that invalidation in OnDMAWrite.
		if m.hooks != nil {
			m.hooks.OnDMAPreWrite(op.addr, uint32(len(op.data)))
		}
		if err := m.Mem.StoreBytes(op.addr, op.data); err == nil {
			m.invalidateFetch(op.addr, uint32(len(op.data)))
			if m.hooks != nil {
				m.hooks.OnDMAWrite(op.addr, uint32(len(op.data)))
			}
		}
	}
	m.pending = rest
}
