// Package bugnet is a full reimplementation of the BugNet architecture
// (Narayanasamy, Pokam, Calder — ISCA 2005) for deterministic replay
// debugging, together with the simulated machine it records, the FDR
// baseline it is compared against, and the harness regenerating every
// table and figure of the paper's evaluation.
//
// # Quick start
//
// The package's Examples are the quick start; go test checks each one's
// output. Example records a crash, replays it to the faulting
// instruction, verifies the replay and packs the report for upload;
// ExampleNewMultiReplayer detects a data race across two replayed
// threads; ExampleNewDebugger breaks, seeks and reads memory in a
// recorded window.
//
// The package is a façade over the internal packages: internal/core holds
// the recorder and replayers (the paper's contribution), internal/kernel
// the guest machine and OS, internal/fdr the Flight Data Recorder
// baseline, and internal/bench the experiment harness. See DESIGN.md for
// the system inventory; ROADMAP.md item 2 plans the measured-vs-paper
// results file.
package bugnet

import (
	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu"
	"bugnet/internal/kernel"
	"bugnet/internal/timetravel"
	"bugnet/internal/workload"
)

// Core types, re-exported for a single-import experience.
type (
	// Config parameterizes the BugNet recorder (checkpoint interval,
	// dictionary size, cache geometry, log budgets, extensions).
	Config = core.Config
	// Recorder is the attached BugNet hardware model.
	Recorder = core.Recorder
	// CrashReport is the set of logs shipped back to the developer.
	CrashReport = core.CrashReport
	// Replayer deterministically re-executes one thread from its logs.
	Replayer = core.Replayer
	// ReplayResult summarizes a replay.
	ReplayResult = core.ReplayResult
	// MultiReplayer replays all threads and reconstructs their
	// interleaving from the Memory Race Logs.
	MultiReplayer = core.MultiReplayer
	// MultiReplayResult summarizes a multithreaded replay.
	MultiReplayResult = core.MultiReplayResult
	// Race is an inferred data race.
	Race = core.Race
	// BinaryID identifies the exact binary a report was recorded from.
	BinaryID = core.BinaryID
	// TraceEntry is one instruction of a verification trace.
	TraceEntry = core.TraceEntry
	// Debugger navigates a recorded window interactively: breakpoints,
	// watchpoints, stepping, checkpointed time travel (SeekTo,
	// ReverseStep, ReverseContinue), and inspection of touched memory.
	Debugger = timetravel.Engine
	// StopReason tells why the debugger returned control.
	StopReason = timetravel.StopReason

	// Image is an assembled guest program.
	Image = asm.Image
	// MachineConfig parameterizes the guest machine and OS.
	MachineConfig = kernel.Config
	// Machine is the simulated multiprocessor.
	Machine = kernel.Machine
	// Result summarizes a completed run.
	Result = kernel.Result
	// CrashInfo identifies a crash.
	CrashInfo = kernel.CrashInfo
	// FaultInfo describes an architectural fault.
	FaultInfo = cpu.FaultInfo
	// FaultCause classifies an architectural fault.
	FaultCause = cpu.FaultCause

	// Workload is a packaged guest program with inputs.
	Workload = workload.Workload
	// BugApp is one of the Table 1 bug analogues.
	BugApp = workload.BugApp
)

// ErrDiverged reports that a replay failed to reproduce its recording.
var ErrDiverged = core.ErrDiverged

// Debugger stop reasons. With watchpoints set or when moving backwards a
// Debugger also stops for "watchpoint" and "start-of-window"; those two
// are told apart by StopReason.String.
const (
	StopStep  = timetravel.StopStep  // requested step count exhausted
	StopBreak = timetravel.StopBreak // hit a breakpoint
	StopEnd   = timetravel.StopEnd   // reached the end of the recorded window
)

// Assemble builds a guest program from assembly source. The name is used
// in diagnostics.
func Assemble(name, source string) (*Image, error) {
	return asm.Assemble(name, source)
}

// Disassemble renders the instruction word at pc of an image, for crash
// reports and debugging output.
func Disassemble(img *Image, pc uint32) string {
	return img.DisassembleAt(pc)
}

// NewMachine builds a guest machine for the image.
func NewMachine(img *Image, cfg MachineConfig) *Machine {
	return kernel.New(img, cfg, nil)
}

// NewRecorder attaches a BugNet recorder to a machine. Call before
// Machine.Run (or after a warm-up Run to start recording mid-execution,
// as continuous recording does).
func NewRecorder(m *Machine, cfg Config) *Recorder {
	return core.NewRecorder(m, cfg)
}

// Record runs the image under a fresh machine and recorder and returns
// the run result, the crash report, and the recorder for statistics.
func Record(img *Image, mcfg MachineConfig, rcfg Config) (*Result, *CrashReport, *Recorder) {
	return core.Record(img, mcfg, rcfg)
}

// NewReplayer builds a single-thread replayer over the log views of one
// thread (report.FLLs[tid]); only the interval currently replaying is held
// decoded.
func NewReplayer(img *Image, logs []*FLLRef) *Replayer {
	return core.NewReplayer(img, logs)
}

// NewReplayerLogs replays logs built in memory (tests, synthetic windows);
// each is encoded once and replayed from its bytes.
func NewReplayerLogs(img *Image, logs []*FLL) *Replayer {
	return core.NewReplayerLogs(img, logs)
}

// NewMultiReplayer builds a replayer over every thread of a report, with
// MRL-driven ordering reconstruction and optional race detection.
func NewMultiReplayer(img *Image, report *CrashReport) *MultiReplayer {
	return core.NewMultiReplayer(img, report)
}

// VerifyReplay replays every thread of the recorder's report and checks
// instruction-exact equivalence against the recorded execution. Requires
// Config.TraceDepth > 0.
func VerifyReplay(img *Image, rec *Recorder) error {
	return core.VerifyReplay(img, rec)
}

// IdentifyBinary computes the identity of an image, as stored in crash
// reports and verified before replay.
func IdentifyBinary(img *Image) BinaryID { return core.IdentifyBinary(img) }

// NewDebugger opens one thread of a crash report for interactive
// deterministic replay: breakpoints, stepping, backwards time travel, and
// inspection of every memory location the recorded window touched. The
// replay adopts the recording options the report carries (LogCodeLoads,
// DictOptions); tid < 0 selects the crashing thread. Its first Continue
// replays only the window's last interval; older history is replayed when
// a command first needs it (see timetravel.NewEngineForThread).
func NewDebugger(img *Image, report *CrashReport, tid int) (*Debugger, error) {
	d, _, err := timetravel.NewEngineForThread(img, report, tid, timetravel.Config{})
	return d, err
}

// SPECWorkloads returns the seven SPEC 2000 analogues used by the paper's
// evaluation.
func SPECWorkloads() []*Workload { return workload.SPEC() }

// BugWorkloads returns the eighteen Table 1 bug analogues; scale divides
// the engineered root-cause-to-crash windows (1 = the paper's absolute
// sizes).
func BugWorkloads(scale int) []*BugApp { return workload.Bugs(scale) }
