package bugnet

import (
	"os"
	"path/filepath"
	"testing"

	"bugnet/internal/report"
)

// openPacked writes rep to an archive file the way bugnet-record does and
// reads it back the way the report CLIs do.
func openPacked(t *testing.T, rep *CrashReport) *CrashReport {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.bnar")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := PackReportTo(f, rep); err != nil {
		t.Fatalf("PackReportTo: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := report.OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	return a.Report()
}

func TestSaveLoadReportCrashMetadata(t *testing.T) {
	img, err := Assemble("demo.s", demoSource)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	res, rep, _ := Record(img, MachineConfig{}, Config{IntervalLength: 16})
	if res.Crash == nil {
		t.Fatal("demo program did not crash")
	}
	got := openPacked(t, rep)
	if got.Crash == nil {
		t.Fatal("crash metadata lost")
	}
	g, w := got.Crash.Fault, rep.Crash.Fault
	if got.Crash.TID != rep.Crash.TID || g.Cause != w.Cause || g.PC != w.PC ||
		g.Addr != w.Addr || g.IC != w.IC {
		t.Errorf("crash fault round trip: got %+v want %+v", g, w)
	}
	if got.Binary != rep.Binary {
		t.Errorf("binary id round trip: got %+v want %+v", got.Binary, rep.Binary)
	}
}

func TestSaveReportCleanRun(t *testing.T) {
	img, err := Assemble("clean.s", "main: li a0, 0\n  li a7, 1\n  syscall\n")
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	_, rep, _ := Record(img, MachineConfig{}, Config{IntervalLength: 16})
	if got := openPacked(t, rep); got.Crash != nil {
		t.Errorf("clean run grew a crash record: %+v", got.Crash)
	}
}
