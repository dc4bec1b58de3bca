package bugnet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bugnet/internal/triage"
	"bugnet/internal/workload"
)

// TestRecordSubmitTriageRoundTrip is the full fleet pipeline of paper
// §4.8 in one test: record a Table 1 bug analogue crashing, pack the
// report into a single archive, upload it to an in-process bugnet-serve
// handler, and check that automatic triage replays the window and
// reproduces the crash — same fault cause, same faulting PC. A second
// upload of the same report must deduplicate into the existing bucket
// (count=2) while storing one payload.
func TestRecordSubmitTriageRoundTrip(t *testing.T) {
	const scale = 100
	b := workload.BugByName("gzip", scale)
	if b == nil {
		t.Fatal("gzip analogue missing")
	}

	// Customer site: the recorder observes the crash.
	kcfg := b.Kernel
	kcfg.MaxSteps = 10_000_000
	res, rep, _ := Record(b.Image, kcfg, Config{IntervalLength: 50_000})
	if res.Crash == nil {
		t.Fatal("gzip analogue did not crash")
	}
	blob, err := PackReport(rep)
	if err != nil {
		t.Fatalf("PackReport: %v", err)
	}

	// Developer side: a triage service provisioned with the fleet's
	// binaries, behind the real HTTP handler.
	reg := triage.NewImageRegistry()
	for _, bug := range workload.Bugs(scale) {
		reg.Register(bug.Image)
	}
	svc, err := triage.New(triage.Config{Dir: t.TempDir(), Workers: 2, Resolver: reg.Resolve})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(triage.NewHandler(svc))
	defer srv.Close()

	upload := func() triage.IngestResult {
		resp, err := http.Post(srv.URL+"/api/v1/reports", "application/octet-stream", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ing triage.IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
			t.Fatal(err)
		}
		return ing
	}

	first := upload()
	if first.Duplicate {
		t.Fatal("first upload marked duplicate")
	}
	if first.ID != ReportID(blob) {
		t.Errorf("server id %s, content address %s", first.ID, ReportID(blob))
	}
	second := upload()
	if !second.Duplicate || second.ID != first.ID || second.BucketKey != first.BucketKey {
		t.Fatalf("second upload: %+v vs %+v", second, first)
	}

	svc.WaitIdle()

	// The triage verdict must reproduce the recorded crash exactly.
	m, ok := svc.Report(first.ID)
	if !ok || m.Verdict == nil {
		t.Fatalf("no verdict for %s", first.ID)
	}
	v := m.Verdict
	if v.State != triage.VerdictDone {
		t.Fatalf("verdict state %q (error %q)", v.State, v.Error)
	}
	if !v.Reproduced || !v.MatchesReported {
		t.Fatalf("crash not reproduced: %+v", v)
	}
	if v.PC != res.Crash.Fault.PC {
		t.Errorf("triage pc %#x, recorded %#x", v.PC, res.Crash.Fault.PC)
	}
	if v.Cause != res.Crash.Fault.Cause.String() {
		t.Errorf("triage cause %q, recorded %q", v.Cause, res.Crash.Fault.Cause)
	}
	if len(v.Backtrace) == 0 || v.Backtrace[len(v.Backtrace)-1].PC != res.Crash.Fault.PC {
		t.Errorf("backtrace does not end at the faulting instruction: %+v", v.Backtrace)
	}

	// Deduplication: one bucket with count 2, one stored payload.
	buckets := svc.Buckets()
	if len(buckets) != 1 {
		t.Fatalf("%d buckets, want 1", len(buckets))
	}
	if buckets[0].Count != 2 {
		t.Errorf("bucket count %d, want 2", buckets[0].Count)
	}
	if st := svc.Store().Stats(); st.RetainedCount != 1 {
		t.Errorf("store retained %d payloads, want 1", st.RetainedCount)
	}
}

// TestPackReportFacadeRoundTrip covers the façade re-export with a
// multithreaded report so MRLs cross the archive boundary too.
func TestPackReportFacadeRoundTrip(t *testing.T) {
	const scale = 100
	var mt *workload.BugApp
	for _, b := range workload.Bugs(scale) {
		if b.Multithreaded {
			mt = b
			break
		}
	}
	if mt == nil {
		t.Skip("no multithreaded analogue")
	}
	kcfg := mt.Kernel
	kcfg.MaxSteps = 10_000_000
	res, rep, _ := Record(mt.Image, kcfg, Config{IntervalLength: 50_000})
	if res.Crash == nil {
		t.Fatalf("%s did not crash", mt.Name)
	}
	blob, err := PackReport(rep)
	if err != nil {
		t.Fatalf("PackReport: %v", err)
	}
	got, err := UnpackReport(blob)
	if err != nil {
		t.Fatalf("UnpackReport: %v", err)
	}
	if len(got.FLLs) != len(rep.FLLs) || len(got.MRLs) != len(rep.MRLs) {
		t.Fatalf("thread sets differ: %d/%d FLL, %d/%d MRL threads",
			len(got.FLLs), len(rep.FLLs), len(got.MRLs), len(rep.MRLs))
	}
	// The unpacked multithreaded report must replay to the same crash.
	out, err := NewMultiReplayer(mt.Image, got).Run()
	if err != nil {
		t.Fatalf("multi replay of unpacked report: %v", err)
	}
	crash := out.Threads[res.Crash.TID]
	if crash == nil || crash.Fault == nil || crash.Fault.PC != res.Crash.Fault.PC {
		t.Fatalf("replayed fault %+v, recorded pc %#x", crash, res.Crash.Fault.PC)
	}
}
