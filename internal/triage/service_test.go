package triage

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
	"bugnet/internal/timetravel"
)

const crashSource = `
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
        lw   t3, 12(t2)
boom:   lw   a0, (t3)
`

// recordBlob records the crash demo and returns its image, report, and
// packed archive.
func recordBlob(t testing.TB) (*asm.Image, *core.CrashReport, []byte) {
	t.Helper()
	img, err := asm.Assemble("crash.s", crashSource)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	res, rep, _ := core.Record(img, kernel.Config{}, core.Config{IntervalLength: 16})
	if res.Crash == nil {
		t.Fatal("program did not crash")
	}
	blob, err := report.Pack(rep)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return img, rep, blob
}

func newService(t testing.TB, reg *ImageRegistry) *Service {
	t.Helper()
	s, err := New(Config{Dir: t.TempDir(), Workers: 2, Resolver: reg.Resolve})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestIngestTriageVerdict(t *testing.T) {
	img, rep, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)

	res, err := s.Ingest(blob)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Duplicate {
		t.Error("first ingest marked duplicate")
	}
	s.WaitIdle()

	m, ok := s.Report(res.ID)
	if !ok {
		t.Fatal("report meta missing")
	}
	v := m.Verdict
	if v == nil || v.State != VerdictDone {
		t.Fatalf("verdict = %+v", v)
	}
	if !v.Reproduced || !v.MatchesReported {
		t.Errorf("crash did not reproduce: %+v", v)
	}
	if v.PC != rep.Crash.Fault.PC {
		t.Errorf("verdict pc %#x, recorded %#x", v.PC, rep.Crash.Fault.PC)
	}
	if len(v.Backtrace) == 0 {
		t.Error("no backtrace")
	} else {
		last := v.Backtrace[len(v.Backtrace)-1]
		if last.PC != rep.Crash.Fault.PC {
			t.Errorf("backtrace ends at %#x, want faulting pc %#x", last.PC, rep.Crash.Fault.PC)
		}
		if !strings.HasPrefix(last.Disasm, "lw") {
			t.Errorf("faulting instruction disassembles to %q", last.Disasm)
		}
	}
}

func TestIngestDeduplicatesIntoBucket(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)

	r1, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Duplicate || r2.ID != r1.ID || r2.BucketKey != r1.BucketKey {
		t.Fatalf("duplicate ingest: %+v vs %+v", r2, r1)
	}
	s.WaitIdle()

	bs := s.Buckets()
	if len(bs) != 1 {
		t.Fatalf("%d buckets, want 1", len(bs))
	}
	if bs[0].Count != 2 {
		t.Errorf("bucket count %d, want 2", bs[0].Count)
	}
	if len(bs[0].ReportIDs) != 1 {
		t.Errorf("bucket stores %d payload IDs, want 1", len(bs[0].ReportIDs))
	}
	if st := s.Store().Stats(); st.RetainedCount != 1 {
		t.Errorf("store retained %d payloads, want 1", st.RetainedCount)
	}
}

func TestIngestUnknownBinaryFailsTriage(t *testing.T) {
	_, _, blob := recordBlob(t)
	s := newService(t, NewImageRegistry()) // empty: nothing resolvable

	res, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	m, _ := s.Report(res.ID)
	if m.Verdict == nil || m.Verdict.State != VerdictFailed {
		t.Fatalf("verdict = %+v, want failed", m.Verdict)
	}
	if !strings.Contains(m.Verdict.Error, "no registered binary") {
		t.Errorf("error = %q", m.Verdict.Error)
	}
}

func TestIngestRejectsGarbage(t *testing.T) {
	s := newService(t, NewImageRegistry())
	if _, err := s.Ingest([]byte("not an archive")); err == nil {
		t.Fatal("garbage accepted")
	}
	if st := s.Store().Stats(); st.TotalCount != 0 {
		t.Error("garbage reached the store")
	}
}

func TestServiceRestartRecoversFromDisk(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	dir := t.TempDir()

	s1, err := New(Config{Dir: dir, Workers: 1, Resolver: reg.Resolve})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s1.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	s1.WaitIdle()
	s1.Close()

	s2, err := New(Config{Dir: dir, Workers: 1, Resolver: reg.Resolve})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.WaitIdle()
	m, ok := s2.Report(res.ID)
	if !ok {
		t.Fatal("restarted service lost the report")
	}
	if m.Verdict == nil || m.Verdict.State != VerdictDone || !m.Verdict.Reproduced {
		t.Fatalf("restarted verdict = %+v", m.Verdict)
	}
	if bs := s2.Buckets(); len(bs) != 1 || bs[0].Count != 1 {
		t.Fatalf("restarted buckets = %+v", bs)
	}
}

func TestRecoveryReclaimsUndecodableBlobs(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	dir := t.TempDir()

	s1, err := New(Config{Dir: dir, Workers: 1, Resolver: reg.Resolve})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s1.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	s1.WaitIdle()
	s1.Close()

	// A garbage file wearing a valid content-address name.
	fake := strings.Repeat("ab", 32)
	p := filepath.Join(dir, fake[:2], fake[2:4], fake+".bnar")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("not an archive"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Dir: dir, Workers: 1, Resolver: reg.Resolve})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.WaitIdle() // recovery runs in the background
	if s2.Store().Has(fake) {
		t.Error("undecodable blob survived recovery")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("undecodable blob file not reclaimed")
	}
	if !s2.Store().Has(good.ID) {
		t.Error("valid blob lost during recovery")
	}
}

func TestIngestAfterCloseFails(t *testing.T) {
	_, _, blob := recordBlob(t)
	s, err := New(Config{Dir: t.TempDir(), Workers: 1, Resolver: NewImageRegistry().Resolve})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Ingest(blob); err != ErrClosed {
		t.Fatalf("Ingest after Close: %v", err)
	}
}

func TestSignatureBucketsDistinguishCrashSites(t *testing.T) {
	img, rep, _ := recordBlob(t)
	sig := SignatureOf(rep)
	if sig.PC != rep.Crash.Fault.PC || sig.Binary != core.IdentifyBinary(img) {
		t.Errorf("signature %+v", sig)
	}
	other := sig
	other.PC++
	if sig.Key() == other.Key() {
		t.Error("different fault PCs share a bucket key")
	}
	// Key must be stable and URL-safe.
	if k := sig.Key(); strings.ContainsAny(k, " /?#%") {
		t.Errorf("bucket key %q is not URL-safe", k)
	}
}

func TestReplayWindowBudget(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s, err := New(Config{Dir: t.TempDir(), Workers: 1, Resolver: reg.Resolve,
		MaxReplayWindow: 10}) // far below the demo's ~60-instruction window
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	res, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	m, _ := s.Report(res.ID)
	if m.Verdict == nil || m.Verdict.State != VerdictFailed ||
		!strings.Contains(m.Verdict.Error, "exceeds the 10-instruction budget") {
		t.Fatalf("verdict = %+v, want budget failure", m.Verdict)
	}
}

func TestReplayWindowBudgetOverflowBypass(t *testing.T) {
	// Two FLLs each claiming Length 2^63 wrap a naive uint64 sum to 0;
	// the budget check must still reject the report.
	img, rep, _ := recordBlob(t)
	l0, err := rep.FLLs[0][0].Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		huge := *l0
		huge.Length = 1 << 63
		rep.FLLs[0] = append(rep.FLLs[0], core.WrapFLLs([]*fll.Log{&huge})...)
	}
	blob, err := report.Pack(rep)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	res, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	m, _ := s.Report(res.ID)
	if m.Verdict == nil || m.Verdict.State != VerdictFailed ||
		!strings.Contains(m.Verdict.Error, "budget") {
		t.Fatalf("verdict = %+v, want budget failure", m.Verdict)
	}
}

// TestDebugOpenRefusesBadDictSize: a stored report whose FLL header names
// a dictionary replay cannot build (stored before archives were checked
// for it) fails a debug session's Open with an error instead of a panic.
func TestDebugOpenRefusesBadDictSize(t *testing.T) {
	img, rep, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	res, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	tail := len(rep.FLLs[0]) - 1
	l, err := rep.FLLs[0][tail].Open()
	if err != nil {
		t.Fatal(err)
	}
	l.DictSize = 3
	rep.FLLs[0][tail] = core.WrapFLLs([]*fll.Log{l})[0]
	bad, err := report.Pack(rep)
	if err != nil {
		t.Fatal(err)
	}
	path, ok := s.store.Pin(res.ID)
	if !ok {
		t.Fatal("report not stored")
	}
	s.store.Unpin(res.ID)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	m := timetravel.NewManager(s, timetravel.ManagerConfig{})
	defer m.Close()
	if _, err := m.Open(res.ID, -1); !errors.Is(err, report.ErrBadArchive) {
		t.Fatalf("Open = %v; want report.ErrBadArchive", err)
	}
}

func TestEvictedThenReuploadedReportIsRetriaged(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s, err := New(Config{Dir: t.TempDir(), Workers: 1, Resolver: reg.Resolve,
		Budget: int64(len(blob))}) // exactly one report fits
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	first, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()

	// A different (clean-run) report pushes the first out of the store;
	// its metadata must go with it.
	cleanImg, err := asm.Assemble("clean.s", "main: li a0, 0\n  li a7, 1\n  syscall\n")
	if err != nil {
		t.Fatal(err)
	}
	_, cleanRep, _ := core.Record(cleanImg, kernel.Config{}, core.Config{IntervalLength: 16})
	cleanBlob, err := report.Pack(cleanRep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(cleanBlob); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	if s.Store().Has(first.ID) {
		t.Fatal("first blob survived eviction")
	}
	if _, ok := s.Report(first.ID); ok {
		t.Fatal("evicted blob's metadata survived")
	}

	// Re-uploading the evicted report stores and triages it afresh.
	again, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if again.Duplicate {
		t.Error("re-upload after eviction marked duplicate")
	}
	s.WaitIdle()
	m, ok := s.Report(again.ID)
	if !ok || m.Verdict == nil || m.Verdict.State != VerdictDone || !m.Verdict.Reproduced {
		t.Fatalf("re-triage verdict = %+v", m.Verdict)
	}
	// The bucket kept aggregating across the eviction.
	b, ok := s.Bucket(again.BucketKey)
	if !ok || b.Count != 2 {
		t.Fatalf("bucket after re-upload = %+v", b)
	}
}

func TestForgedFaultRecordDoesNotMatchReported(t *testing.T) {
	// A hostile uploader records a clean run, then stamps a fabricated
	// fault record onto the final FLL with matching crash metadata. The
	// window replays fine, but execution never arrives at the claimed PC,
	// so the verdict must not certify the report as matching.
	img, err := asm.Assemble("clean.s", "main: li a0, 0\n  li a7, 1\n  syscall\n")
	if err != nil {
		t.Fatal(err)
	}
	_, rep, _ := core.Record(img, kernel.Config{}, core.Config{IntervalLength: 16})
	if rep.Crash != nil || len(rep.FLLs[0]) == 0 {
		t.Fatal("expected a clean recording")
	}
	last := rep.FLLs[0][len(rep.FLLs[0])-1]
	last.End = fll.EndFault
	last.Fault = &fll.FaultRecord{IC: last.Length, PC: 0xdead0000, Cause: uint8(cpu.FaultMemRead)}
	rep.Crash = &kernel.CrashInfo{TID: 0, Fault: &cpu.FaultInfo{Cause: cpu.FaultMemRead, PC: 0xdead0000}}
	blob, err := report.Pack(rep)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	res, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	m, _ := s.Report(res.ID)
	if m.Verdict == nil || m.Verdict.State != VerdictDone {
		t.Fatalf("verdict = %+v", m.Verdict)
	}
	if m.Verdict.MatchesReported {
		t.Fatal("forged fault record certified as matching the replay")
	}
	if m.Verdict.Reproduced {
		t.Fatal("forged fault record certified as reproduced")
	}
}

func TestBucketTableCapEvictsLowestCount(t *testing.T) {
	// Three distinct binaries (different text) → three distinct signatures.
	blobs := make([][]byte, 3)
	for i := range blobs {
		src := strings.Replace(crashSource, "li   s0, 0", "li   s0, "+string(rune('1'+i)), 1)
		img, err := asm.Assemble("v.s", src)
		if err != nil {
			t.Fatal(err)
		}
		res, rep, _ := core.Record(img, kernel.Config{}, core.Config{IntervalLength: 16})
		if res.Crash == nil {
			t.Fatal("no crash")
		}
		blobs[i], err = report.Pack(rep)
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Dir: t.TempDir(), Workers: 1,
		Resolver: NewImageRegistry().Resolve})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	capBuckets(s, 2)

	// Bucket 0 gets two uploads (count 2), bucket 1 gets one.
	for _, b := range [][]byte{blobs[0], blobs[0], blobs[1]} {
		if _, err := s.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Ingest(blobs[2]); err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	bs := s.Buckets()
	if len(bs) != 2 {
		t.Fatalf("%d buckets, want cap of 2", len(bs))
	}
	// The count-2 bucket must have survived; the count-1 one was evicted
	// to admit the newcomer.
	if bs[0].Count != 2 {
		t.Errorf("highest-count bucket lost: %+v", bs)
	}
}

// BenchmarkIngest measures end-to-end ingest throughput: unpack, hash,
// store, bucket. Triage replay runs on the worker pool and is excluded by
// draining at the end.
func BenchmarkIngest(b *testing.B) {
	img, _, blob := recordBlob(b)
	reg := NewImageRegistry()
	reg.Register(img)
	s, err := New(Config{Dir: b.TempDir(), Workers: 2, Resolver: reg.Resolve})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ingest(blob); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.WaitIdle()
}
