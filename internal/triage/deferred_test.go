package triage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
)

// ingestFile hands blob to IngestFile the way the cluster layer does: as
// a spooled file named by its content address.
func ingestFile(t *testing.T, s *Service, blob []byte, from Origin) *IngestResult {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "test-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(blob)
	f.Close()
	defer os.Remove(f.Name())
	res, err := s.IngestFile(report.ID(blob), f.Name(), int64(len(blob)), from)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestDeferredReplayEveryOrder runs the six things that can happen to one
// archive on an owner that was told somebody else replays it, in every
// order, with the replay workers free to interleave as they like. However
// they fall, the wait ends, the books balance, and report and bucket carry
// the one verdict a plain replay computes.
func TestDeferredReplayEveryOrder(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	id := report.ID(blob)

	// What the verdict must be: a plain service's own replay.
	ref := newService(t, reg)
	if _, err := ref.Ingest(blob); err != nil {
		t.Fatal(err)
	}
	ref.WaitIdle()
	refMeta, _ := ref.Report(id)
	want := refMeta.Verdict
	if want == nil || want.State != VerdictDone {
		t.Fatalf("reference verdict = %+v", want)
	}

	// A second archive; with a budget of one, ingesting it evicts the first.
	cleanImg, err := asm.Assemble("clean.s", "main: li a0, 0\n  li a7, 1\n  syscall\n")
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(cleanImg)
	_, cleanRep, _ := core.Record(cleanImg, kernel.Config{}, core.Config{IntervalLength: 16})
	other, err := report.Pack(cleanRep)
	if err != nil {
		t.Fatal(err)
	}

	marked := Origin{RequestID: "t-marked", Replayer: "http://peer"}
	ops := []struct {
		name string
		do   func(t *testing.T, s *Service)
	}{
		{"marked", func(t *testing.T, s *Service) { ingestFile(t, s, blob, marked) }},
		{"unmarked", func(t *testing.T, s *Service) { ingestFile(t, s, blob, Origin{RequestID: "t-unmarked"}) }},
		{"adopt", func(t *testing.T, s *Service) {
			if _, err := s.AdoptVerdict(id, want); err != nil {
				t.Fatal(err)
			}
		}},
		{"replayDeferred", func(t *testing.T, s *Service) { s.ReplayDeferred(id) }},
		{"duplicate", func(t *testing.T, s *Service) {
			if _, err := s.Ingest(blob); err != nil {
				t.Fatal(err)
			}
		}},
		{"evict", func(t *testing.T, s *Service) {
			if _, err := s.Ingest(other); err != nil {
				t.Fatal(err)
			}
		}},
	}

	base := t.TempDir()
	for n, order := range permutations(len(ops)) {
		names := make([]string, len(order))
		for i, op := range order {
			names[i] = ops[op].name
		}
		label := strings.Join(names, ",")

		s, err := New(Config{Dir: filepath.Join(base, fmt.Sprint(n)),
			Workers: 2, Resolver: reg.Resolve, Budget: int64(len(blob))})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range order {
			ops[op].do(t, s)
			if p := s.Pending(); p < 0 {
				t.Fatalf("%s: Pending() = %d after %s", label, p, ops[op].name)
			}
		}
		s.WaitIdle() // every order ends every wait by itself
		if !s.Store().Has(id) {
			// Evicted and not sent again since: a replay that lost the race to
			// the eviction left a failed verdict, as it always has. The field
			// sends the crash again.
			if _, err := s.Ingest(blob); err != nil {
				t.Fatal(err)
			}
			s.WaitIdle()
		}
		if p, aw := s.Pending(), s.Awaited(); p != 0 || len(aw) != 0 {
			t.Fatalf("%s: Pending() = %d, Awaited() = %v at the end", label, p, aw)
		}
		m, ok := s.Report(id)
		if !ok || !reflect.DeepEqual(m.Verdict, want) {
			t.Fatalf("%s: report verdict = %+v (found %v), want %+v", label, m.Verdict, ok, want)
		}
		b, ok := s.Bucket(m.BucketKey)
		if !ok || !reflect.DeepEqual(b.Verdict, want) {
			t.Fatalf("%s: bucket verdict = %+v, want %+v", label, b.Verdict, want)
		}
		s.Close()
	}
}

// TestDeferredIngestWaitsAndCounts pins the marked ingest itself: stored,
// bucketed, indexed, pending, awaited, and no replay.
func TestDeferredIngestWaitsAndCounts(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	s.WaitIdle()
	id := report.ID(blob)
	instrBefore := mReplayInstr.Value()
	adoptedBefore := mVerdictAdopted.Value()
	doneBefore := mVerdictDone.Value()

	res := ingestFile(t, s, blob, Origin{RequestID: "t-1", Replayer: "http://peer"})
	if res.Duplicate || !s.Store().Has(id) {
		t.Fatalf("marked ingest = %+v, stored %v", res, s.Store().Has(id))
	}
	m, ok := s.Report(id)
	if !ok || m.Verdict.State != VerdictPending || m.BucketKey != res.BucketKey {
		t.Fatalf("marked report = %+v (found %v)", m, ok)
	}
	if b, ok := s.Bucket(res.BucketKey); !ok || b.Count != 1 || len(b.ReportIDs) != 1 {
		t.Fatalf("marked bucket = %+v (found %v)", b, ok)
	}
	aw := s.Awaited()
	if s.Pending() != 1 || len(aw) != 1 || aw[0].ID != id || aw[0].Replayer != "http://peer" || aw[0].RequestID != "t-1" {
		t.Fatalf("Pending() = %d, Awaited() = %+v", s.Pending(), aw)
	}
	if r, ok := s.Awaiting(id); !ok || r != "http://peer" {
		t.Fatalf("Awaiting = %q, %v", r, ok)
	}
	// A second marked copy is a duplicate upload and nothing more.
	if res := ingestFile(t, s, blob, Origin{Replayer: "http://other"}); !res.Duplicate {
		t.Fatalf("second marked ingest = %+v", res)
	}
	if r, _ := s.Awaiting(id); r != "http://peer" || s.Pending() != 1 {
		t.Fatalf("second marked ingest moved the wait: %q, pending %d", r, s.Pending())
	}

	v := &Verdict{State: VerdictDone, Reproduced: true, Instructions: 42}
	if adopted, err := s.AdoptVerdict(id, v); err != nil || !adopted {
		t.Fatalf("AdoptVerdict = %v, %v", adopted, err)
	}
	s.WaitIdle()
	if m, _ := s.Report(id); !reflect.DeepEqual(m.Verdict, v) {
		t.Fatalf("adopted verdict = %+v", m.Verdict)
	}
	if b, _ := s.Bucket(res.BucketKey); !reflect.DeepEqual(b.Verdict, v) || b.Count != 2 {
		t.Fatalf("bucket after adoption = %+v", b)
	}
	if got := mReplayInstr.Value() - instrBefore; got != 0 {
		t.Errorf("a marked ingest replayed %d instructions", got)
	}
	if got := mVerdictAdopted.Value() - adoptedBefore; got != 1 {
		t.Errorf("verdicts_adopted_total moved by %d, want 1", got)
	}
	if got := mVerdictDone.Value() - doneBefore; got != 0 {
		t.Errorf("an adopted verdict counted %d into verdicts_total", got)
	}
	if len(s.Awaited()) != 0 || s.Pending() != 0 {
		t.Fatalf("after adoption: Pending() = %d, Awaited() = %v", s.Pending(), s.Awaited())
	}
}

// TestAdoptVerdictRefuses covers what may not come in through adoption.
func TestAdoptVerdictRefuses(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	id := report.ID(blob)

	ingestFile(t, s, blob, Origin{Replayer: "http://peer"})
	done := &Verdict{State: VerdictDone, Instructions: 7}
	for name, tc := range map[string]struct {
		id string
		v  *Verdict
	}{
		"pending verdict": {id, &Verdict{State: VerdictPending}},
		"failed verdict":  {id, &Verdict{State: VerdictFailed, Error: "no registered binary"}},
		"stateless junk":  {id, &Verdict{}},
		"nil verdict":     {id, nil},
		"short id":        {id[:63], done},
		"upper-case id":   {strings.ToUpper(id), done},
		"path id":         {"../" + id[3:], done},
	} {
		if adopted, err := s.AdoptVerdict(tc.id, tc.v); err == nil || adopted {
			t.Errorf("%s: AdoptVerdict = %v, %v; want a refusal", name, adopted, err)
		}
	}
	if _, ok := s.Awaiting(id); !ok || s.Pending() != 1 {
		t.Fatalf("a refused verdict ended the wait: pending %d", s.Pending())
	}

	// A report this node replayed keeps the verdict it computed.
	if !s.ReplayDeferred(id) {
		t.Fatal("ReplayDeferred found nothing to replay")
	}
	s.WaitIdle()
	own, _ := s.Report(id)
	if own.Verdict.State != VerdictDone || own.Verdict.Instructions == done.Instructions {
		t.Fatalf("own verdict = %+v", own.Verdict)
	}
	if adopted, err := s.AdoptVerdict(id, done); err != nil || adopted {
		t.Fatalf("AdoptVerdict over a local verdict = %v, %v", adopted, err)
	}
	if m, _ := s.Report(id); !reflect.DeepEqual(m.Verdict, own.Verdict) {
		t.Fatalf("a peer's verdict replaced the local one: %+v", m.Verdict)
	}
	if v, ok := s.store.Verdict(id); !ok || !reflect.DeepEqual(v, own.Verdict) {
		t.Fatalf("a peer's verdict replaced the cached one: %+v", v)
	}
	if s.ReplayDeferred(id) {
		t.Fatal("ReplayDeferred replayed a report nobody waits for")
	}
}

// TestAdoptVerdictAfterClose: a verdict pushed to a closed service is
// refused with ErrClosed and writes no sidecar, so nothing lands in the
// store after Close returns.
func TestAdoptVerdictAfterClose(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	id := report.ID(blob)
	ingestFile(t, s, blob, Origin{Replayer: "http://peer"})
	s.Close()

	adopted, err := s.AdoptVerdict(id, &Verdict{State: VerdictDone, Instructions: 5})
	if !errors.Is(err, ErrClosed) || adopted {
		t.Fatalf("AdoptVerdict after Close = %v, %v; want ErrClosed", adopted, err)
	}
	if _, err := os.Stat(s.store.verdictPath(id)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("verdict sidecar after a refused adoption: %v", err)
	}
}

// TestVerdictBeforeArchive: a pushed verdict that beats its archive waits
// in the cache, and the marked ingest completes from it at once.
func TestVerdictBeforeArchive(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	id := report.ID(blob)
	instrBefore := mReplayInstr.Value()

	v := &Verdict{State: VerdictDone, Reproduced: true, Instructions: 9}
	if adopted, err := s.AdoptVerdict(id, v); err != nil || adopted {
		t.Fatalf("AdoptVerdict ahead of the archive = %v, %v", adopted, err)
	}
	ingestFile(t, s, blob, Origin{Replayer: "http://peer"})
	if m, _ := s.Report(id); !reflect.DeepEqual(m.Verdict, v) || s.Pending() != 0 {
		t.Fatalf("marked ingest after its verdict: %+v, pending %d", m.Verdict, s.Pending())
	}
	if got := mReplayInstr.Value() - instrBefore; got != 0 {
		t.Errorf("replayed %d instructions", got)
	}
}

// TestVerdictHookSeesDoneVerdicts: the hook gets what a worker finished,
// with the id of the upload that caused it, and not what was adopted.
func TestVerdictHookSeesDoneVerdicts(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	type seen struct {
		id, requestID string
		v             *Verdict
	}
	got := make(chan seen, 4)
	s.SetVerdictHook(func(id string, v *Verdict, requestID string) { got <- seen{id, requestID, v} })

	ingestFile(t, s, blob, Origin{RequestID: "t-7"})
	s.WaitIdle()
	m, _ := s.Report(report.ID(blob))
	h := <-got
	if h.id != m.ID || h.requestID != "t-7" || !reflect.DeepEqual(h.v, m.Verdict) {
		t.Fatalf("hook saw %+v, report is %+v", h, m)
	}

	// Unknown binary: a failed verdict is nobody's to adopt.
	bare := newService(t, NewImageRegistry())
	bare.SetVerdictHook(func(id string, v *Verdict, requestID string) { got <- seen{id, requestID, v} })
	ingestFile(t, bare, blob, Origin{})
	bare.WaitIdle()
	// And an adopted one is not reported back.
	other := newService(t, reg)
	other.SetVerdictHook(func(id string, v *Verdict, requestID string) { got <- seen{id, requestID, v} })
	ingestFile(t, other, blob, Origin{Replayer: "http://peer"})
	other.AdoptVerdict(m.ID, m.Verdict)
	other.WaitIdle()
	select {
	case h := <-got:
		t.Fatalf("hook saw %+v for a failed or adopted verdict", h)
	default:
	}
}
