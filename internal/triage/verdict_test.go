package triage

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/kernel"
	"bugnet/internal/parreplay"
	"bugnet/internal/report"
)

// recordBlobAt records the crash demo with a given interval length, so
// tests can mint distinct archive contents for the same binary.
func recordBlobAt(t testing.TB, interval uint64) (*asm.Image, []byte) {
	t.Helper()
	img, err := asm.Assemble("crash.s", crashSource)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, _ := core.Record(img, kernel.Config{}, core.Config{IntervalLength: interval})
	if res.Crash == nil {
		t.Fatal("program did not crash")
	}
	blob, err := report.Pack(rep)
	if err != nil {
		t.Fatal(err)
	}
	return img, blob
}

// TestVerdictCacheRestartSkipsReplay is the restart property: every
// done verdict is stored beside its archive, so a restarted node's
// recovery re-index finds all of them — however many reports there are —
// and replays none. The second service's resolver cannot replay anything,
// and the replayed-instruction counter must not move.
func TestVerdictCacheRestartSkipsReplay(t *testing.T) {
	reg := NewImageRegistry()
	var blobs [][]byte
	for _, interval := range []uint64{12, 16, 24, 32} {
		img, blob := recordBlobAt(t, interval)
		reg.Register(img)
		blobs = append(blobs, blob)
	}
	dir := t.TempDir()

	s1, err := New(Config{Dir: dir, Workers: 2, Resolver: reg.Resolve})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]*Verdict)
	for _, blob := range blobs {
		res, err := s1.Ingest(blob)
		if err != nil {
			t.Fatal(err)
		}
		want[res.ID] = nil
	}
	if len(want) != len(blobs) {
		t.Fatalf("%d distinct reports from %d recordings", len(want), len(blobs))
	}
	s1.WaitIdle()
	for id := range want {
		m, _ := s1.Report(id)
		if m.Verdict == nil || m.Verdict.State != VerdictDone {
			t.Fatalf("first verdict of %s = %+v", id[:8], m.Verdict)
		}
		want[id] = m.Verdict
		if _, err := os.Stat(s1.store.verdictPath(id)); err != nil {
			t.Fatalf("verdict of %s not stored beside its archive: %v", id[:8], err)
		}
	}
	s1.Close()

	// The poisoned resolver turns any replay into a failed verdict, so a
	// done verdict after restart can only have come from the store.
	poisoned := func(core.BinaryID) (*asm.Image, error) {
		return nil, errors.New("resolver must not run: verdict should be stored")
	}
	instrBefore := mReplayInstr.Value()
	s2, err := New(Config{Dir: dir, Workers: 2, Resolver: poisoned})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.WaitIdle()
	for id, v := range want {
		m, ok := s2.Report(id)
		if !ok {
			t.Fatalf("restarted service lost report %s", id[:8])
		}
		if !reflect.DeepEqual(m.Verdict, v) {
			t.Errorf("restored verdict of %s differs:\n got %+v\nwant %+v", id[:8], m.Verdict, v)
		}
	}
	if got := mReplayInstr.Value() - instrBefore; got != 0 {
		t.Errorf("restart replayed %d instructions, want 0", got)
	}
}

// TestVerdictCacheIgnoresJunkFiles opens a store whose shards hold junk
// sidecars: one that does not parse (beside a real blob) and one beside
// no blob are reclaimed, a foreign file is left alone, and neither
// becomes a verdict.
func TestVerdictCacheIgnoresJunkFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Put(blobOf(100, 'a'))
	if err != nil {
		t.Fatal(err)
	}
	unparsable := st.verdictPath(id)
	orphanID := "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	orphan := st.verdictPath(orphanID)
	foreign := filepath.Join(filepath.Dir(unparsable), "notes.verdict")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{
		unparsable: "not json",
		orphan:     `{"state":"done","instructions":7}`,
		foreign:    "keep me",
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err = OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, id := range map[string]string{"unparsable": id, "orphan": orphanID} {
		if v, ok := st.Verdict(id); ok {
			t.Errorf("%s sidecar indexed as %+v", name, v)
		}
	}
	for name, path := range map[string]string{"unparsable": unparsable, "orphan": orphan} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s sidecar not reclaimed: %v", name, err)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("foreign file removed from the shard: %v", err)
	}
	if !st.Has(id) {
		t.Error("the blob beside the junk sidecar was lost")
	}
}

// TestVerdictGoesWithItsBlob: a sidecar shares its blob's retention.
// Budget eviction and Delete remove it with the blob; a pinned blob,
// spared by eviction, keeps it. The verdict itself is held in memory
// without its blob, and the same bytes stored again bring it back beside
// them.
func TestVerdictGoesWithItsBlob(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 250)
	if err != nil {
		t.Fatal(err)
	}
	done := &Verdict{State: VerdictDone, Instructions: 7}
	evicted, _, err := st.Put(blobOf(100, 'a'))
	if err != nil {
		t.Fatal(err)
	}
	pinned, _, err := st.Put(blobOf(100, 'p'))
	if err != nil {
		t.Fatal(err)
	}
	st.Pin(pinned)
	for _, id := range []string{evicted, pinned} {
		st.PutVerdict(id, done)
		if _, err := os.Stat(st.verdictPath(id)); err != nil {
			t.Fatalf("sidecar of %s not written: %v", id[:8], err)
		}
	}
	// Two more blobs push the store over budget twice: the oldest
	// unpinned blobs go, the pinned one stays.
	for _, fill := range []byte{'b', 'c'} {
		if _, _, err := st.Put(blobOf(100, fill)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Has(evicted) || !st.Has(pinned) {
		t.Fatalf("eviction: evicted held %v, pinned held %v", st.Has(evicted), st.Has(pinned))
	}
	if _, err := os.Stat(st.verdictPath(evicted)); !os.IsNotExist(err) {
		t.Errorf("evicted blob's sidecar survived: %v", err)
	}
	if v, ok := st.Verdict(pinned); !ok || !reflect.DeepEqual(v, done) {
		t.Errorf("pinned blob's verdict = %+v, %v", v, ok)
	}
	if _, err := os.Stat(st.verdictPath(pinned)); err != nil {
		t.Errorf("pinned blob's sidecar lost: %v", err)
	}

	st.Delete(pinned)
	if _, err := os.Stat(st.verdictPath(pinned)); !os.IsNotExist(err) {
		t.Errorf("deleted blob's sidecar survived: %v", err)
	}

	if _, _, err := st.Put(blobOf(100, 'a')); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Verdict(evicted); !ok || !reflect.DeepEqual(v, done) {
		t.Errorf("re-stored blob's verdict = %+v, %v", v, ok)
	}
	if _, err := os.Stat(st.verdictPath(evicted)); err != nil {
		t.Errorf("re-stored blob's sidecar not written: %v", err)
	}
}

// TestVerdictsWithoutArchiveAreBounded: a verdict pushed for an id whose
// archive never arrives is held in memory only, and a flood of them —
// any peer can push one for any well-formed id — stays within
// maxWaiting and writes nothing to disk.
func TestVerdictsWithoutArchiveAreBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Workers: 1, Resolver: NewImageRegistry().Resolve})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := &Verdict{State: VerdictDone, Instructions: 7}
	for i := 0; i < 3*maxWaiting; i++ {
		if _, err := s.AdoptVerdict(report.ID([]byte{byte(i), byte(i >> 8)}), done); err != nil {
			t.Fatal(err)
		}
	}
	s.store.mu.Lock()
	held, sidecars := len(s.store.waiting), len(s.store.verdicts)
	s.store.mu.Unlock()
	if held > maxWaiting || sidecars != 0 {
		t.Errorf("after %d unknown ids: %d held, %d sidecar verdicts; want <= %d and 0",
			3*maxWaiting, held, sidecars, maxWaiting)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("store root holds %d entries, want none (first %q)", len(entries), entries[0].Name())
	}
}

// TestZeroConfigReplaysOnParreplay: a service built with no replay
// settings replays an MRL-free report on parreplay's interval fan-out
// whenever GOMAXPROCS leaves room for one, and on the sequential schedule
// at GOMAXPROCS 1.
func TestZeroConfigReplaysOnParreplay(t *testing.T) {
	img, rep, blob := recordBlob(t)
	if len(rep.MRLs) != 0 || len(rep.FLLs[0]) < 2 {
		t.Fatalf("want an MRL-free report of several intervals: %d MRLs, %d intervals", len(rep.MRLs), len(rep.FLLs[0]))
	}
	reg := NewImageRegistry()
	reg.Register(img)
	for _, tc := range []struct {
		procs     int
		fallbacks uint64
	}{{2, 0}, {4, 0}, {1, 1}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			s, err := New(Config{Dir: t.TempDir(), Resolver: reg.Resolve})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			before := parreplay.SequentialFallbacks()
			res, err := s.Ingest(blob)
			if err != nil {
				t.Fatal(err)
			}
			s.WaitIdle()
			if got := parreplay.SequentialFallbacks() - before; got != tc.fallbacks {
				t.Errorf("GOMAXPROCS %d: %d sequential replays, want %d", tc.procs, got, tc.fallbacks)
			}
			if m, _ := s.Report(res.ID); m.Verdict == nil || m.Verdict.State != VerdictDone || !m.Verdict.Reproduced {
				t.Errorf("GOMAXPROCS %d: verdict %+v", tc.procs, m.Verdict)
			}
		}()
	}
}

// TestParallelReplayVerdictParity is the service-level determinism
// property: the verdict a service replays on four processors — state,
// reproduction, races, backtrace, instruction counts — is byte-identical
// to the one it replays on one, sequentially, for a single-threaded crash
// and for a multithreaded racy report.
func TestParallelReplayVerdictParity(t *testing.T) {
	img, _, stBlob := recordBlob(t)

	mtImg, err := asm.Assemble("mt.s", racySource)
	if err != nil {
		t.Fatal(err)
	}
	mtRes, mtRep, _ := core.Record(mtImg, kernel.Config{Cores: 2}, core.Config{IntervalLength: 64})
	if mtRes.Crash != nil {
		t.Fatalf("mt program crashed: %v", mtRes.Crash)
	}
	if len(mtRep.MRLs) == 0 {
		t.Fatal("racy program produced no MRLs")
	}
	mtBlob, err := report.Pack(mtRep)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewImageRegistry()
	reg.Register(img)
	reg.Register(mtImg)

	verdicts := func(procs int) map[string]*Verdict {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := New(Config{Dir: t.TempDir(), Workers: 2, Resolver: reg.Resolve})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out := make(map[string]*Verdict)
		for _, blob := range [][]byte{stBlob, mtBlob} {
			res, err := s.Ingest(blob)
			if err != nil {
				t.Fatal(err)
			}
			s.WaitIdle()
			m, _ := s.Report(res.ID)
			out[res.ID] = m.Verdict
		}
		return out
	}

	seq := verdicts(1)
	par := verdicts(4)
	if !reflect.DeepEqual(par, seq) {
		t.Errorf("parallel verdicts differ from sequential:\n par: %+v\n seq: %+v", par, seq)
	}
	for id, v := range seq {
		if v == nil || v.State != VerdictDone {
			t.Errorf("report %s sequential verdict = %+v", id[:8], v)
		}
	}
}

// racySource shares an unsynchronized counter across two threads so the
// packed report carries MRLs and the triage replay runs race detection.
const racySource = `
        .data
shared: .word 0
done:   .word 0
        .text
main:   la   a0, worker
        li   a7, 8
        syscall
        li   s2, 30
ml:     la   t0, shared
        lw   t1, (t0)
        addi t1, t1, 1
        sw   t1, (t0)
        addi s2, s2, -1
        bnez s2, ml
        la   t0, done
dwait:  amoadd t1, zero, (t0)
        beqz t1, dwait
        la   t0, shared
        lw   a0, (t0)
        li   a7, 1
        syscall

worker: li   s2, 30
wl2:    la   t0, shared
        lw   t1, (t0)
        addi t1, t1, 1
        sw   t1, (t0)
        addi s2, s2, -1
        bnez s2, wl2
        la   t0, done
        li   t1, 1
        amoswap t2, t1, (t0)
        li   a0, 0
        li   a7, 1
        syscall
`
