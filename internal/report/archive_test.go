package report

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/mrl"
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

// record produces a real crashed report to pack.
func record(t testing.TB) (*asm.Image, *core.CrashReport) {
	t.Helper()
	img, err := asm.Assemble("crash.s", crashSource)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	res, rep, _ := core.Record(img, kernel.Config{}, core.Config{IntervalLength: 16})
	if res.Crash == nil {
		t.Fatal("program did not crash")
	}
	return img, rep
}

// mrlRef encodes l once and views the bytes as a ref.
func mrlRef(l *mrl.Log) *mrl.Ref {
	enc := l.Marshal()
	return mrl.NewLazyRef(l.Meta, int64(len(enc)), func() ([]byte, error) { return enc, nil })
}

func TestPackUnpackRoundTrip(t *testing.T) {
	img, rep := record(t)
	// Attach a synthetic MRL so the 'R' section path is exercised even on
	// this uniprocessor recording.
	rep.MRLs[0] = append(rep.MRLs[0], mrlRef(&mrl.Log{
		Meta: mrl.Meta{
			Header:        mrl.Header{PID: rep.PID, TID: 0, CID: 0, Timestamp: 1},
			IntervalLimit: 16,
			MaxThreads:    2,
			NumEntries:    1,
		},
		Entries: []mrl.Entry{{LocalIC: 3, RemoteTID: 1, RemoteCID: 0, RemoteIC: 9}},
	}))

	blob, err := Pack(rep)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(blob)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if got.PID != rep.PID || got.Binary != rep.Binary {
		t.Errorf("identity lost: got pid=%d binary=%+v", got.PID, got.Binary)
	}
	if got.LogCodeLoads != rep.LogCodeLoads || got.DictOptions != rep.DictOptions {
		t.Errorf("recording options lost: %+v / %v", got.DictOptions, got.LogCodeLoads)
	}
	if got.Crash == nil || got.Crash.TID != rep.Crash.TID ||
		got.Crash.Fault.PC != rep.Crash.Fault.PC ||
		got.Crash.Fault.Cause != rep.Crash.Fault.Cause ||
		got.Crash.Fault.Addr != rep.Crash.Fault.Addr ||
		got.Crash.Fault.IC != rep.Crash.Fault.IC {
		t.Errorf("crash record lost: %+v vs %+v", got.Crash, rep.Crash)
	}
	if len(got.FLLs[0]) != len(rep.FLLs[0]) {
		t.Fatalf("FLL count: got %d want %d", len(got.FLLs[0]), len(rep.FLLs[0]))
	}
	for i, l := range got.FLLs[0] {
		ge, err := l.Encoded()
		if err != nil {
			t.Fatal(err)
		}
		we, err := rep.FLLs[0][i].Encoded()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ge, we) {
			t.Errorf("FLL %d differs after round trip", i)
		}
	}
	gotMRL, err := got.MRLs[0][0].Open()
	if err != nil {
		t.Fatal(err)
	}
	wantMRL, err := rep.MRLs[0][0].Open()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MRLs[0]) != 1 || len(gotMRL.Entries) != 1 ||
		gotMRL.Entries[0] != wantMRL.Entries[0] {
		t.Errorf("MRL lost: %+v", gotMRL)
	}

	// The unpacked report must still replay to the recorded crash.
	rr, err := core.NewReplayer(img, got.FLLs[rep.Crash.TID]).Run()
	if err != nil {
		t.Fatalf("replay of unpacked report: %v", err)
	}
	if rr.Fault == nil || rr.Fault.PC != rep.Crash.Fault.PC {
		t.Errorf("replayed fault %+v, want pc %#x", rr.Fault, rep.Crash.Fault.PC)
	}
}

// TestOpenFileRejectsNonArchives: a missing path and a directory fail at
// open with an error naming the path, instead of yielding an empty report.
func TestOpenFileRejectsNonArchives(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []string{filepath.Join(dir, "missing.bnar"), dir} {
		a, err := OpenFile(path)
		if err == nil {
			a.Close()
			t.Fatalf("OpenFile(%s) accepted a non-archive", path)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("OpenFile(%s): error %q does not name the path", path, err)
		}
	}
}

func TestPackCarriesRecordingOptions(t *testing.T) {
	// A LogCodeLoads recording replays only with LogCodeLoads on; the
	// options must survive the archive so the receiving side (which has
	// no out-of-band knowledge of the recorder's flags) replays to the
	// recorded crash.
	img, err := asm.Assemble("crash.s", crashSource)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, _ := core.Record(img, kernel.Config{},
		core.Config{IntervalLength: 16, LogCodeLoads: true})
	if res.Crash == nil {
		t.Fatal("no crash")
	}
	blob, err := Pack(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !got.LogCodeLoads {
		t.Fatal("LogCodeLoads lost in the archive")
	}
	out, err := core.NewMultiReplayer(img, got).Run()
	if err != nil {
		t.Fatalf("replay of unpacked LogCodeLoads report: %v", err)
	}
	crash := out.Threads[res.Crash.TID]
	if crash == nil || crash.Fault == nil || crash.Fault.PC != res.Crash.Fault.PC {
		t.Fatalf("replayed fault %+v, recorded pc %#x", crash, res.Crash.Fault.PC)
	}
}

func TestPackDeterministicID(t *testing.T) {
	_, rep := record(t)
	a, err := Pack(rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pack(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Pack is not deterministic")
	}
	if ID(a) != ID(b) {
		t.Fatal("IDs differ for identical bytes")
	}
	if len(ID(a)) != 64 {
		t.Fatalf("ID length %d, want 64 hex chars", len(ID(a)))
	}
}

func TestUnpackRejectsCorruption(t *testing.T) {
	_, rep := record(t)
	blob, err := Pack(rep)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), blob[4:]...),
		"bad version": append(append([]byte{}, blob[:4]...), append([]byte{99}, blob[5:]...)...),
		"truncated":   blob[:len(blob)/2],
		"trailing":    append(append([]byte{}, blob...), 0xde, 0xad),
	}
	for name, data := range cases {
		if _, err := Unpack(data); err == nil {
			t.Errorf("%s: Unpack accepted corrupt archive", name)
		}
	}

	// A flipped byte inside a section payload must fail the section CRC.
	flipped := append([]byte{}, blob...)
	flipped[len(flipped)/2] ^= 0xff
	if _, err := Unpack(flipped); err == nil {
		t.Error("flipped payload byte: Unpack accepted corrupt archive")
	}
}

func TestUnpackRejectsImplausibleSectionCount(t *testing.T) {
	data := []byte{'B', 'N', 'A', 'R', 1, 0xff, 0xff, 0xff, 0xff}
	if _, err := Unpack(data); err == nil {
		t.Fatal("accepted 4G-section header")
	}
}

func TestUnpackRejectsImplausibleTID(t *testing.T) {
	// Downstream replay allocates per-thread state indexed by TID (the
	// race detector is O(threads²)), so a hostile log claiming a huge TID
	// must die at decode, not at allocation.
	_, rep := record(t)
	l0, err := rep.FLLs[0][0].Open()
	if err != nil {
		t.Fatal(err)
	}
	hostile := *l0
	hostile.TID = 1 << 31
	rep.FLLs[0][0] = core.WrapFLLs([]*fll.Log{&hostile})[0]
	blob, err := Pack(rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(blob); err == nil {
		t.Fatal("accepted FLL with TID 2^31")
	}
}

func BenchmarkPack(b *testing.B) {
	_, rep := record(b)
	blob, _ := Pack(rep)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(rep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	_, rep := record(b)
	blob, err := Pack(rep)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(blob); err != nil {
			b.Fatal(err)
		}
	}
}
