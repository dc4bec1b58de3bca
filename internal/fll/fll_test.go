package fll

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bugnet/internal/cpu"
	"bugnet/internal/dict"
)

func testHeader(dictSize uint32) Header {
	return Header{
		PID: 7, TID: 1, CID: 3, Timestamp: 12345,
		IntervalLimit: 10_000_000, DictSize: dictSize,
		State: cpu.Snapshot{PC: 0x400000},
	}
}

func TestWriterReaderRoundTripSimple(t *testing.T) {
	hdr := testHeader(64)
	d := dict.New(64)
	w := NewWriter(hdr, d)

	// Sequence: logged 5, skipped(5), logged 9, logged 5 (dict hit now).
	w.Op(5, true)
	w.Op(5, false)
	w.Op(9, true)
	w.Op(5, true)
	log := w.Close(100, EndIntervalFull, nil)

	if log.NumEntries != 3 || log.Ops != 4 || log.Length != 100 {
		t.Fatalf("log = %+v", log)
	}

	rd := dict.New(64)
	r := NewReader(log, rd)

	v, inj, err := r.Op(0xBAD)
	if err != nil || !inj || v != 5 {
		t.Fatalf("op1 = %d,%v,%v", v, inj, err)
	}
	v, inj, err = r.Op(5) // the skipped op: memory already holds 5
	if err != nil || inj || v != 5 {
		t.Fatalf("op2 = %d,%v,%v", v, inj, err)
	}
	v, inj, err = r.Op(0xBAD)
	if err != nil || !inj || v != 9 {
		t.Fatalf("op3 = %d,%v,%v", v, inj, err)
	}
	v, inj, err = r.Op(0xBAD)
	if err != nil || !inj || v != 5 {
		t.Fatalf("op4 = %d,%v,%v", v, inj, err)
	}
	if !r.Exhausted() {
		t.Error("reader not exhausted")
	}
}

func TestLongLCount(t *testing.T) {
	hdr := testHeader(64)
	d := dict.New(64)
	w := NewWriter(hdr, d)
	w.Op(1, true)
	for i := 0; i < 100; i++ { // 100 skipped > shortLCMax
		w.Op(1, false)
	}
	w.Op(2, true)
	log := w.Close(200, EndIntervalFull, nil)

	rd := dict.New(64)
	r := NewReader(log, rd)
	v, inj, _ := r.Op(0)
	if !inj || v != 1 {
		t.Fatalf("first = %d,%v", v, inj)
	}
	for i := 0; i < 100; i++ {
		v, inj, err := r.Op(1)
		if err != nil || inj || v != 1 {
			t.Fatalf("skip %d = %d,%v,%v", i, v, inj, err)
		}
	}
	v, inj, _ = r.Op(0)
	if !inj || v != 2 {
		t.Fatalf("last = %d,%v", v, inj)
	}
}

func TestDictCompressionShrinksLog(t *testing.T) {
	// Logging the same value repeatedly must be much cheaper than logging
	// distinct values, thanks to rank encoding.
	mkLog := func(gen func(i int) uint32) *Log {
		d := dict.New(64)
		w := NewWriter(testHeader(64), d)
		for i := 0; i < 1000; i++ {
			w.Op(gen(i), true)
		}
		return w.Close(1000, EndIntervalFull, nil)
	}
	same := mkLog(func(int) uint32 { return 42 })
	distinct := mkLog(func(i int) uint32 { return uint32(i) * 2654435761 })
	if same.EntryBits*2 >= distinct.EntryBits {
		t.Errorf("compression ineffective: same=%d distinct=%d bits", same.EntryBits, distinct.EntryBits)
	}
	if same.UncompressedBits != distinct.UncompressedBits {
		t.Errorf("uncompressed accounting differs: %d vs %d", same.UncompressedBits, distinct.UncompressedBits)
	}
	if same.EntryBits >= same.UncompressedBits {
		t.Error("compressed not smaller than uncompressed for redundant stream")
	}
}

func TestFaultRecordSurvives(t *testing.T) {
	d := dict.New(64)
	w := NewWriter(testHeader(64), d)
	w.Op(1, true)
	f := &FaultRecord{IC: 55, PC: 0x400123, Cause: 2}
	log := w.Close(55, EndFault, f)
	if log.End != EndFault || log.Fault == nil || log.Fault.PC != 0x400123 {
		t.Fatalf("fault record lost: %+v", log)
	}
}

// TestPropertyRoundTrip drives random op sequences through writer and
// reader, asserting values observed in replay match recording exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dictSize := []uint32{8, 64, 256}[rng.Intn(3)]
		d := dict.New(int(dictSize))
		hdr := testHeader(dictSize)
		w := NewWriter(hdr, d)

		n := 1 + rng.Intn(3000)
		type op struct {
			val    uint32
			logged bool
		}
		ops := make([]op, n)
		// mem simulates the replayer's knowledge: the last value seen for
		// the (single) abstract location each op touches. To keep the test
		// honest we use per-location tracking over a few locations.
		locs := make([]uint32, 8)
		locOf := make([]int, n)
		for i := range ops {
			loc := rng.Intn(len(locs))
			locOf[i] = loc
			logged := rng.Intn(3) == 0
			var v uint32
			if logged {
				// A first load observes a fresh value from the pool.
				v = uint32(rng.Intn(64)) // small pool => dictionary hits
				locs[loc] = v
			} else {
				// A non-logged op re-observes the location's current value.
				v = locs[loc]
			}
			ops[i] = op{val: v, logged: logged}
			w.Op(v, logged)
		}
		log := w.Close(uint64(n), EndIntervalFull, nil)

		rd := dict.New(int(dictSize))
		r := NewReader(log, rd)
		replayLocs := make([]uint32, len(locs))
		for i, o := range ops {
			memVal := replayLocs[locOf[i]]
			v, injected, err := r.Op(memVal)
			if err != nil {
				t.Logf("op %d: %v", i, err)
				return false
			}
			if injected != o.logged {
				t.Logf("op %d: injected=%v want %v", i, injected, o.logged)
				return false
			}
			if v != o.val {
				t.Logf("op %d: value=%d want %d", i, v, o.val)
				return false
			}
			replayLocs[locOf[i]] = v
		}
		return r.Exhausted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	d := dict.New(64)
	hdr := testHeader(64)
	hdr.State.Regs[5] = 0xABCD
	w := NewWriter(hdr, d)
	for i := 0; i < 200; i++ {
		w.Op(uint32(i%7), i%3 == 0)
	}
	log := w.Close(500, EndSyscall, nil)

	data := log.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Header != log.Header {
		t.Errorf("header mismatch:\n%+v\n%+v", got.Header, log.Header)
	}
	if got.EntryBits != log.EntryBits || got.NumEntries != log.NumEntries ||
		got.Ops != log.Ops || got.Length != log.Length || got.End != log.End {
		t.Error("metadata mismatch")
	}
	if string(got.Entries) != string(log.Entries) {
		t.Error("entries mismatch")
	}

	// A marshaled log with a fault record round-trips too.
	logF := w.Close(500, EndFault, &FaultRecord{IC: 1, PC: 2, Cause: 3})
	gotF, err := Unmarshal(logF.Marshal())
	if err != nil || gotF.Fault == nil || *gotF.Fault != *logF.Fault {
		t.Errorf("fault round trip: %+v, %v", gotF.Fault, err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("XXXXYYYYZZZZ"),
		append([]byte("BFLL"), 99), // bad version
	}
	for _, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("Unmarshal(%v) succeeded", c)
		}
	}
	// Truncated valid prefix.
	d := dict.New(64)
	w := NewWriter(testHeader(64), d)
	w.Op(1, true)
	data := w.Close(1, EndExit, nil).Marshal()
	for _, cut := range []int{6, 20, len(data) - 1} {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Errorf("truncated at %d accepted", cut)
		}
	}
}

func TestSizeBytesAccounting(t *testing.T) {
	d := dict.New(64)
	w := NewWriter(testHeader(64), d)
	empty := w.Close(0, EndExit, nil)
	if empty.SizeBytes() < HeaderBytes {
		t.Errorf("empty log size %d < header %d", empty.SizeBytes(), HeaderBytes)
	}

	d2 := dict.New(64)
	w2 := NewWriter(testHeader(64), d2)
	for i := 0; i < 1000; i++ {
		w2.Op(rand.Uint32(), true) // incompressible
	}
	big := w2.Close(1000, EndIntervalFull, nil)
	// ~39 bits per entry => ~4.9 KB
	if big.SizeBytes() < 4000 || big.SizeBytes() > 6000 {
		t.Errorf("1000 incompressible entries = %d bytes; want ≈5KB", big.SizeBytes())
	}
}

func TestReaderErrTruncatedStream(t *testing.T) {
	d := dict.New(64)
	w := NewWriter(testHeader(64), d)
	w.Op(0xDEADBEEF, true)
	w.Op(0xCAFEBABE, true)
	log := w.Close(2, EndIntervalFull, nil)
	log.Entries = log.Entries[:1] // corrupt: cut the stream
	log.EntryBits = 8

	rd := dict.New(64)
	r := NewReader(log, rd)
	// First op may succeed or fail depending on where the cut landed, but
	// an error must surface before both entries decode.
	var sawErr bool
	for i := 0; i < 2; i++ {
		if _, _, err := r.Op(0); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr && r.Err() == nil {
		t.Error("truncated stream produced no error")
	}
}
