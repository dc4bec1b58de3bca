package fll

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"bugnet/internal/bits"
	"bugnet/internal/cache"
	"bugnet/internal/dict"
	"bugnet/internal/workload/accesstest"
)

// refEncode is the field-at-a-time encoder Writer.Op started as: one write
// per type bit and per field, Lookup and Update as separate calls. Writer
// fuses those host-side; the stream must not move by a bit.
func refEncode(hdr Header, ops []uint32, logged []bool) (stream []byte, nbits, uncBits uint64) {
	var w bits.Writer
	d := dict.New(int(hdr.DictSize))
	full := bitsFor(hdr.IntervalLimit)
	skip := uint64(0)
	for i, v := range ops {
		if !logged[i] {
			skip++
			d.Update(v)
			continue
		}
		width := uint(shortLCBits)
		if skip > shortLCMax {
			width = full
		}
		w.WriteBit(skip > shortLCMax)
		w.WriteBits(skip, width)
		rank, hit := d.Lookup(v)
		w.WriteBit(!hit)
		if hit {
			w.WriteBits(uint64(rank), d.IndexBits())
		} else {
			w.WriteBits(uint64(v), 32)
		}
		d.Update(v)
		uncBits += 1 + uint64(width) + 32
		skip = 0
	}
	return w.Bytes(), w.Len(), uncBits
}

// refEntry is one entry as refDecode reads it.
type refEntry struct {
	skip   uint64
	isRank bool
	raw    uint32 // the value, or its dictionary rank when isRank
}

// refRankCount is the rank count l's trailer states, worked in unbounded
// integers: each rank saves 32-indexBits bits of UncompressedBits +
// NumEntries - EntryBits. ok is false when that gives no whole count in
// [0, NumEntries].
func refRankCount(l *Log, indexBits uint) (ranks uint64, ok bool) {
	saved := new(big.Int).SetUint64(l.UncompressedBits)
	saved.Add(saved, new(big.Int).SetUint64(l.NumEntries))
	saved.Sub(saved, new(big.Int).SetUint64(l.EntryBits))
	n, rem := new(big.Int).QuoRem(saved, big.NewInt(int64(32-indexBits)), new(big.Int))
	if saved.Sign() < 0 || rem.Sign() != 0 || n.Cmp(new(big.Int).SetUint64(l.NumEntries)) > 0 {
		return 0, false
	}
	return n.Uint64(), true
}

// refDecode is refEncode's mirror, the field-at-a-time decoder Reader
// started as: one read per type bit and per field, the whole stream up
// front. It returns the entries before the first one the stream cuts
// short or the first rank beyond the trailer's count, and the error
// Reader gives for that one, whose text counts the LV-Type bit as the
// L-Count's.
func refDecode(l *Log, indexBits uint) ([]refEntry, error) {
	r := bits.NewReaderBits(l.Entries, l.EntryBits)
	full := bitsFor(l.IntervalLimit)
	ranks, limited := refRankCount(l, indexBits)
	var out []refEntry
	for i := uint64(0); i < l.NumEntries; i++ {
		long, err := r.ReadBit()
		if err != nil {
			return out, fmt.Errorf("fll: truncated entry %d: %w", i, err)
		}
		width := uint(shortLCBits)
		if long {
			width = full
		}
		skip, err := r.ReadBits(width)
		var raw bool
		if err == nil {
			raw, err = r.ReadBit()
		}
		if err != nil {
			return out, fmt.Errorf("fll: truncated L-Count in entry %d: %w", i, err)
		}
		width = 32
		if !raw {
			width = indexBits
		}
		v, err := r.ReadBits(width)
		if err != nil {
			return out, fmt.Errorf("fll: truncated value in entry %d: %w", i, err)
		}
		if !raw && limited {
			if ranks == 0 {
				return out, errors.New("fll: a rank beyond the trailer's rank count")
			}
			ranks--
		}
		out = append(out, refEntry{skip: skip, isRank: !raw, raw: uint32(v)})
	}
	return out, nil
}

// refReader replays refDecode's entries with the contract of Reader. It
// updates the table on every operation, as the paper does, where Reader
// stops after the last rank: the two agreeing shows the stop changes no
// value.
type refReader struct {
	entries    []refEntry
	decodeErr  error // reported once every entry before it is injected
	numEntries uint64
	d          *dict.Table
	k          int    // entries injected
	left       uint64 // ops entries[k] still waits for
	err        error  // a rank the table could not resolve
}

func newRefReader(l *Log, d *dict.Table) *refReader {
	r := &refReader{numEntries: l.NumEntries, d: d}
	r.entries, r.decodeErr = refDecode(l, d.IndexBits())
	if len(r.entries) > 0 {
		r.left = r.entries[0].skip
	}
	return r
}

func (r *refReader) failed() error {
	if r.err == nil && r.k == len(r.entries) {
		return r.decodeErr
	}
	return r.err
}

func (r *refReader) Op(memValue uint32) (uint32, bool, error) {
	if err := r.failed(); err != nil {
		return 0, false, err
	}
	if r.k == len(r.entries) || r.left > 0 {
		if r.k < len(r.entries) {
			r.left--
		}
		r.d.Update(memValue)
		return memValue, false, nil
	}
	e := r.entries[r.k]
	v := e.raw
	if e.isRank {
		dv, err := r.d.ValueAt(int(e.raw))
		if err != nil {
			r.err = fmt.Errorf("fll: entry %d: %w", r.k, err)
			return 0, false, r.err
		}
		v = dv
	}
	r.d.Update(v)
	if r.k++; r.k < len(r.entries) {
		r.left = r.entries[r.k].skip
	}
	return v, true, nil
}

func (r *refReader) Exhausted() bool { return r.failed() == nil && r.k == len(r.entries) }

func (r *refReader) PendingOne() bool {
	return r.failed() == nil && r.k < len(r.entries) && r.left == 0 && uint64(r.k+1) >= r.numEntries
}

func (r *refReader) Clone(d *dict.Table) *refReader {
	cp := *r
	cp.d = d
	return &cp
}

// TestWriterMatchesFieldAtATimeEncoding covers short L-Counts and long ones
// up to the widest (63 bits, where type bit and count fill the word), and
// checks Reader and DumpEntries decode what Writer fused.
func TestWriterMatchesFieldAtATimeEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, limit := range []uint64{4000, 10_000_000, maxIntervalLimit} {
		for _, dictSize := range []uint32{2, 64, 1024} {
			hdr := testHeader(dictSize)
			hdr.IntervalLimit = limit
			ops, logged := make([]uint32, 4000), make([]bool, 4000)
			logEvery := 1 + rng.Intn(60) // long L-Counts when sparse
			for i := range ops {
				ops[i] = uint32(rng.Intn(3 * int(dictSize)))
				if rng.Intn(8) == 0 {
					ops[i] = rng.Uint32()
				}
				logged[i] = rng.Intn(logEvery) == 0
			}
			w := NewWriter(hdr, dict.New(int(dictSize)))
			for i, v := range ops {
				w.Op(v, logged[i])
			}
			log := w.Close(4000, EndIntervalFull, nil)
			stream, nbits, unc := refEncode(hdr, ops, logged)
			if log.EntryBits != nbits || log.UncompressedBits != unc || !bytes.Equal(log.Entries, stream) {
				t.Fatalf("limit %d dict %d: entry stream differs from the field-at-a-time encoding", limit, dictSize)
			}
			if _, err := log.DumpEntries(0); err != nil {
				t.Fatalf("limit %d dict %d: structural decode: %v", limit, dictSize, err)
			}
			r := NewReader(log, dict.New(int(dictSize)))
			for i, v := range ops {
				mem := v
				if logged[i] {
					mem = ^v
				}
				got, injected, err := r.Op(mem)
				if err != nil || got != v || injected != logged[i] {
					t.Fatalf("limit %d dict %d op %d: replayed (%#x, %v, %v); recorded (%#x, %v)",
						limit, dictSize, i, got, injected, err, v, logged[i])
				}
			}
			if !r.Exhausted() {
				t.Fatalf("limit %d dict %d: reader not exhausted", limit, dictSize)
			}
		}
	}
}

// TestIntervalLimitBound: a limit of 2^63 or more would need a 64-bit
// L-Count; writers refuse it and a serialized log claiming one is malformed.
func TestIntervalLimitBound(t *testing.T) {
	hdr := testHeader(8)
	log := NewWriter(hdr, dict.New(8)).Close(0, EndExit, nil)
	log.IntervalLimit = maxIntervalLimit + 1
	if _, err := Unmarshal(log.Marshal()); err == nil {
		t.Error("Unmarshal accepted an interval limit of 2^63")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewWriter accepted an interval limit of 2^63")
		}
	}()
	NewWriter(log.Header, dict.New(8))
}

// loggedStream captures a SPEC analogue's loggable operations with the
// first-load verdicts the default cache gives them.
func loggedStream(program string) (ops []accesstest.Access, logs []bool) {
	stream := accesstest.Capture(program, 200_000)
	ops = accesstest.Loggable(stream)
	logs = make([]bool, 0, len(ops))
	h := cache.New(cache.DefaultConfig())
	for _, a := range stream {
		if a.NewInterval {
			h.ClearAllFL()
		}
		if a.WordStore {
			h.StoreSetFL(a.Addr)
		} else {
			logs = append(logs, !h.LoadTestAndSetFL(a.Addr))
		}
	}
	return ops, logs
}

// TestAppendEncodedIntoCallerSpace: every interval of the captured guest
// streams encodes into a reused buffer to the bytes CloseEncoded and
// Log.Marshal produce, behind whatever the buffer already held (the
// checksum covers the appended log alone), and costs no allocation once
// the buffer has the capacity.
func TestAppendEncodedIntoCallerSpace(t *testing.T) {
	prefix := []byte("three earlier logs")
	for _, prog := range []string{"gzip", "mcf"} {
		ops, logs := loggedStream(prog)
		d := dict.New(dict.DefaultSize)
		w := NewWriter(testHeader(dict.DefaultSize), d)
		var buf []byte
		intervals := 0
		check := func(length uint64) {
			intervals++
			fault := &FaultRecord{IC: length, PC: 0x400abc, Cause: 2}
			if intervals%2 == 0 {
				fault = nil
			}
			_, want := w.CloseEncoded(length, EndFault, fault)
			if got := w.Close(length, EndFault, fault).Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("%s interval %d: Log.Marshal differs from CloseEncoded", prog, intervals)
			}
			for _, pre := range [][]byte{nil, prefix} {
				var m Meta
				m, buf = w.AppendEncoded(append(buf[:0], pre...), length, EndFault, fault)
				if !bytes.Equal(buf[:len(pre)], pre) || !bytes.Equal(buf[len(pre):], want) {
					t.Fatalf("%s interval %d: AppendEncoded behind %d bytes differs from CloseEncoded", prog, intervals, len(pre))
				}
				if pm, err := ParseMeta(buf[len(pre):]); err != nil || pm.EntryBits != m.EntryBits {
					t.Fatalf("%s interval %d: appended log does not parse alone: %v", prog, intervals, err)
				}
			}
			if n := testing.AllocsPerRun(5, func() {
				_, buf = w.AppendEncoded(append(buf[:0], prefix...), length, EndFault, nil)
			}); n != 0 {
				t.Fatalf("%s interval %d: AppendEncoded into sufficient capacity allocates %v times; want 0", prog, intervals, n)
			}
		}
		n := uint64(0)
		for k, a := range ops {
			if a.NewInterval && k > 0 {
				check(n)
				d.Reset()
				w.Reset(testHeader(dict.DefaultSize), d)
				n = 0
			}
			w.Op(a.Val, logs[k])
			n++
		}
		check(n)
		if intervals < 10 {
			t.Fatalf("%s: stream made %d intervals; want at least 10", prog, intervals)
		}
	}
}

func TestWriterOpDoesNotAllocate(t *testing.T) {
	d := dict.New(64)
	w := NewWriter(testHeader(64), d)
	feed := func() {
		for i := uint32(0); i < 2000; i++ {
			w.Op(i*2654435761>>uint(i&3*8), i%3 != 0)
		}
	}
	feed() // grow the entry buffer once
	if n := testing.AllocsPerRun(20, func() {
		d.Reset()
		w.Reset(testHeader(64), d)
		feed()
	}); n != 0 {
		t.Errorf("Writer.Op allocates %v times per interval once the buffer has grown; want 0", n)
	}
}

func BenchmarkWriterOp(b *testing.B) {
	// Values and first-load verdicts are drawn before the clock starts;
	// the writer is rewound every 64K ops, as an interval end would.
	run := func(name string, val func(i uint32) uint32, logged func(i uint32) bool) {
		b.Run(name, func(b *testing.B) {
			const n = 1 << 16
			vals, logs := make([]uint32, n), make([]bool, n)
			for i := range vals {
				vals[i], logs[i] = val(uint32(i)), logged(uint32(i))
			}
			d := dict.New(dict.DefaultSize)
			w := NewWriter(testHeader(dict.DefaultSize), d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&(n-1) == 0 {
					d.Reset()
					w.Reset(testHeader(dict.DefaultSize), d)
				}
				w.Op(vals[i&(n-1)], logs[i&(n-1)])
			}
		})
	}
	always := func(uint32) bool { return true }
	run("miss_heavy", func(i uint32) uint32 { return i * 2654435761 }, always)
	run("hit_heavy", func(i uint32) uint32 { return i * 2654435761 >> 29 }, always)
	run("skip_heavy", func(i uint32) uint32 { return i * 2654435761 >> 27 },
		func(i uint32) bool { return i%50 == 0 })

	// gzip's loggable operations with the first-load verdicts the default
	// cache gives them, the writer rewound where a 10 K-instruction
	// interval would end.
	b.Run("gzip_stream", func(b *testing.B) {
		ops, logs := loggedStream("gzip")
		d := dict.New(dict.DefaultSize)
		w := NewWriter(testHeader(dict.DefaultSize), d)
		b.ReportAllocs()
		b.ResetTimer()
		for i, k := 0, 0; i < b.N; i, k = i+1, k+1 {
			if k == len(ops) {
				k = 0
			}
			if ops[k].NewInterval {
				d.Reset()
				w.Reset(testHeader(dict.DefaultSize), d)
			}
			w.Op(ops[k].Val, logs[k])
		}
	})
}
