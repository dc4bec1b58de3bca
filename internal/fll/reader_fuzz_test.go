package fll_test

import (
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/dict"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
	"bugnet/internal/workload"
)

// archiveSource is the crashing program whose packed recording seeds the
// report package's FuzzOpenArchive.
const archiveSource = `
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

// seedLogs returns every FLL of the three recordings core's wire-pin test
// hashes and of FuzzOpenArchive's seed archive, each read back from a
// packed archive.
func seedLogs(tb testing.TB) []*fll.Log {
	var reps []*core.CrashReport
	mt := workload.MTShare()
	for _, c := range []struct {
		w        *workload.Workload
		kcfg     kernel.Config
		interval uint64
	}{
		{workload.ByName("gzip"), kernel.Config{MaxSteps: 50_000}, 10_000},
		{workload.ByName("gzip"), kernel.Config{MaxSteps: 450_000}, 10_000},
		{mt, kernel.Config{Cores: mt.Kernel.Cores, MaxSteps: 100_000}, 5_000},
	} {
		m := kernel.New(c.w.Image, c.kcfg, nil)
		rec := core.NewRecorder(m, core.Config{IntervalLength: c.interval})
		m.Run()
		rec.Flush()
		reps = append(reps, rec.Report())
	}
	_, rep, _ := core.Record(asm.MustAssemble("crash.s", archiveSource), kernel.Config{}, core.Config{IntervalLength: 16})
	reps = append(reps, rep)

	var logs []*fll.Log
	for _, rep := range reps {
		blob, err := report.Pack(rep)
		if err != nil {
			tb.Fatal(err)
		}
		got, err := report.Unpack(blob)
		if err != nil {
			tb.Fatal(err)
		}
		logs = append(logs, recordedLogs(tb, got)...)
	}
	return logs
}

// FuzzReaderVsReference holds Reader, which takes an entry from one 64-bit
// word when it fits, to the field-at-a-time reference decoder over any
// entry bytes and geometry: interval limits up to 2^63-1 make entries too
// wide for one word, and short streams cut entries anywhere. Both must
// return the same (value, injected, error) for every operation, with the
// same error text, and agree on Exhausted and PendingOne after each; a
// clone of either taken mid-stream must go on as the original does.
//
// unc sets UncompressedBits, the trailer counter the rank count comes
// from: an odd unc is unc>>1 itself, an even one the value that counts
// the stream's ranks plus int8(unc>>1), so consistent trailers (0), ones
// counting too many ranks (above 0) and too few (below 0) all come up.
func FuzzReaderVsReference(f *testing.F) {
	for _, l := range seedLogs(f) {
		dictLog := uint8(0)
		for 2<<dictLog < l.DictSize {
			dictLog++
		}
		for _, delta := range []int8{0, 1, -1} {
			f.Add(l.Entries, l.EntryBits, l.NumEntries, l.IntervalLimit, dictLog, uint64(l.CID), uint16(l.Ops/2), uint64(uint8(delta))<<1)
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint64(100), uint64(3),
		uint64(fll.MaxIntervalLimit), uint8(5), uint64(1), uint16(0), uint64(1))

	const maxOps = 1 << 12
	f.Fuzz(func(t *testing.T, entries []byte, entryBits, numEntries, limit uint64, dictLog uint8, seed uint64, cloneAt uint16, unc uint64) {
		l := &fll.Log{Entries: entries}
		l.EntryBits = min(entryBits, uint64(len(entries))*8)
		l.NumEntries = numEntries
		l.IntervalLimit = 1 + limit%fll.MaxIntervalLimit
		l.DictSize = 2 << (dictLog % 16)
		size := int(l.DictSize)
		l.UncompressedBits = unc >> 1
		if unc&1 == 0 {
			dumped, _ := l.DumpEntries(0)
			ranks := int64(0)
			for _, e := range dumped {
				if e.FromDict {
					ranks++
				}
			}
			perRank := uint64(31 - dictLog%16) // 32 - IndexBits
			l.UncompressedBits = l.EntryBits - l.NumEntries + uint64(ranks+int64(int8(unc>>1)))*perRank
		}

		gotD, wantD := dict.New(size), dict.New(size)
		got, want := fll.NewReader(l, gotD), fll.NewFieldReader(l, wantD)
		var gotC *fll.Reader
		var wantC *fll.FieldReader
		x := seed | 1
		for op := 0; op < maxOps; op++ {
			if op == int(cloneAt) {
				gotC, wantC = got.Clone(gotD.Clone()), want.Clone(wantD.Clone())
			}
			// A value a small table holds half the time, so ranks hit.
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			mem := uint32(x >> 32)
			if x&1 == 0 {
				mem %= 13
			}
			gv, gi, gerr := got.Op(mem)
			wv, wi, werr := want.Op(mem)
			if gv != wv || gi != wi || errText(gerr) != errText(werr) {
				t.Fatalf("op %d: reader (%#x, %v, %v); reference (%#x, %v, %v)", op, gv, gi, gerr, wv, wi, werr)
			}
			if got.Exhausted() != want.Exhausted() || got.PendingOne() != want.PendingOne() {
				t.Fatalf("op %d: reader exhausted %v, pending one %v; reference %v, %v",
					op, got.Exhausted(), got.PendingOne(), want.Exhausted(), want.PendingOne())
			}
			if gotC != nil {
				cv, ci, cerr := gotC.Op(mem)
				rv, ri, rerr := wantC.Op(mem)
				if cv != gv || ci != gi || errText(cerr) != errText(gerr) || rv != wv || ri != wi || errText(rerr) != errText(werr) {
					t.Fatalf("op %d: clones gave (%#x, %v, %v) and (%#x, %v, %v); originals (%#x, %v, %v)",
						op, cv, ci, cerr, rv, ri, rerr, gv, gi, gerr)
				}
				if gotC.Exhausted() != got.Exhausted() || gotC.PendingOne() != got.PendingOne() ||
					wantC.Exhausted() != want.Exhausted() || wantC.PendingOne() != want.PendingOne() {
					t.Fatalf("op %d: a clone's Exhausted or PendingOne differs from its original's", op)
				}
			}
			if gerr != nil || got.Exhausted() {
				return
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
