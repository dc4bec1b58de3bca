package core_test

import (
	"errors"
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"

	"bugnet/internal/core"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/workload"
)

var (
	pinnedOnce sync.Once
	pinnedLogs []*fll.Log
)

// pinnedGzip returns the intervals of the gzip_450k_interval_10k recording
// wirepin_test.go pins, past gzip's warm-up: ranks reach the wire there.
func pinnedGzip(tb testing.TB) []*fll.Log {
	pinnedOnce.Do(func() {
		m := kernel.New(workload.ByName("gzip").Image, kernel.Config{MaxSteps: 450_000}, nil)
		rec := core.NewRecorder(m, core.Config{IntervalLength: 10_000})
		m.Run()
		rec.Flush()
		for _, ref := range rec.Report().FLLs[0] {
			l, err := ref.Open()
			if err != nil {
				panic(err)
			}
			pinnedLogs = append(pinnedLogs, l)
		}
	})
	if len(pinnedLogs) == 0 {
		tb.Fatal("recording the pinned gzip window failed earlier")
	}
	return pinnedLogs
}

// rankBits is what one rank entry saves against UncompressedBits: the
// trailer's rank count moves by one when UncompressedBits moves by it.
func rankBits(l *fll.Log) uint64 { return uint64(32 - bits.TrailingZeros32(l.DictSize)) }

// withRanks returns a copy of l whose trailer counts delta more ranks.
func withRanks(l *fll.Log, delta int64) *fll.Log {
	c := *l
	c.UncompressedBits += uint64(delta) * rankBits(l)
	return &c
}

// stepAll runs the whole replay on one machine and returns how many
// instructions it executed before it ended or failed.
func stepAll(r *core.Replayer) (uint64, error) {
	return r.Machine(core.MachineOptions{}).StepN(math.MaxUint64)
}

// TestTrailerRankCountMismatch: a trailer that counts one rank too few
// stops replay with ErrDiverged at the rank it leaves out; one that counts
// one too many replays the window exactly as the true trailer does.
func TestTrailerRankCountMismatch(t *testing.T) {
	logs := pinnedGzip(t)
	img := workload.ByName("gzip").Image
	clean, err := core.NewReplayerLogs(img, logs).Run()
	if err != nil {
		t.Fatal(err)
	}
	var more []*fll.Log
	short := 0
	for i, l := range logs {
		more = append(more, withRanks(l, 1))
		if l.UncompressedBits+l.NumEntries == l.EntryBits {
			continue // no rank to leave out
		}
		short++
		window := append([]*fll.Log(nil), logs...)
		window[i] = withRanks(l, -1)
		_, err := stepAll(core.NewReplayerLogs(img, window).Intervals(i, i+1))
		if !errors.Is(err, core.ErrDiverged) || !strings.Contains(err.Error(), "rank beyond") {
			t.Fatalf("interval %d counting one rank too few: %v; want a divergence at a rank beyond the count", i, err)
		}
	}
	if short == 0 {
		t.Fatal("no interval of the window holds a rank")
	}
	got, err := core.NewReplayerLogs(img, more).Run()
	if err != nil {
		t.Fatalf("trailers counting one rank too many: %v", err)
	}
	if got.Final != clean.Final || got.Instructions != clean.Instructions || got.Injected != clean.Injected {
		t.Fatalf("trailers counting one rank too many replayed to pc %#x after %d instructions, %d injected; the true ones to %#x, %d, %d",
			got.Final.PC, got.Instructions, got.Injected, clean.Final.PC, clean.Instructions, clean.Injected)
	}
}

// TestBadDictSizeRefused: an interval whose header names a dictionary the
// replayer cannot build (not a power of two in [2, 65536]) fails replay
// with fll.ErrBadFormat rather than panicking in dict.NewWithOptions.
func TestBadDictSizeRefused(t *testing.T) {
	logs := pinnedGzip(t)
	img := workload.ByName("gzip").Image
	for _, size := range []uint32{0, 1, 3, 96, 1 << 17} {
		l := *logs[0]
		l.DictSize = size
		window := append([]*fll.Log{&l}, logs[1:]...)
		r := core.NewReplayerLogs(img, window)
		r.MaxPages = 256
		if _, err := r.Run(); !errors.Is(err, fll.ErrBadFormat) {
			t.Errorf("DictSize %d: replay returned %v; want fll.ErrBadFormat", size, err)
		}
	}
}

// FuzzReplayInterval feeds hostile bytes through replay: one interval of
// the pinned gzip window, its trailer counters and entry bytes mutated and
// re-marshalled (so the checksum holds), replayed alone under a page
// budget. Replay must not panic, must succeed or fail with ErrDiverged or
// fll.ErrBadFormat, and must execute no more instructions than the
// interval's Length. A machine that tracks the known set, and so hooks
// every loggable operation where the other counts L-Counts down, must end
// the same way: the same error text, or the same instructions, final state
// and injected values. Counters and the header's DictSize are XORed with the
// fuzz values, except that an even unc moves UncompressedBits by
// int8(unc>>1) ranks, so trailers that count a few ranks too many or too
// few come up; Length moves in its low 16 bits only, which keeps one run
// short.
func FuzzReplayInterval(f *testing.F) {
	logs := pinnedGzip(f)
	for i, l := range logs {
		if l.UncompressedBits+l.NumEntries != l.EntryBits { // holds a rank
			for _, delta := range []int8{0, 1, -1} {
				f.Add(uint8(i), uint64(0), uint64(0), uint64(0), uint64(0), uint64(uint8(delta))<<1, uint32(0), uint32(0), []byte(nil))
			}
		}
	}
	f.Add(uint8(40), uint64(0), uint64(0), uint64(3), uint64(0), uint64(0), uint32(0), uint32(17), []byte{0x80})
	f.Add(uint8(41), uint64(1), uint64(0), uint64(0), uint64(0), uint64(0), uint32(0), uint32(0), []byte(nil))
	f.Add(uint8(42), uint64(0), uint64(5), uint64(0), uint64(100), uint64(1), uint32(0), uint32(3), []byte{0xff, 0xff})
	f.Add(uint8(43), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint32(3), uint32(0), []byte(nil))
	f.Add(uint8(44), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint32(64), uint32(0), []byte(nil))
	img := workload.ByName("gzip").Image

	f.Fuzz(func(t *testing.T, idx uint8, entryBits, numEntries, ops, length, unc uint64, dictSize, at uint32, patch []byte) {
		i := int(idx) % len(logs)
		l := *logs[i]
		l.Entries = append([]byte(nil), l.Entries...)
		for k, b := range patch {
			if len(l.Entries) > 0 {
				l.Entries[(int(at)+k)%len(l.Entries)] ^= b
			}
		}
		l.EntryBits ^= entryBits
		l.NumEntries ^= numEntries
		l.Ops ^= ops
		l.Length ^= length & 0xffff
		if unc&1 == 0 {
			l.UncompressedBits += uint64(int64(int8(unc>>1))) * rankBits(&l)
		} else {
			l.UncompressedBits ^= unc >> 1
		}
		l.DictSize ^= dictSize
		window := append([]*fll.Log(nil), logs...)
		window[i] = &l
		machine := func(known bool) *core.ReplayMachine {
			r := core.NewReplayerLogs(img, window).Intervals(i, i+1)
			r.MaxPages = 256
			return r.Machine(core.MachineOptions{TrackKnown: known})
		}
		m := machine(false)
		n, err := m.StepN(math.MaxUint64)
		if err != nil && !errors.Is(err, core.ErrDiverged) && !errors.Is(err, fll.ErrBadFormat) {
			t.Fatalf("replay failed with %v; want ErrDiverged or fll.ErrBadFormat", err)
		}
		if n > l.Length {
			t.Fatalf("replay executed %d instructions of a %d-instruction interval", n, l.Length)
		}
		hm := machine(true)
		hn, herr := hm.StepN(math.MaxUint64)
		if (err == nil) != (herr == nil) || err != nil && err.Error() != herr.Error() {
			t.Fatalf("replay ended with %v; hooking every operation, with %v", err, herr)
		}
		got, want := m.Result(), hm.Result()
		if err == nil && (n != hn || got.Final != want.Final || got.Injected != want.Injected) {
			t.Fatalf("replay ran %d instructions to pc %#x, %d injected; hooking every operation, %d to %#x, %d",
				n, got.Final.PC, got.Injected, hn, want.Final.PC, want.Injected)
		}
	})
}
