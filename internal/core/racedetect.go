package core

import (
	"cmp"
	"fmt"
	"sort"

	"bugnet/internal/asm"
	"bugnet/internal/isa"
)

// Race is one inferred data race: two accesses to the same word from
// different threads, at least one a write, not both atomic, with no
// happens-before path of synchronization operations between them.
//
// Paper §5.2 explains that the replayed sequential order plus the MRLs let
// the developer infer data races; this detector automates the analysis in
// the style of RecPlay (cited by the paper). Coherence replies order the
// conflicting accesses — including the races themselves — so
// happens-before cannot come from the MRL edges; it comes from the
// program's synchronization operations instead:
//
//   - atomic accesses (AMOSWAP/AMOADD) are synchronization: each one
//     acquires the vector clock last published at its word and releases
//     the thread's own clock there, building the lock/flag happens-before
//     order; atomic-vs-atomic conflicts are never races;
//   - plain accesses are data: a plain access that conflicts with any
//     other thread's earlier plain OR atomic access without an
//     intervening synchronization path is reported.
//
// This matches the C11-style discipline: spinlocks must release with an
// atomic store and flags must be read atomically, or the detector calls
// out the plain access — which is exactly the class of bug it exists to
// find.
//
// The report is a function of the recording. A load draws an MRL reply
// from the block's modified owner and a store from every other sharer,
// each logging where that thread stood. With two threads this orders every
// conflicting pair of accesses to a word; only reads, which never race
// with reads, may swap. An instance depends on that order, on each
// thread's instruction count and on the clocks its atomics acquired, so
// every interleaving the MRLs admit flags the same instances. Outside the
// argument: with three or more threads, a load of a block another reader
// already took from its owner draws no reply; and an external write
// (kernel copy-in, DMA) clears a block's state. Either leaves a pair the
// detector may see in either order, so a race's two sides are unordered:
// side 1 is the lesser by (TID, PC, IsWrite), whichever access the replay
// met first. Per unordered PC pair the report keeps the least instance by
// (Addr, TID1, PC1, IsWrite1, TID2, PC2, IsWrite2), not the first to
// arrive.
type Race struct {
	Addr uint32 // conflicting word
	// One access, the lesser side by (TID, PC, IsWrite).
	TID1     int
	PC1      uint32
	IsWrite1 bool
	// The other access.
	TID2     int
	PC2      uint32
	IsWrite2 bool
}

func (r Race) String() string {
	k := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	return fmt.Sprintf("race on %#08x: T%d %s at %#x vs T%d %s at %#x",
		r.Addr, r.TID1, k(r.IsWrite1), r.PC1, r.TID2, k(r.IsWrite2), r.PC2)
}

// accessInfo is the last access of one kind to a word by one thread.
type accessInfo struct {
	idx uint64 // 1-based thread-local instruction index; 0 = none
	pc  uint32
}

// wordState tracks per-word access history, split by discipline.
type wordState struct {
	clock  []uint64     // vector clock last published by an atomic access
	plainW []accessInfo // per-thread last plain write
	plainR []accessInfo // per-thread last plain read
	atomW  []accessInfo // per-thread last atomic access (RMW = write)
}

// raceDetector runs vector-clock conflict detection over the access stream
// of a multithreaded replay, which arrives in a valid sequential order.
type raceDetector struct {
	img    *asm.Image
	n      int
	vc     [][]uint64 // per-thread synchronization clocks
	words  map[uint32]*wordState
	found  map[[2]uint32]Race
	decode map[uint32]bool // pc -> is atomic (memoized)
}

func newRaceDetector(img *asm.Image, nThreads int) *raceDetector {
	d := &raceDetector{
		img:    img,
		n:      nThreads,
		vc:     make([][]uint64, nThreads),
		words:  make(map[uint32]*wordState),
		found:  make(map[[2]uint32]Race),
		decode: make(map[uint32]bool),
	}
	for i := range d.vc {
		d.vc[i] = make([]uint64, nThreads)
	}
	return d
}

// isAtomic reports whether the instruction at pc is an AMO, decoding from
// the program image (code is immutable during replay analysis).
func (d *raceDetector) isAtomic(pc uint32) bool {
	if v, ok := d.decode[pc]; ok {
		return v
	}
	atomic := false
	off := pc - d.img.TextBase
	if pc >= d.img.TextBase && int(off)+4 <= len(d.img.Text) {
		w := uint32(d.img.Text[off]) | uint32(d.img.Text[off+1])<<8 |
			uint32(d.img.Text[off+2])<<16 | uint32(d.img.Text[off+3])<<24
		atomic = isa.Decode(w).Op.IsAMO()
	}
	d.decode[pc] = atomic
	return atomic
}

// access processes one replayed memory access. progress is the thread's
// committed-instruction count before this access; accesses arrive in the
// reconstructed sequential order.
func (d *raceDetector) access(tid int, progress uint64, pc uint32, wordAddr uint32, isWrite bool) {
	ws := d.words[wordAddr]
	if ws == nil {
		ws = &wordState{
			plainW: make([]accessInfo, d.n),
			plainR: make([]accessInfo, d.n),
			atomW:  make([]accessInfo, d.n),
		}
		d.words[wordAddr] = ws
	}
	myIdx := progress + 1
	vc := d.vc[tid]
	vc[tid] = myIdx

	if d.isAtomic(pc) {
		// Synchronization: acquire the word's published clock, then
		// publish our own (lock handoff). Atomic accesses still conflict
		// with unordered *plain* accesses by other threads.
		if ws.clock == nil {
			ws.clock = make([]uint64, d.n)
		}
		for u := 0; u < d.n; u++ {
			if ws.clock[u] > vc[u] {
				vc[u] = ws.clock[u]
			}
		}
		for u := 0; u < d.n; u++ {
			if u == tid {
				continue
			}
			if w := ws.plainW[u]; w.idx != 0 && vc[u] < w.idx {
				d.report(wordAddr, u, w, true, tid, pc, true)
			}
			if r := ws.plainR[u]; r.idx != 0 && vc[u] < r.idx {
				d.report(wordAddr, u, r, false, tid, pc, true)
			}
		}
		for u := 0; u < d.n; u++ {
			if vc[u] > ws.clock[u] {
				ws.clock[u] = vc[u]
			}
		}
		ws.atomW[tid] = accessInfo{idx: myIdx, pc: pc}
		return
	}

	// Plain access: conflicts with every unordered other-thread write
	// (plain or atomic); a plain write also conflicts with unordered
	// reads.
	for u := 0; u < d.n; u++ {
		if u == tid {
			continue
		}
		if w := ws.plainW[u]; w.idx != 0 && vc[u] < w.idx {
			d.report(wordAddr, u, w, true, tid, pc, isWrite)
		}
		if w := ws.atomW[u]; w.idx != 0 && vc[u] < w.idx {
			d.report(wordAddr, u, w, true, tid, pc, isWrite)
		}
		if isWrite {
			if r := ws.plainR[u]; r.idx != 0 && vc[u] < r.idx {
				d.report(wordAddr, u, r, false, tid, pc, true)
			}
		}
	}
	if isWrite {
		ws.plainW[tid] = accessInfo{idx: myIdx, pc: pc}
	} else {
		ws.plainR[tid] = accessInfo{idx: myIdx, pc: pc}
	}
}

func (d *raceDetector) report(addr uint32, tid1 int, a1 accessInfo, w1 bool,
	tid2 int, pc2 uint32, w2 bool) {
	if !w1 && !w2 {
		return // read-read never races
	}
	// One static race is one unordered PC pair, the roles in either order;
	// it keeps its least instance, the lesser side first (see Race).
	key := [2]uint32{min(a1.pc, pc2), max(a1.pc, pc2)}
	r := Race{addr, tid1, a1.pc, w1, tid2, pc2, w2}
	if flipped := (Race{addr, tid2, pc2, w2, tid1, a1.pc, w1}); flipped.less(r) {
		r = flipped
	}
	if old, dup := d.found[key]; !dup || r.less(old) {
		d.found[key] = r
	}
}

// less orders instances by (Addr, TID1, PC1, IsWrite1, TID2, PC2, IsWrite2),
// a read before a write.
func (r Race) less(o Race) bool {
	bit := func(w bool) int {
		if w {
			return 1
		}
		return 0
	}
	return cmp.Or(cmp.Compare(r.Addr, o.Addr), cmp.Compare(r.TID1, o.TID1),
		cmp.Compare(r.PC1, o.PC1), cmp.Compare(bit(r.IsWrite1), bit(o.IsWrite1)),
		cmp.Compare(r.TID2, o.TID2), cmp.Compare(r.PC2, o.PC2),
		cmp.Compare(bit(r.IsWrite2), bit(o.IsWrite2))) < 0
}

// races returns the deduplicated findings in a stable order.
func (d *raceDetector) races() []Race {
	out := make([]Race, 0, len(d.found))
	for _, r := range d.found {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PC1 != out[j].PC1 {
			return out[i].PC1 < out[j].PC1
		}
		if out[i].PC2 != out[j].PC2 {
			return out[i].PC2 < out[j].PC2
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}
