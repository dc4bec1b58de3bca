package coherence

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPrivateBlockNoReplies(t *testing.T) {
	d := New(4, 64)
	if r := d.Load(0, 0x100); len(r) != 0 {
		t.Errorf("first load replies = %v", r)
	}
	if r := d.Store(0, 0x100); len(r) != 0 {
		t.Errorf("private store replies = %v", r)
	}
	if r := d.Load(0, 0x100); len(r) != 0 {
		t.Errorf("load of own modified block replies = %v", r)
	}
}

func TestLoadFromModifiedRemote(t *testing.T) {
	d := New(4, 64)
	d.Store(1, 0x200) // node 1 owns modified
	r := d.Load(0, 0x200)
	if len(r) != 1 || r[0] != 1 {
		t.Fatalf("replies = %v; want [1]", r)
	}
	// After the downgrade a second reader gets no reply.
	if r := d.Load(2, 0x200); len(r) != 0 {
		t.Errorf("post-downgrade load replies = %v", r)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	d := New(4, 64)
	d.Load(0, 0x300)
	d.Load(1, 0x300)
	d.Load(2, 0x300)
	r := d.Store(3, 0x300)
	if len(r) != 3 {
		t.Fatalf("invalidation acks = %v; want 3", r)
	}
	// Writer is now exclusive: its next store has no replies.
	if r := d.Store(3, 0x300); len(r) != 0 {
		t.Errorf("exclusive store replies = %v", r)
	}
	// A reader must now get a data reply from node 3.
	if r := d.Load(0, 0x300); len(r) != 1 || r[0] != 3 {
		t.Errorf("load after store replies = %v; want [3]", r)
	}
}

func TestBlockGranularity(t *testing.T) {
	d := New(2, 64)
	d.Store(0, 0x1000)
	// Same block, different word: still owned by 0.
	if r := d.Load(1, 0x103C); len(r) != 1 || r[0] != 0 {
		t.Errorf("same-block load replies = %v", r)
	}
	// Different block: no reply.
	if r := d.Load(1, 0x1040); len(r) != 0 {
		t.Errorf("different-block load replies = %v", r)
	}
}

func TestExternalWrite(t *testing.T) {
	d := New(4, 64)
	d.Load(0, 0x400)
	d.Load(1, 0x400)
	held := d.ExternalWriteRange(0x400, 4)
	if len(held) != 2 {
		t.Fatalf("holders = %v", held)
	}
	// Forgotten block: next store sees no sharers.
	if r := d.Store(2, 0x400); len(r) != 0 {
		t.Errorf("store after external write replies = %v", r)
	}
}

func TestExternalWriteRange(t *testing.T) {
	d := New(2, 64)
	d.Load(0, 0x1000)
	d.Load(0, 0x1040)
	d.Load(1, 0x1080)
	held := d.ExternalWriteRange(0x1004, 0x100)
	if len(held) != 2 {
		t.Errorf("holders = %v; want both nodes", held)
	}
	if r := d.Store(1, 0x1000); len(r) != 0 {
		t.Errorf("range write did not clear block: %v", r)
	}
}

func TestStats(t *testing.T) {
	d := New(2, 64)
	d.Load(0, 0)
	d.Store(1, 0)
	d.Load(0, 0)
	s := d.Stats()
	if s.Loads != 2 || s.Stores != 1 || s.Invalidations != 1 || s.DataReplies != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestPropertySingleWriterInvariant: after any operation sequence, at most
// one node can be the modified owner of a block, and a store always
// invalidates every other current sharer (so no node retains a stale copy).
func TestPropertySingleWriterInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(6)
		d := New(nodes, 16)
		// model[block] = set of nodes that may hold a valid copy
		model := map[uint32]map[int]bool{}
		hold := func(b uint32) map[int]bool {
			if model[b] == nil {
				model[b] = map[int]bool{}
			}
			return model[b]
		}
		for i := 0; i < 2000; i++ {
			n := rng.Intn(nodes)
			addr := uint32(rng.Intn(8)) * 16
			if rng.Intn(2) == 0 {
				d.Load(n, addr)
				hold(addr)[n] = true
			} else {
				replies := d.Store(n, addr)
				// Every modeled holder other than n must be invalidated.
				for h := range hold(addr) {
					if h == n {
						continue
					}
					found := false
					for _, r := range replies {
						if r == h {
							found = true
						}
					}
					if !found {
						t.Logf("store by %d at %#x missed holder %d (replies %v)", n, addr, h, replies)
						return false
					}
				}
				model[addr] = map[int]bool{n: true}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDirectoryDoesNotAllocate: Load and Store run on every guest memory
// access of a multi-threaded recording, and two nodes trading a line get a
// reply on each one; the replies come back in the directory's own scratch.
func TestDirectoryDoesNotAllocate(t *testing.T) {
	d := New(4, 64)
	for n := 0; n < 4; n++ {
		d.Load(n, 0x100) // the blocks exist before the count starts
		d.Load(n, 0x140)
	}
	replies := 0
	if n := testing.AllocsPerRun(1000, func() {
		replies += len(d.Store(0, 0x100)) // invalidates node 1 (and, first time, 2 and 3)
		replies += len(d.Load(1, 0x100))  // data reply from node 0
		replies += len(d.Store(1, 0x140))
		replies += len(d.Store(2, 0x140)) // ack from the modified owner
		replies += len(d.Load(3, 0x140))
	}); n != 0 {
		t.Errorf("Load+Store allocate %v times per sharing ping-pong; want 0", n)
	}
	if replies < 4000 {
		t.Errorf("ping-pong drew %d replies; want one on almost every access", replies)
	}
}

// pair drives a Directory and the reference model through the same calls
// and fails the test at the first reply or counter they disagree on.
type pair struct {
	t     *testing.T
	d     *Directory
	ref   *refDirectory
	nodes int
	calls int
}

func newPair(t *testing.T, nodes, blockBytes int) *pair {
	return &pair{t: t, d: New(nodes, blockBytes), ref: newRef(nodes, blockBytes), nodes: nodes}
}

// step applies one call: kind 0 a Load, 1 a Store, 2 an ExternalWriteRange
// of size bytes (one word, against the reference's ExternalWrite, when size
// is 0).
func (p *pair) step(kind, tid int, addr, size uint32) {
	p.t.Helper()
	p.calls++
	tid %= p.nodes
	var got, want []int
	var call string
	switch kind % 3 {
	case 0:
		call = fmt.Sprintf("Load(%d, %#x)", tid, addr)
		got, want = p.d.Load(tid, addr), p.ref.Load(tid, addr)
	case 1:
		call = fmt.Sprintf("Store(%d, %#x)", tid, addr)
		got, want = p.d.Store(tid, addr), p.ref.Store(tid, addr)
	default:
		if size == 0 {
			call = fmt.Sprintf("ExternalWriteRange(%#x, 4)", addr)
			got, want = p.d.ExternalWriteRange(addr, 4), p.ref.ExternalWrite(addr)
		} else {
			call = fmt.Sprintf("ExternalWriteRange(%#x, %d)", addr, size)
			got, want = p.d.ExternalWriteRange(addr, size), p.ref.ExternalWriteRange(addr, size)
		}
	}
	if !slices.Equal(got, want) {
		p.t.Fatalf("call %d, %s: replies %v, reference %v", p.calls, call, got, want)
	}
	if got, want := p.d.Stats(), p.ref.Stats(); got != want {
		p.t.Fatalf("call %d, %s: stats %+v, reference %+v", p.calls, call, got, want)
	}
}

// TestDirectoryMatchesReference: random Load, Store and external-write
// streams over 1 to 64 nodes and block sizes 4 to 256 bytes draw the same
// replies and counters from the flat table as from the map-based
// directory it replaced. Half the streams stay on a few hot blocks, where
// replies are frequent; the others spread over thousands, so the table
// doubles several times, and reach the top of the address space, where an
// external write's range wraps.
func TestDirectoryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(64)
		blockBytes := 4 << rng.Intn(7)
		p := newPair(t, nodes, blockBytes)
		span := uint32(16 * blockBytes)
		if seed%2 == 0 {
			span = uint32(8192 * blockBytes)
		}
		base := []uint32{0, 1 << 30, 2 << 30, -span}[rng.Intn(4)]
		for i := 0; i < 20_000; i++ {
			addr := base + uint32(rng.Int63n(int64(span)))&^3
			var size uint32
			if rng.Intn(4) != 0 {
				size = uint32(rng.Intn(4 * blockBytes))
			}
			kind := rng.Intn(3)
			if kind == 2 && rng.Intn(8) != 0 {
				kind = rng.Intn(2) // external writes are rarer than accesses
			}
			p.step(kind, rng.Intn(nodes), addr, size)
		}
		if seed%2 == 0 && len(p.d.slots) == initialSlots {
			t.Fatalf("seed %d: %d blocks touched and the table never grew", seed, p.d.used)
		}
	}
}

// TestExternalWriteRangeDoesNotInsert: a kernel or DMA write over memory no
// processor has touched looks its blocks up and leaves the table as it was.
func TestExternalWriteRangeDoesNotInsert(t *testing.T) {
	d := New(2, 64)
	d.Load(0, 0x1000)
	d.Store(1, 0x1040)
	used, size := d.used, len(d.slots)
	if held := d.ExternalWriteRange(0x10_0000, 1<<20); len(held) != 0 {
		t.Fatalf("untouched range had holders %v", held)
	}
	d.ExternalWriteRange(0x20_0000, 4)
	if d.used != used || len(d.slots) != size {
		t.Fatalf("external writes over untouched memory: %d keys in %d slots, want %d in %d", d.used, len(d.slots), used, size)
	}
	if held := d.ExternalWriteRange(0x1000, 0x80); len(held) != 2 {
		t.Fatalf("holders %v, want both nodes", held)
	}
	if d.used != used {
		t.Fatalf("forgetting touched blocks changed the key count %d to %d", used, d.used)
	}
}

// FuzzDirectoryVsReference is TestDirectoryMatchesReference over call
// streams the fuzzer writes: every five bytes are a call (kind, node, a
// 16-bit word index and an external write's size in half blocks), the
// word counted down from the top of the address space when the kind
// byte's high bit is set, so ranges wrap.
func FuzzDirectoryVsReference(f *testing.F) {
	f.Add(uint8(2), uint8(4), []byte{0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0})
	f.Add(uint8(64), uint8(6), []byte{1, 63, 0, 2, 0, 0, 5, 0, 2, 0, 2, 0, 0, 0, 9, 130, 0, 255, 255, 3})
	f.Add(uint8(3), uint8(0), []byte{0, 1, 2, 3, 0, 1, 2, 2, 3, 0, 2, 0, 2, 0, 1, 0, 0, 2, 3, 0})
	f.Fuzz(func(t *testing.T, nodes, blockLog uint8, data []byte) {
		blockBytes := 4 << (blockLog % 7)
		p := newPair(t, 1+int(nodes)%64, blockBytes)
		for ; len(data) >= 5; data = data[5:] {
			addr := (uint32(data[2])<<8 | uint32(data[3])) * 4
			if data[0]&0x80 != 0 {
				addr = -addr - 4
			}
			p.step(int(data[0]&0x7f), int(data[1]), addr, uint32(data[4])*uint32(blockBytes)/2)
		}
	})
}
