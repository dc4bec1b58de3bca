package coherence

import (
	"math/rand"
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
	held := d.ExternalWrite(0x400)
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
