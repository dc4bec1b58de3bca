package mem

import (
	"math/rand"
	"testing"
)

// TestSnapshotChainIsolation: chained snapshots and interleaved writes
// never leak through the copy-on-write sharing, in either direction.
func TestSnapshotChainIsolation(t *testing.T) {
	m := New()
	m.Map(0x2000, 4*PageSize)
	m.StoreWord(0x2000, 1)

	s1 := m.Snapshot()
	m.StoreWord(0x2000, 2)
	s2 := m.Snapshot()
	m.StoreWord(0x2000, 3)
	s3 := s2.Snapshot() // snapshot of a snapshot
	m.StoreWord(0x3000, 33)

	for i, want := range map[*Memory]uint32{s1: 1, s2: 2, s3: 2, m: 3} {
		if v, _ := i.LoadWord(0x2000); v != want {
			t.Errorf("image sees %d, want %d", v, want)
		}
	}
	// Writing a snapshot must not disturb the live image or its siblings.
	if err := s2.StoreWord(0x2000, 99); err != nil {
		t.Fatal(err)
	}
	if v, _ := s3.LoadWord(0x2000); v != 2 {
		t.Errorf("sibling snapshot saw snapshot write: %d", v)
	}
	if v, _ := m.LoadWord(0x2000); v != 3 {
		t.Errorf("live image saw snapshot write: %d", v)
	}
	if v, _ := m.LoadWord(0x3000); v != 33 {
		t.Errorf("post-snapshot write lost: %d", v)
	}
}

// TestSnapshotUnmapIsolation: unmapping in one image leaves the other's
// pages intact.
func TestSnapshotUnmapIsolation(t *testing.T) {
	m := New()
	m.Map(0, 2*PageSize)
	m.StoreWord(0, 7)
	s := m.Snapshot()
	m.Unmap(0, PageSize)
	if m.Mapped(0) {
		t.Fatal("page still mapped")
	}
	if !s.Mapped(0) {
		t.Fatal("snapshot lost its page to the live image's Unmap")
	}
	if v, _ := s.LoadWord(0); v != 7 {
		t.Fatalf("snapshot page corrupted: %d", v)
	}
	if m.MappedPages() != 1 || s.MappedPages() != 2 {
		t.Fatalf("page counts: live %d, snapshot %d", m.MappedPages(), s.MappedPages())
	}
}

// TestGenInvalidation: cached Page pointers must be detectable as stale
// through Gen whenever a copy-on-write or an Unmap replaces the backing
// array — the CPU's predecoded blocks depend on this.
func TestGenInvalidation(t *testing.T) {
	m := New()
	m.Map(0, PageSize)
	m.StoreWord(0, 0xAA)
	p := m.Page(0)
	gen := m.Gen()

	// In-place writes (no sharing) keep the pointer valid: same gen.
	m.StoreWord(4, 0xBB)
	if m.Gen() != gen || m.Page(0) != p {
		t.Fatal("unshared write invalidated the page pointer")
	}

	// A snapshot then a write forces a copy: gen must move and the new
	// array must carry the write.
	s := m.Snapshot()
	m.StoreWord(8, 0xCC)
	if m.Gen() == gen {
		t.Fatal("copy-on-write did not bump Gen")
	}
	if m.Page(0) == p {
		t.Fatal("page array not replaced by copy-on-write")
	}
	if v, _ := m.LoadWord(8); v != 0xCC {
		t.Fatalf("write lost in copy: %#x", v)
	}
	if v, _ := s.LoadWord(8); v == 0xCC {
		t.Fatal("snapshot saw post-snapshot write")
	}

	gen = m.Gen()
	m.Unmap(0, PageSize)
	if m.Gen() == gen {
		t.Fatal("Unmap did not bump Gen")
	}
}

// TestPageNumbersSorted: the dense table yields ascending page numbers.
func TestPageNumbersSorted(t *testing.T) {
	m := New()
	for _, p := range []uint32{900, 3, 77, 1 << 19} {
		m.Map(p<<PageShift, 1)
	}
	ns := m.PageNumbers()
	want := []uint32{3, 77, 900, 1 << 19}
	if len(ns) != len(want) {
		t.Fatalf("PageNumbers = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("PageNumbers = %v, want %v", ns, want)
		}
	}
}

// TestStoreBytesPartialWriteSemantics: StoreBytes fails at the first
// unmapped byte with that byte's address, leaving earlier bytes written —
// the contract FDR's undo-restore and the kernel loader rely on.
func TestStoreBytesPartialWriteSemantics(t *testing.T) {
	m := New()
	m.Map(0, PageSize) // page 1 unmapped
	src := make([]byte, 16)
	for i := range src {
		src[i] = byte(i + 1)
	}
	err := m.StoreBytes(PageSize-8, src)
	if err == nil {
		t.Fatal("store across unmapped boundary succeeded")
	}
	ae, ok := err.(*AccessError)
	if !ok || ae.Addr != PageSize || ae.Kind != AccessWrite {
		t.Fatalf("error = %v; want write fault at %#x", err, PageSize)
	}
	for i := 0; i < 8; i++ {
		b, _ := m.LoadByte(PageSize - 8 + uint32(i))
		if b != src[i] {
			t.Fatalf("prefix byte %d = %d, want %d", i, b, src[i])
		}
	}
	// LoadBytes mirrors the addressing.
	dst := make([]byte, 16)
	err = m.LoadBytes(PageSize-8, dst)
	ae, ok = err.(*AccessError)
	if !ok || ae.Addr != PageSize || ae.Kind != AccessRead {
		t.Fatalf("load error = %v; want read fault at %#x", err, PageSize)
	}
}

// TestSnapshotRandomizedEquivalence: under a random interleaving of
// writes and snapshots, every snapshot must equal an eagerly deep-copied
// reference taken at the same moment.
func TestSnapshotRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := New()
	const span = 8 * PageSize
	m.Map(0, span)
	type ref struct {
		snap *Memory
		data []byte
	}
	var refs []ref
	for i := 0; i < 2000; i++ {
		switch rng.Intn(10) {
		case 0:
			data := make([]byte, span)
			if err := m.LoadBytes(0, data); err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref{snap: m.Snapshot(), data: data})
		default:
			addr := uint32(rng.Intn(span/4)) * 4
			if err := m.StoreWord(addr, rng.Uint32()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, r := range refs {
		got := make([]byte, span)
		if err := r.snap.LoadBytes(0, got); err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != r.data[j] {
				t.Fatalf("snapshot %d diverges at byte %#x", i, j)
			}
		}
	}
}

// TestSetWordWritesOnlyChanges: SetWord reports a change only when the word
// held another value, copies a page shared with a snapshot only then (Gen
// moves once), and never reaches the snapshot; unmapped and misaligned
// words fail as StoreWord does.
func TestSetWordWritesOnlyChanges(t *testing.T) {
	m := New()
	m.Map(0x2000, PageSize)
	m.StoreWord(0x2004, 5)
	s := m.Snapshot()
	gen := m.Gen()
	if changed, err := m.SetWord(0x2004, 5); changed || err != nil {
		t.Fatalf("SetWord of the value held: changed %v, %v", changed, err)
	}
	if m.Gen() != gen || m.Page(2) != s.Page(2) {
		t.Fatal("SetWord of the value held copied the shared page")
	}
	if changed, err := m.SetWord(0x2004, 6); !changed || err != nil {
		t.Fatalf("SetWord of a new value: changed %v, %v", changed, err)
	}
	if m.Gen() != gen+1 || m.Page(2) == s.Page(2) {
		t.Fatal("SetWord of a new value wrote without copying the shared page")
	}
	if changed, err := m.SetWord(0x2004, 7); !changed || err != nil || m.Gen() != gen+1 {
		t.Fatalf("SetWord on the now private page: changed %v, %v, Gen moved %d", changed, err, m.Gen()-gen)
	}
	if v, _ := m.LoadWord(0x2004); v != 7 {
		t.Fatalf("live image holds %d, want 7", v)
	}
	if v, _ := s.LoadWord(0x2004); v != 5 {
		t.Fatalf("snapshot holds %d, want 5", v)
	}
	if _, err := m.SetWord(0x9000, 1); err == nil {
		t.Fatal("SetWord of an unmapped word succeeded")
	}
	if _, err := m.SetWord(0x2002, 1); err == nil {
		t.Fatal("SetWord of a misaligned word succeeded")
	}
}
