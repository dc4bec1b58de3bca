package triage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bugnet/internal/report"
)

func blobOf(n int, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, n)
}

func TestStorePutGetDedup(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	data := blobOf(100, 'a')
	id, existed, err := s.Put(data)
	if err != nil || existed {
		t.Fatalf("first Put: id=%q existed=%v err=%v", id, existed, err)
	}
	if id != report.ID(data) {
		t.Errorf("id %q is not the content address", id)
	}
	id2, existed, err := s.Put(data)
	if err != nil || !existed || id2 != id {
		t.Fatalf("second Put: id=%q existed=%v err=%v", id2, existed, err)
	}
	if st := s.Stats(); st.RetainedCount != 1 || st.TotalCount != 1 {
		t.Errorf("dedup stored twice: %+v", st)
	}
	got, err := s.Get(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get: %v", err)
	}
	// Blob must land in the two-level hash-prefix fan-out.
	if _, err := os.Stat(filepath.Join(s.root, id[:2], id[2:4], id+blobExt)); err != nil {
		t.Errorf("blob not sharded: %v", err)
	}
}

func TestStoreEvictsOldestUnderBudget(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 250)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		id, _, err := s.Put(blobOf(100, byte('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	st := s.Stats()
	if st.RetainedCount != 2 || st.EvictedCount != 2 || st.RetainedBytes != 200 {
		t.Fatalf("eviction stats: %+v", st)
	}
	for _, id := range ids[:2] {
		if s.Has(id) {
			t.Errorf("oldest blob %s survived eviction", id[:8])
		}
		if _, err := s.Get(id); err == nil {
			t.Errorf("evicted blob %s still readable", id[:8])
		}
	}
	for _, id := range ids[2:] {
		if !s.Has(id) {
			t.Errorf("newest blob %s evicted", id[:8])
		}
	}
}

func TestStoreGetMalformedID(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Shorter than the shard-prefix width: must be a clean not-found, not
	// a slice-bounds panic (ids arrive from URL paths).
	for _, id := range []string{"", "a", "abc", "zz/../../etc"} {
		if _, err := s.Get(id); err == nil {
			t.Errorf("Get(%q) succeeded", id)
		}
	}
}

func TestStoreNeverEvictsNewest(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.Put(blobOf(100, 'z')) // 10x over budget
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has(id) {
		t.Fatal("sole over-budget blob was evicted")
	}
}

func TestStoreReopenReindexes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := blobOf(64, 'q')
	id, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// A crash between write and rename leaves a .tmp; reopen must reclaim
	// it without touching real blobs.
	orphan := filepath.Join(dir, id[:2], id[2:4], "deadbeef.bnar.tmp")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(id) {
		t.Fatal("reopened store lost the blob")
	}
	got, err := s2.Get(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reopened Get: %v", err)
	}
	if _, existed, _ := s2.Put(data); !existed {
		t.Error("reopened store re-stored a known blob")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned .tmp not reclaimed on reopen: %v", err)
	}
}

func TestStorePinBlocksEviction(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 250)
	if err != nil {
		t.Fatal(err)
	}
	pinned, _, err := s.Put(blobOf(100, 'a'))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Pin(pinned); !ok {
		t.Fatal("pin of a stored blob failed")
	}
	if _, ok := s.Pin("0000000000000000000000000000000000000000000000000000000000000000"); ok {
		t.Fatal("pin of an unknown id must fail")
	}
	// Flood past the budget: the pinned blob must survive while newer
	// unpinned blobs around it age out.
	var rest []string
	for i := 1; i < 5; i++ {
		id, _, err := s.Put(blobOf(100, byte('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, id)
	}
	if !s.Has(pinned) {
		t.Fatal("pinned blob evicted")
	}
	if !s.Pinned(pinned) {
		t.Fatal("Pinned lost the pin")
	}
	if s.Has(rest[0]) || s.Has(rest[1]) {
		t.Fatal("unpinned older blobs must evict first")
	}
	// Pins nest: one Unpin of two leaves the blob protected.
	s.Pin(pinned)
	s.Unpin(pinned)
	if !s.Has(pinned) {
		t.Fatal("blob evicted while still pinned once")
	}
}

func TestStoreUnpinReRunsEviction(t *testing.T) {
	// A pin can hold the store over budget (pinned + newest > budget);
	// the final Unpin must immediately reclaim the space.
	s, err := OpenStore(t.TempDir(), 150)
	if err != nil {
		t.Fatal(err)
	}
	pinned, _, err := s.Put(blobOf(100, 'a'))
	if err != nil {
		t.Fatal(err)
	}
	s.Pin(pinned)
	if _, _, err := s.Put(blobOf(100, 'b')); err != nil {
		t.Fatal(err)
	}
	if !s.Has(pinned) {
		t.Fatal("pinned blob evicted")
	}
	if st := s.Stats(); st.RetainedBytes != 200 {
		t.Fatalf("expected the pin to hold the store over budget: %+v", st)
	}
	s.Unpin(pinned)
	if s.Has(pinned) {
		t.Fatal("unpinned over-budget blob must evict")
	}
	if st := s.Stats(); st.RetainedBytes != 100 {
		t.Fatalf("after unpin: %+v", st)
	}
}
