package logstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openDiskStore builds a store over a fresh disk backend in dir.
func openDiskStore(t *testing.T, dir string, budget, segBytes int64) *Store {
	t.Helper()
	b, err := OpenDisk(dir, DiskOptions{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(budget, b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDiskAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDiskStore(t, dir, 0, 128)
	for i := uint32(0); i < 50; i++ {
		if err := s.Append(Item{TID: int(i % 2), CID: i, Timestamp: uint64(i), Bytes: 20, Instructions: 3}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range s.All() {
		data, err := s.Load(it.Seq)
		if err != nil {
			t.Fatalf("seq %d: %v", it.Seq, err)
		}
		if string(data) != string(payload(it.CID)) {
			t.Errorf("seq %d: data = %q", it.Seq, data)
		}
	}
	statsInvariants(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskReopenRecoversRetained(t *testing.T) {
	dir := t.TempDir()
	s := openDiskStore(t, dir, 0, 128)
	var want []Item
	for i := uint32(0); i < 30; i++ {
		it := Item{TID: int(i % 3), CID: i, Timestamp: uint64(i), Bytes: 11 + int64(i), Instructions: uint64(i)}
		if err := s.Append(it, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	want = s.All()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDiskStore(t, dir, 0, 128)
	defer s2.Close()
	got := s2.All()
	if len(got) != len(want) {
		t.Fatalf("recovered %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: recovered %+v, want %+v", i, got[i], want[i])
		}
		data, err := s2.Load(got[i].Seq)
		if err != nil {
			t.Fatalf("seq %d: %v", got[i].Seq, err)
		}
		if string(data) != string(payload(got[i].CID)) {
			t.Errorf("seq %d: data = %q", got[i].Seq, data)
		}
	}
	// Appends continue with fresh sequence numbers.
	if err := s2.Append(Item{CID: 999, Bytes: 5}, payload(999)); err != nil {
		t.Fatal(err)
	}
	items := s2.All()
	if last := items[len(items)-1]; last.Seq <= want[len(want)-1].Seq {
		t.Errorf("post-reopen seq %d not after recovered %d", last.Seq, want[len(want)-1].Seq)
	}
}

func TestDiskTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openDiskStore(t, dir, 0, 1<<20) // one segment
	for i := uint32(0); i < 10; i++ {
		if err := s.Append(Item{CID: i, Bytes: 10}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	// Tear the tail: chop half of the last record off.
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	s2 := openDiskStore(t, dir, 0, 1<<20)
	defer s2.Close()
	items := s2.All()
	if len(items) != 9 {
		t.Fatalf("recovered %d items after torn tail, want 9", len(items))
	}
	for _, it := range items {
		if _, err := s2.Load(it.Seq); err != nil {
			t.Errorf("seq %d unreadable after truncation: %v", it.Seq, err)
		}
	}
}

// TestDiskZeroExtendedTailTruncated: a crash can persist the inode size
// before the data pages, leaving the newest segment extended with zeros;
// reopen must truncate that tail away like any torn append, not fail the
// whole region as corrupt.
func TestDiskZeroExtendedTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openDiskStore(t, dir, 0, 1<<20)
	for i := uint32(0); i < 10; i++ {
		if err := s.Append(Item{CID: i, Bytes: 10}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segExt))
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 300)); err != nil { // zero-filled tail
		t.Fatal(err)
	}
	f.Close()

	s2 := openDiskStore(t, dir, 0, 1<<20)
	defer s2.Close()
	if got := len(s2.All()); got != 10 {
		t.Fatalf("recovered %d items after zero-extended tail, want 10", got)
	}
}

// TestDiskCorruptMidLastSegmentFailsOpen: a bit flip in the middle of the
// newest segment — with intact records behind it — is corruption, not a
// torn tail; reopening must fail loudly rather than silently truncate the
// valid tail away.
func TestDiskCorruptMidLastSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openDiskStore(t, dir, 0, 1<<20) // one segment
	for i := uint32(0); i < 10; i++ {
		if err := s.Append(Item{CID: i, Bytes: 10}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(segs[0])
	data[len(data)/2] ^= 0xff // mid-file: several intact records follow
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(0, b); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("open error = %v; want ErrCorruptSegment", err)
	}
	// The failed open must not have destroyed evidence.
	after, err := os.Stat(segs[0])
	if err != nil || after.Size() != before.Size() {
		t.Fatalf("failed open mutated the segment: %v bytes, was %v", after.Size(), before.Size())
	}
}

func TestDiskCorruptInteriorSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openDiskStore(t, dir, 0, 64) // small segments: several files
	for i := uint32(0); i < 40; i++ {
		if err := s.Append(Item{CID: i, Bytes: 10}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %v", segs)
	}
	// Flip a payload byte in the first (non-last) segment.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(0, b); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("open error = %v; want ErrCorruptSegment", err)
	}
}

func TestDiskOldestSegmentReclaimed(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir, DiskOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(400, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint32(0); i < 200; i++ {
		if err := s.Append(Item{CID: i, Timestamp: uint64(i), Bytes: 40}, payload(i)); err != nil {
			t.Fatal(err)
		}
		statsInvariants(t, s)
	}
	// Budget 400 at 40 bytes/item retains ~10 items ≈ 2-3 segments of
	// encoded records; the rest of the 200 appends must have been
	// physically reclaimed, not just logically evicted.
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if len(segs) > 6 {
		t.Errorf("%d segment files survive a 10-item budget: %v", len(segs), segs)
	}
	if got := b.SegmentCount(); got != len(segs) {
		t.Errorf("SegmentCount = %d, files on disk = %d", got, len(segs))
	}
	st := s.Stats()
	if st.EvictedCount == 0 || st.RetainedBytes > 400 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDiskBudgetRetrimOnReopen: eviction is logical within the active
// segment, so a crash can resurrect evicted items; reopening re-applies
// the budget immediately.
func TestDiskBudgetRetrimOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := openDiskStore(t, dir, 0, 1<<20) // unlimited: retain everything
	for i := uint32(0); i < 50; i++ {
		if err := s.Append(Item{CID: i, Timestamp: uint64(i), Bytes: 100}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen under a budget of 10 items.
	s2 := openDiskStore(t, dir, 1000, 1<<20)
	defer s2.Close()
	items := s2.All()
	if len(items) != 10 {
		t.Fatalf("retained %d items after re-trim, want 10", len(items))
	}
	if items[0].CID != 40 || items[len(items)-1].CID != 49 {
		t.Errorf("re-trim kept wrong window: C%d..C%d", items[0].CID, items[len(items)-1].CID)
	}
	statsInvariants(t, s2)
}

// TestDiskMatchesMemorySemantics drives both backends with an identical
// random append sequence and checks they retain the same window with the
// same accounting — the property the determinism of cross-backend report
// packing rests on.
func TestDiskMatchesMemorySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mem := New(3000)
	dsk := openDiskStore(t, t.TempDir(), 3000, 512)
	defer dsk.Close()
	for i := uint32(0); i < 300; i++ {
		it := Item{TID: int(i % 2), CID: i, Timestamp: uint64(i), Bytes: int64(1 + rng.Intn(400)), Instructions: uint64(i)}
		if err := mem.Append(it, payload(i)); err != nil {
			t.Fatal(err)
		}
		if err := dsk.Append(it, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	mi, di := mem.All(), dsk.All()
	if len(mi) != len(di) {
		t.Fatalf("retained: memory %d, disk %d", len(mi), len(di))
	}
	for i := range mi {
		if mi[i] != di[i] {
			t.Fatalf("item %d: memory %+v, disk %+v", i, mi[i], di[i])
		}
		md, _ := mem.Load(mi[i].Seq)
		dd, err := dsk.Load(di[i].Seq)
		if err != nil {
			t.Fatal(err)
		}
		if string(md) != string(dd) {
			t.Fatalf("item %d bytes differ", i)
		}
	}
	if mem.Stats() != dsk.Stats() {
		t.Errorf("stats: memory %+v, disk %+v", mem.Stats(), dsk.Stats())
	}
}

// TestDiskConcurrentLoadAppend exercises the store lock under the race
// detector: one goroutine appends while others load and list.
func TestDiskConcurrentLoadAppend(t *testing.T) {
	s := openDiskStore(t, t.TempDir(), 4000, 256)
	defer s.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, it := range s.All() {
					if data, err := s.Load(it.Seq); err == nil && len(data) == 0 {
						t.Error("empty payload")
						return
					}
					// Racing an eviction is fine; ErrEvicted is expected.
				}
				s.Stats()
				s.ReplayWindow(0)
			}
		}()
	}
	for i := uint32(0); i < 500; i++ {
		if err := s.Append(Item{CID: i, Timestamp: uint64(i), Bytes: 50}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskEmptyDirOpens(t *testing.T) {
	s := openDiskStore(t, t.TempDir(), 100, 0)
	if got := len(s.All()); got != 0 {
		t.Fatalf("fresh dir has %d items", got)
	}
	if err := s.Append(Item{CID: 1, Bytes: 10}, payload(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskLoaderSurvivesStoreUse(t *testing.T) {
	s := openDiskStore(t, t.TempDir(), 0, 64)
	defer s.Close()
	for i := uint32(0); i < 20; i++ {
		if err := s.Append(Item{CID: i, Bytes: 10}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	it := s.All()[3]
	load := s.Loader(it.Seq)
	for i := 0; i < 3; i++ {
		data, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(payload(it.CID)) {
			t.Fatalf("load %d: %q", i, data)
		}
	}
}

// TestDiskAppendDoesNotAllocatePerRecord: Append frames every record in
// one reused buffer, so a record costs the write and an index entry — not
// a copy of itself on the heap. Within one segment, under a budget that
// evicts as fast as it appends, that is no allocation at all.
func TestDiskAppendDoesNotAllocatePerRecord(t *testing.T) {
	s := openDiskStore(t, t.TempDir(), 64<<10, 64<<20)
	defer s.Close()
	data := make([]byte, 4<<10)
	stamp := uint64(0)
	appendOne := func() {
		data[0]++
		if err := s.Append(Item{CID: uint32(stamp), Timestamp: stamp, Bytes: int64(len(data))}, data); err != nil {
			t.Fatal(err)
		}
		stamp++
	}
	for i := 0; i < 64; i++ {
		appendOne() // fill the budget, grow the frame and the index
	}
	if n := testing.AllocsPerRun(200, appendOne); n != 0 {
		t.Errorf("Disk.Append allocates %v times per record; want 0", n)
	}
	last := s.All()
	got, err := s.Load(last[len(last)-1].Seq)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("the newest record does not load back (%v)", err)
	}
}
