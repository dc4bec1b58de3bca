package triage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"bugnet/internal/faultinject"
	"bugnet/internal/report"
)

// Store is a sharded, content-addressed, byte-budgeted archive store.
//
// Blobs are keyed by their archive ID (hex SHA-256 of the packed bytes)
// and fanned out over two levels of hash-prefix directories
// (root/ab/cd/abcd….bnar) so no single directory accumulates millions of
// entries under fleet-scale ingest. Identical uploads collapse onto one
// file.
//
// Retention follows the logstore discipline (paper §4.7): the store is a
// budgeted FIFO, and when retained bytes exceed the budget the oldest
// blobs are deleted — crash evidence, like the replay window itself, is a
// sliding resource. The newest blob is never evicted, so a single
// over-budget report is still ingestible.
//
// A blob's index entry is the one record of the stored report: its size,
// bucket key, verdict and pins. The entry is created in the critical
// section that indexes the blob and removed in the one that evicts it, so
// no listed report outlives its evidence. The store never calls into the
// service: the lock order is Service.mu before Store.mu.
//
// A blob's done verdict lives beside it as a sidecar file
// (root/ab/cd/abcd….verdict, not charged to the budget) and shares its
// retention: eviction and Delete remove both, and OpenStore keeps exactly
// the sidecars whose blob it indexed. A verdict with no indexed blob —
// adopted ahead of its archive, or evicted with it — is held in memory
// only, in a set of at most maxWaiting, and becomes a sidecar if the
// archive arrives.
type Store struct {
	mu     sync.Mutex
	root   string
	budget int64           // <= 0: unlimited
	fsys   *faultinject.FS // nil outside chaos runs: direct os calls

	index   map[string]*blobInfo
	waiting map[string]*Verdict // verdicts of no indexed blob; memory only, bounded
	order   []string            // insertion order, oldest first; eviction order key
	pinned  int                 // index entries with pins
	stats   StoreStats

	// err is the most recent disk failure (a blob write, rename, or
	// reclaim). It clears when a later write succeeds or when Healthy's
	// probe finds the disk writable again, so a node degraded by a
	// transient fault recovers without a restart.
	err error

	// probeEvery rate-limits Healthy's disk probe on a degraded store;
	// lastProbe is the previous probe time. Tests set probeEvery to zero
	// to probe on every call.
	probeEvery time.Duration
	lastProbe  time.Time

	// strays are valid-looking blob files found at non-canonical paths
	// during OpenStore; recovery re-ingests then removes them.
	strays []string
}

// blobInfo is the in-memory record of one stored archive.
type blobInfo struct {
	bytes int64
	// bucket is the key of the crash bucket an ingest filed the report
	// under (see claim); "" until one has, and the service lists no report
	// without one.
	bucket string
	// verdict is pending, done or failed, never nil. A done one is also
	// the sidecar beside the blob, and is never replaced.
	verdict *Verdict
	pins    int // open readers; eviction spares a pinned blob
}

// meta describes the record of id, a copy the caller may keep.
func (bi *blobInfo) meta(id string) ReportMeta {
	return ReportMeta{ID: id, Bytes: bi.bytes, BucketKey: bi.bucket, Verdict: bi.verdict.clone()}
}

// StoreStats mirrors logstore.Stats for the disk store.
type StoreStats struct {
	RetainedBytes int64
	RetainedCount int
	EvictedBytes  int64
	EvictedCount  int
	TotalBytes    int64
	TotalCount    int
}

const (
	blobExt    = ".bnar"
	verdictExt = ".verdict"

	// maxWaiting bounds the verdicts held without a blob. Any peer can
	// push a verdict for any well-formed id, so the set is cleared when
	// full rather than grown; a verdict lost that way costs one replay.
	maxWaiting = 1024
)

// OpenStore opens (creating if needed) a store rooted at dir. Blobs
// already on disk from a previous run are re-indexed, oldest first by
// mtime, with the verdicts beside them, so a restarted server resumes
// with its evidence intact and replays none of it.
func OpenStore(dir string, budget int64) (*Store, error) {
	return openStore(dir, budget, nil)
}

// openStore is OpenStore with an optional fault-injection filesystem.
func openStore(dir string, budget int64, fsys *faultinject.FS) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{root: dir, budget: budget, fsys: fsys, index: make(map[string]*blobInfo),
		waiting: make(map[string]*Verdict), probeEvery: time.Second}
	type existing struct {
		id    string
		bytes int64
		mtime int64
	}
	var found []existing
	var sidecars []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch filepath.Ext(path) {
		case ".tmp":
			// A crash between write and rename leaves a half blob or
			// sidecar; it was never indexed, so reclaim it rather than leak
			// disk forever.
			os.Remove(path)
			return nil
		case verdictExt:
			sidecars = append(sidecars, path) // judged once every blob is indexed
			return nil
		}
		if filepath.Ext(path) != blobExt {
			return nil
		}
		id := d.Name()[:len(d.Name())-len(blobExt)]
		if !report.ValidID(id) {
			return nil // foreign file; leave it alone
		}
		if path != s.path(id) {
			// A blob not at its canonical shard location (botched restore)
			// can never be served by Get. Don't index it — but don't
			// destroy evidence either: park it for the service's recovery
			// pass to re-ingest under the correct address.
			s.strays = append(s.strays, path)
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		found = append(found, existing{id, info.Size(), info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, f := range found {
		if _, ok := s.index[f.id]; ok {
			continue // same id encountered twice; index and count it once
		}
		s.addLocked(f.id, f.bytes)
	}
	for _, p := range sidecars {
		s.loadVerdict(p)
	}
	s.syncStoreGauges()
	return s, nil
}

// loadVerdict indexes a sidecar OpenStore found, or removes it when it
// is unreadable, not a done verdict, or beside no indexed blob (a remove
// that failed with its blob's). A file whose name is no content address
// is foreign and left alone.
func (s *Store) loadVerdict(path string) {
	id := strings.TrimSuffix(filepath.Base(path), verdictExt)
	if !report.ValidID(id) {
		return
	}
	if bi, ok := s.index[id]; ok && path == s.verdictPath(id) {
		var v Verdict
		if data, err := os.ReadFile(path); err == nil &&
			json.Unmarshal(data, &v) == nil && v.State == VerdictDone {
			bi.verdict = &v
			return
		}
	}
	os.Remove(path)
}

// setErr records how a disk operation went. A failure degrades the
// store: it keeps serving best-effort and sheds writes until the disk
// proves healthy again. nil, a successful write, drops the signal.
func (s *Store) setErr(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// Healthy reports whether the store can accept writes, returning the
// degrading error otherwise. A degraded store re-probes the disk (rate
// limited to one probe per probeEvery) with a small create/write/remove
// cycle in the store root; a successful probe clears the error so a
// healed disk brings the node back without a restart. Shedding on
// Healthy rather than on Err alone matters under degradation: a node
// that sheds all writes would otherwise never see the success that
// clears the error.
func (s *Store) Healthy() error {
	s.mu.Lock()
	if s.err == nil {
		s.mu.Unlock()
		return nil
	}
	now := time.Now()
	if s.probeEvery > 0 && now.Sub(s.lastProbe) < s.probeEvery {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.lastProbe = now
	s.mu.Unlock()

	perr := s.probe()
	s.setErr(perr)
	return perr
}

// probe checks disk writability with a create/write/remove cycle.
func (s *Store) probe() error {
	f, err := s.fsys.CreateTemp(s.root, "probe-*.tmp")
	if err != nil {
		return err
	}
	name := f.Name()
	_, werr := f.Write([]byte("ok"))
	cerr := f.Close()
	rerr := s.fsys.Remove(name)
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	return rerr
}

// path returns the sharded location of a blob.
func (s *Store) path(id string) string {
	return filepath.Join(s.root, id[:2], id[2:4], id+blobExt)
}

// verdictPath returns the location of a blob's verdict sidecar.
func (s *Store) verdictPath(id string) string {
	return filepath.Join(s.root, id[:2], id[2:4], id+verdictExt)
}

// writeFile writes data to dst through a temp file in dst's directory
// and a rename, so a crash never leaves a half file under a valid name.
func (s *Store) writeFile(dst string, data []byte) error {
	if err := s.fsys.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	tmp, err := s.fsys.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fsys.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Put stores an archive blob under its content address. It returns the ID
// and whether the blob was already present (the dedup case). Eviction runs
// after a successful write.
//
// Disk I/O happens outside the store lock so one slow blob write cannot
// stall Has/Get/Stats (and the health endpoint) behind it. Two concurrent
// Puts of the same content race benignly: each writes its own temp file
// and renames onto the same content-addressed path with identical bytes;
// the second to reach the index reports existed.
func (s *Store) Put(data []byte) (id string, existed bool, err error) {
	return s.PutWithID(report.ID(data), data)
}

// PutWithID is Put for callers that already computed the content address,
// sparing a second SHA-256 over the blob on the ingest hot path. The id
// must be report.ID(data).
func (s *Store) PutWithID(id string, data []byte) (_ string, existed bool, err error) {
	if s.Has(id) {
		return id, true, nil
	}
	if err := s.writeFile(s.path(id), data); err != nil {
		s.setErr(err)
		return "", false, err
	}
	return id, s.file(id, int64(len(data))), nil
}

// AdoptFile moves an already-written spool file into the store under its
// content address (the caller computed id while streaming the upload to
// src). The blob never transits memory: same-filesystem adoption is one
// rename. src is consumed — renamed away on success, deleted when the
// content already existed, and deleted after the fallback copy.
func (s *Store) AdoptFile(id string, src string) (existed bool, err error) {
	if s.Has(id) {
		os.Remove(src)
		return true, nil
	}
	fi, err := os.Stat(src)
	if err != nil {
		return false, err
	}
	p := s.path(id)
	if err := s.fsys.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		s.setErr(err)
		return false, err
	}
	if err := s.fsys.Rename(src, p); err != nil {
		// Spool on another filesystem than the store: fall back to a
		// copy through memory.
		data, rerr := os.ReadFile(src)
		if rerr != nil {
			return false, err
		}
		defer os.Remove(src)
		_, existed, perr := s.PutWithID(id, data)
		return existed, perr
	}
	return s.file(id, fi.Size()), nil
}

// file indexes a blob just written at its canonical path, unless a
// concurrent identical upload indexed it first (existed), and writes the
// verdict that waited for it. The write succeeded, so the degraded signal
// drops.
func (s *Store) file(id string, size int64) (existed bool) {
	s.mu.Lock()
	s.err = nil
	_, existed = s.index[id]
	var sv *Verdict
	if !existed {
		sv = s.addLocked(id, size)
	}
	s.mu.Unlock()
	s.writeVerdict(id, sv)
	return existed
}

// Get reads a stored blob. Unknown (including malformed) ids are a
// not-found error; path() may only see indexed ids, which are well-formed.
func (s *Store) Get(id string) ([]byte, error) {
	s.mu.Lock()
	_, ok := s.index[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("triage: no stored report %q", id)
	}
	return os.ReadFile(s.path(id))
}

// Pin excludes a blob from budget eviction until every matching Unpin
// runs, and returns its file path for streaming readers (report.OpenFile)
// that read straight from the store; pins nest. Open debug sessions pin
// the report they replay so interactive debugging never races the budget.
// Pinning an unknown id reports false. Pinned bytes still count against
// the budget, so a flood of pins can hold the store over budget until the
// sessions close — bounded by the session layer's concurrency cap.
func (s *Store) Pin(id string) (path string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bi, ok := s.index[id]
	if !ok {
		return "", false
	}
	if bi.pins++; bi.pins == 1 {
		s.pinned++
		mStorePinned.Set(int64(s.pinned))
	}
	return s.path(id), true
}

// Unpin drops one pin and re-runs eviction, so blobs kept alive past the
// budget by a debug session age out as soon as it closes.
func (s *Store) Unpin(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bi, ok := s.index[id]; ok && bi.pins > 0 {
		if bi.pins--; bi.pins == 0 {
			s.pinned--
		}
	}
	s.evictLocked()
}

// Pinned reports whether a blob currently holds pins.
func (s *Store) Pinned(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	bi, ok := s.index[id]
	return ok && bi.pins > 0
}

// Has reports whether a blob is retained.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[id]
	return ok
}

// Stats returns occupancy counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Strays returns the non-canonical blob files found at open time.
func (s *Store) Strays() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.strays...)
}

// IDs returns the retained blob IDs, oldest first.
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Verdict returns a copy of id's verdict, stored beside its blob or held
// without one.
func (s *Store) Verdict(id string) (*Verdict, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bi, ok := s.index[id]; ok && bi.verdict.State == VerdictDone {
		return bi.verdict.clone(), true
	}
	v, ok := s.waiting[id]
	return v.clone(), ok
}

// PutVerdict stores v, a done verdict, as id's unless id already has one:
// a verdict is a pure function of the archive bytes, so the first one in
// is never overwritten. Beside an indexed blob it becomes a sidecar;
// otherwise (a peer's verdict beat the archive here) it waits in memory
// for the archive. id must be well-formed (report.ValidID).
func (s *Store) PutVerdict(id string, v *Verdict) {
	s.mu.Lock()
	bi, ok := s.index[id]
	if !ok {
		if s.waiting[id] == nil {
			s.holdLocked(id, v.clone())
		}
		s.mu.Unlock()
		return
	}
	if bi.verdict.State == VerdictDone {
		s.mu.Unlock()
		return
	}
	sv := v.clone()
	bi.verdict = sv
	s.mu.Unlock()
	s.writeVerdict(id, sv)
}

// fail records v, a failed verdict, as id's unless the store holds no
// record of id or a done verdict for it. A failed verdict is not written:
// the failure can be transient.
func (s *Store) fail(id string, v *Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bi, ok := s.index[id]; ok && bi.verdict.State != VerdictDone {
		bi.verdict = v
	}
}

// holdLocked keeps v, a verdict of no indexed blob, in the bounded
// waiting set. Caller holds s.mu.
func (s *Store) holdLocked(id string, v *Verdict) {
	if len(s.waiting) >= maxWaiting {
		s.waiting = make(map[string]*Verdict)
	}
	s.waiting[id] = v
}

// writeVerdict writes sv, id's done verdict, to its sidecar outside
// the lock, like a blob write; nil is a no-op. A failed write is absorbed:
// the verdict still serves from memory, and the lost file costs one replay
// after a restart. If the blob was dropped while the file was written, the
// file is removed again, so no sidecar outlives its blob.
func (s *Store) writeVerdict(id string, sv *Verdict) {
	if sv == nil {
		return
	}
	data, err := json.Marshal(sv)
	if err != nil || s.writeFile(s.verdictPath(id), data) != nil {
		return
	}
	s.mu.Lock()
	if bi, ok := s.index[id]; !ok || bi.verdict != sv {
		s.fsys.Remove(s.verdictPath(id))
	}
	s.mu.Unlock()
}

// Delete removes one blob outright, counting it as evicted. The service
// uses it to reclaim blobs that no longer decode at recovery; undecodable
// bytes serve no session, so Delete ignores pins.
func (s *Store) Delete(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.order, id); i >= 0 {
		s.dropLocked(i)
		s.syncStoreGauges()
	}
}

// addLocked files a blob just written at its canonical path — its
// record, FIFO position, retained and total counters — then evicts to
// budget. A verdict waiting for the blob becomes its sidecar verdict and
// is returned for the caller to writeVerdict once it drops s.mu.
// Caller holds s.mu.
func (s *Store) addLocked(id string, size int64) *Verdict {
	bi := &blobInfo{bytes: size, verdict: &Verdict{State: VerdictPending}}
	s.index[id] = bi
	s.order = append(s.order, id)
	s.stats.RetainedBytes += size
	s.stats.RetainedCount++
	s.stats.TotalBytes += size
	s.stats.TotalCount++
	v, ok := s.waiting[id]
	if ok {
		delete(s.waiting, id)
		bi.verdict = v
	}
	s.evictLocked() // spares the newest blob, so v keeps its place
	return v
}

// dropLocked removes the blob at s.order[i], its record and its verdict
// sidecar from the index and the disk, counting the blob as evicted. A
// done verdict is held on without its blob, for a wait on the same bytes
// sent again (the replayer does not push a verdict twice). Caller holds
// s.mu.
func (s *Store) dropLocked(i int) {
	id := s.order[i]
	s.order = append(s.order[:i], s.order[i+1:]...)
	bi := s.index[id]
	delete(s.index, id)
	if bi.pins > 0 {
		s.pinned--
	}
	s.stats.RetainedBytes -= bi.bytes
	s.stats.RetainedCount--
	s.stats.EvictedBytes += bi.bytes
	s.stats.EvictedCount++
	mStoreEvictions.Inc()
	if err := s.fsys.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
		s.err = err
	}
	if bi.verdict.State == VerdictDone {
		s.holdLocked(id, bi.verdict)
		// A sidecar whose remove fails sits beside no blob; OpenStore
		// reclaims it.
		s.fsys.Remove(s.verdictPath(id))
	}
}

// evictLocked deletes oldest blobs until the budget is met, sparing the
// newest and skipping pinned blobs (open debug sessions hold them), then
// publishes the occupancy gauges. Caller holds s.mu.
func (s *Store) evictLocked() {
	for i := 0; s.budget > 0 && s.stats.RetainedBytes > s.budget && i < len(s.order)-1; {
		if s.index[s.order[i]].pins > 0 {
			i++
			continue
		}
		s.dropLocked(i)
	}
	s.syncStoreGauges()
}

// claim files id, a held report no ingest has bucketed yet, under bucket
// and reports whether it did. The service claims with its own lock held,
// so the ingest that files a report is the one that owes its verdict.
func (s *Store) claim(id, bucket string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	bi, ok := s.index[id]
	if !ok || bi.bucket != "" {
		return false
	}
	bi.bucket = bucket
	return true
}

// bucketOf returns the bucket a held report is filed under; ok is false
// for an id not held or not yet bucketed.
func (s *Store) bucketOf(id string) (key string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bi, ok := s.index[id]
	if !ok {
		return "", false
	}
	return bi.bucket, bi.bucket != ""
}

// held returns the ids of ids the store still indexes, in order; nil when
// none is.
func (s *Store) held(ids []string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, id := range ids {
		if _, ok := s.index[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// report describes one held, bucketed report.
func (s *Store) report(id string) (ReportMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bi, ok := s.index[id]
	if !ok || bi.bucket == "" {
		return ReportMeta{}, false
	}
	return bi.meta(id), true
}

// reports returns up to limit held, bucketed reports with id strictly
// greater than after, in id order, plus whether more remain.
func (s *Store) reports(after string, limit int) (items []ReportMeta, more bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.index))
	for id, bi := range s.index {
		if id > after && bi.bucket != "" {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	more = len(ids) > limit
	if more {
		ids = ids[:limit]
	}
	items = make([]ReportMeta, 0, len(ids))
	for _, id := range ids {
		items = append(items, s.index[id].meta(id))
	}
	return items, more
}
