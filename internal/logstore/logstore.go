// Package logstore models BugNet's log-region storage (paper §4.7).
//
// The on-chip Checkpoint Buffer (CB) and Memory Race Buffer (MRB) are small
// FIFOs whose contents are lazily drained into a log region managed by the
// operating system. The region holds the logs of multiple consecutive
// checkpoints for every thread; when it fills, the logs of the oldest
// checkpoint are discarded. The set of retained logs determines the replay
// window — the number of instructions that can be replayed per thread
// (paper §4.1, §7.2).
//
// A Store manages one such region (one for FLLs, one for MRLs). Items are
// opaque *encoded* logs: the store cares only about their identity, size
// and coverage, never about their decoded form — consumers re-materialize
// a log on demand through its bytes. Where the bytes live is a Backend
// decision: the in-memory FIFO models the paper's OS-managed RAM region,
// while the disk-segment backend (disk.go) spills the region to
// append-only segment files so the replay window is bounded by disk, not
// by process memory.
package logstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bugnet/internal/ring"
)

// Item is one retained log's retention metadata. The encoded bytes travel
// separately (Append takes them, Load returns them) so metadata listings
// never touch the backend's data path.
type Item struct {
	// Seq is the store-assigned append sequence number, the key for Load.
	// Sequences are monotonic and survive a disk backend's reopen.
	Seq uint64
	// TID and CID attribute the log to a thread's checkpoint interval.
	TID int
	CID uint32
	// Timestamp is the creation time (machine steps); eviction order key.
	Timestamp uint64
	// Bytes is the accounting size charged against the region budget: the
	// hardware storage footprint (fll/mrl SizeBytes), the quantity behind
	// the paper's log-size figures.
	Bytes int64
	// EncodedBytes is the size of the serialized form the backend holds
	// (Bytes plus wire framing and checksums).
	EncodedBytes int64
	// Instructions is the committed instructions covered (FLLs; 0 for MRLs).
	Instructions uint64
}

// Stats describes a store's occupancy and lifetime churn.
type Stats struct {
	RetainedBytes int64 `json:"retained_bytes"`
	RetainedCount int   `json:"retained_count"`
	EvictedBytes  int64 `json:"evicted_bytes"`
	EvictedCount  int   `json:"evicted_count"`
	TotalBytes    int64 `json:"total_bytes"` // everything ever appended
	TotalCount    int   `json:"total_count"`
	// RetainedEncodedBytes is the serialized footprint the backend holds
	// for the retained items (wire framing included).
	RetainedEncodedBytes int64 `json:"retained_encoded_bytes"`
}

// ErrEvicted reports a Load of an item that aged out of the region.
var ErrEvicted = errors.New("logstore: item evicted")

// Backend is a storage engine for encoded log bytes. The Store drives it
// under its own lock and guarantees Append sequences are monotonic and
// Evict always names the oldest live item; backends need no locking of
// their own when used through a Store.
type Backend interface {
	// Append persists data as the newest item under it.Seq.
	Append(it Item, data []byte) error
	// Load returns the encoded bytes of a retained item; the caller owns
	// the result.
	Load(seq uint64) ([]byte, error)
	// Evict releases the oldest live item (always called in append order).
	// Physical reclamation may lag: the disk backend frees whole segments
	// once every item in them is evicted.
	Evict(it Item) error
	// Recover returns the items retained by a previous run, oldest first
	// (nil for volatile backends). The Store calls it exactly once, before
	// any Append.
	Recover() ([]Item, error)
	// Close releases backend resources. The Store is unusable afterwards.
	Close() error
}

// Store is a budgeted FIFO of encoded logs over a Backend.
type Store struct {
	mu      sync.Mutex
	budget  int64 // <= 0 means unlimited
	backend Backend
	items   []Item // retained metadata, oldest first
	nextSeq uint64
	stats   Stats
	err     error         // first backend failure; the store keeps best-effort serving
	metrics *storeMetrics // nil until Instrument; all hooks nil-safe
}

// New creates a store over the in-memory FIFO backend with the given
// region budget in bytes. A non-positive budget retains everything
// (useful for experiments that measure how large logs would grow).
func New(budget int64) *Store {
	s, err := Open(budget, NewMemory())
	if err != nil { // the memory backend cannot fail to recover
		panic(err)
	}
	return s
}

// Open creates a store over an explicit backend, recovering any items a
// previous run retained (disk backends) and re-applying the budget to
// them — a region reopened under a smaller budget, or one whose physical
// reclamation lagged a crash, trims back to shape immediately.
func Open(budget int64, b Backend) (*Store, error) {
	recovered, err := b.Recover()
	if err != nil {
		return nil, err
	}
	s := &Store{budget: budget, backend: b}
	for _, it := range recovered {
		s.items = append(s.items, it)
		s.stats.RetainedBytes += it.Bytes
		s.stats.RetainedEncodedBytes += it.EncodedBytes
		s.stats.RetainedCount++
		s.stats.TotalBytes += it.Bytes
		s.stats.TotalCount++
		if it.Seq >= s.nextSeq {
			s.nextSeq = it.Seq + 1
		}
	}
	s.mu.Lock()
	err = s.evictLocked()
	s.mu.Unlock()
	return s, err
}

// Append retains one encoded log — data is copied, the caller may reuse it
// once the call returns — evicting the oldest items if the budget is
// exceeded. Items must be appended in nondecreasing Timestamp order,
// which is how the hardware produces them. The item's Seq and
// EncodedBytes are assigned by the store. The returned error reports this
// call's failures only (the item not persisting, or this call's
// reclamation failing); earlier swallowed failures stay behind Err.
func (s *Store) Append(it Item, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(it, data); err != nil {
		return err
	}
	return s.evictLocked()
}

// AppendEntry is one append request in a batch. The store copies Data —
// the caller may reuse it once the call returns — and assigns Item.Seq on
// success.
type AppendEntry struct {
	Item Item
	Data []byte
}

// AppendBatch retains several encoded logs under a single lock
// acquisition and a single eviction pass — the recorder's wire path uses
// it so finalizing every thread's interval (a flush, a crash collection)
// does not pay per-interval store overhead. Entries are appended in
// order; sequence numbers are consecutive and written back into each
// entry's Item.Seq. On a backend failure the remaining entries are
// abandoned (the failure is sticky — see Err) and n reports how many
// entries were appended.
func (s *Store) AppendBatch(entries []AppendEntry) (n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range entries {
		if err = s.appendLocked(entries[i].Item, entries[i].Data); err != nil {
			break
		}
		entries[i].Item.Seq = s.nextSeq - 1
		n++
	}
	if everr := s.evictLocked(); err == nil {
		err = everr
	}
	return n, err
}

// appendLocked persists one item and accounts for it; the caller holds
// the lock and runs the eviction pass.
func (s *Store) appendLocked(it Item, data []byte) error {
	it.Seq = s.nextSeq
	it.EncodedBytes = int64(len(data))
	start := time.Now()
	if err := s.backend.Append(it, data); err != nil {
		s.fail(err)
		return err
	}
	s.metrics.observeAppend(start, len(data))
	s.nextSeq++
	s.items = append(s.items, it)
	s.stats.RetainedBytes += it.Bytes
	s.stats.RetainedEncodedBytes += it.EncodedBytes
	s.stats.RetainedCount++
	s.stats.TotalBytes += it.Bytes
	s.stats.TotalCount++
	s.metrics.setRetained(uint64(s.stats.RetainedEncodedBytes))
	return nil
}

// OldestLiveSeq returns the lowest sequence number still retained; when
// the store is empty it returns the next sequence to be assigned. Every
// sequence below the result has been evicted, so recorder-side metadata
// caches keyed by Seq prune against it.
func (s *Store) OldestLiveSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) == 0 {
		return s.nextSeq
	}
	return s.items[0].Seq
}

// evictLocked enforces the budget: oldest first, and the newest item is
// always retained, so a single over-budget log is still recordable. It
// returns the first reclamation failure of this pass (also recorded
// sticky); logical eviction proceeds regardless so the budget holds.
func (s *Store) evictLocked() error {
	if s.budget <= 0 {
		return nil
	}
	var firstErr error
	drop := 0
	var droppedEnc uint64
	for s.stats.RetainedBytes > s.budget && drop < len(s.items)-1 {
		it := s.items[drop]
		if err := s.backend.Evict(it); err != nil {
			s.fail(err)
			if firstErr == nil {
				firstErr = err
			}
		}
		s.stats.RetainedBytes -= it.Bytes
		s.stats.RetainedEncodedBytes -= it.EncodedBytes
		s.stats.RetainedCount--
		s.stats.EvictedBytes += it.Bytes
		s.stats.EvictedCount++
		droppedEnc += uint64(it.EncodedBytes)
		drop++
	}
	if drop > 0 {
		s.items = append(s.items[:0], s.items[drop:]...)
		s.metrics.observeEvict(drop, droppedEnc)
		s.metrics.setRetained(uint64(s.stats.RetainedEncodedBytes))
	}
	return firstErr
}

// fail records the first backend failure; later successes don't clear it.
func (s *Store) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err returns the first backend failure the store swallowed while keeping
// the recording path alive (a disk-spill write error, a reclamation
// failure). Recording tools surface it at exit.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Load returns the encoded bytes of a retained item by sequence number.
// The caller owns the result.
func (s *Store) Load(seq uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	data, err := s.backend.Load(seq)
	if err == nil {
		s.metrics.observeLoad(start)
	}
	return data, err
}

// Loader returns a function that re-reads one item's encoded bytes — the
// hook a lazy log view (fll.NewLazyRef / mrl.NewLazyRef) plugs into.
func (s *Store) Loader(seq uint64) func() ([]byte, error) {
	return func() ([]byte, error) { return s.Load(seq) }
}

// Close releases the backend.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backend.Close()
}

// Stats returns occupancy counters. On a reopened disk region the lifetime
// counters (Total*, Evicted*) restart from the recovered contents; the
// retained counters are always exact.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// All returns the retained items' metadata oldest-first. The slice is a
// copy; the encoded bytes are fetched per item via Load.
func (s *Store) All() []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Item(nil), s.items...)
}

// Thread returns the retained items of one thread, oldest-first.
func (s *Store) Thread(tid int) []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Item
	for _, it := range s.items {
		if it.TID == tid {
			out = append(out, it)
		}
	}
	return out
}

// ReplayWindow returns the number of instructions the retained items cover
// for the given thread — the quantity the paper calls the replay window.
func (s *Store) ReplayWindow(tid int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, it := range s.items {
		if it.TID == tid {
			n += it.Instructions
		}
	}
	return n
}

// Threads returns the set of thread ids with retained items, ascending.
func (s *Store) Threads() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[int]bool)
	for _, it := range s.items {
		seen[it.TID] = true
	}
	var out []int
	for tid := range seen {
		out = append(out, tid)
	}
	for i := 1; i < len(out); i++ { // insertion sort; tiny n
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// memBlockBytes is the unit the memory region grows by. The region holds
// at most two blocks more than its live bytes need (one partly evicted at
// the tail, one partly written at the head), so a small block keeps a
// sparse recording's region close to its budget; a block's bookkeeping is
// one slice header.
const memBlockBytes = 16 << 10

// Memory is the volatile Backend modeling the paper's OS-managed main
// memory log region (§4.7): a fixed piece of memory the logs are copied
// into, whose oldest checkpoint is overwritten when it fills. It is the
// in-memory twin of the disk backend's segments — a FIFO of fixed-size
// blocks holding the encoded logs back to back, an item spanning blocks
// where it must. Blocks wholly behind the eviction frontier are reused
// for the head, so a region at its budget stops allocating; a block is
// allocated only when none is free (the first on the first Append), so
// the region is sized by what it retains, never from the budget, and
// blocks a peak claimed are kept. Gone with the process.
type Memory struct {
	blocks ring.Queue[[]byte] // the blocks holding live bytes, in region order
	free   [][]byte           // blocks behind the eviction frontier, awaiting reuse
	origin uint64             // region offset of the oldest block's first byte
	end    uint64             // region offset the next byte is written at
	base   uint64             // Seq of the oldest live item
	starts ring.Queue[uint64] // region offset each live item begins at, oldest first
}

// NewMemory creates an empty in-memory backend.
func NewMemory() *Memory { return &Memory{} }

// Append implements Backend: data is copied into the region.
func (m *Memory) Append(it Item, data []byte) error {
	if m.starts.Len() == 0 {
		m.base = it.Seq
	}
	m.starts.Push(m.end)
	for len(data) > 0 {
		pos := m.end - m.origin
		bi := int(pos / memBlockBytes)
		if bi == m.blocks.Len() {
			m.blocks.Push(m.takeBlock())
		}
		n := copy(m.blocks.At(bi)[pos%memBlockBytes:], data)
		data = data[n:]
		m.end += uint64(n)
	}
	return nil
}

// takeBlock returns a free block, a new one when none is.
func (m *Memory) takeBlock() []byte {
	if n := len(m.free); n > 0 {
		b := m.free[n-1]
		m.free = m.free[:n-1]
		return b
	}
	return make([]byte, memBlockBytes)
}

// Load implements Backend: the result is a copy, so no caller's view can
// alias bytes a later Append overwrites.
func (m *Memory) Load(seq uint64) ([]byte, error) {
	if seq < m.base || seq-m.base >= uint64(m.starts.Len()) {
		return nil, fmt.Errorf("%w: seq %d", ErrEvicted, seq)
	}
	i := int(seq - m.base)
	lo, hi := m.starts.At(i), m.end
	if i+1 < m.starts.Len() {
		hi = m.starts.At(i + 1)
	}
	out := make([]byte, hi-lo)
	for n := 0; n < len(out); {
		pos := lo + uint64(n) - m.origin
		n += copy(out[n:], m.blocks.At(int(pos / memBlockBytes))[pos%memBlockBytes:])
	}
	return out, nil
}

// Evict implements Backend. The item's bytes are dead at once; the blocks
// they wholly covered are free for the head.
func (m *Memory) Evict(it Item) error {
	if it.Seq != m.base || m.starts.Len() == 0 {
		return fmt.Errorf("logstore: memory eviction out of order (seq %d, oldest %d)", it.Seq, m.base)
	}
	m.starts.Drop(1)
	m.base++
	frontier := m.end
	if m.starts.Len() > 0 {
		frontier = m.starts.At(0)
	}
	for ; frontier-m.origin >= memBlockBytes; m.origin += memBlockBytes {
		m.free = append(m.free, m.blocks.At(0))
		m.blocks.Drop(1)
	}
	return nil
}

// Recover implements Backend: volatile storage recovers nothing.
func (m *Memory) Recover() ([]Item, error) { return nil, nil }

// Close implements Backend.
func (m *Memory) Close() error {
	*m = Memory{}
	return nil
}
