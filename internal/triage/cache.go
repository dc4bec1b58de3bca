package triage

import (
	"container/list"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// verdictCache is the content-addressed replay-verdict cache. Report IDs
// are SHA-256 content hashes and a verdict is a pure function of the
// archive bytes and the (itself content-addressed) binary they resolve,
// so an entry can never go stale — the cache needs no invalidation, only
// a size bound. At fleet scale most uploads are repeats of known crashes;
// a hit returns the stored verdict (backtrace included) without decoding
// or replaying anything.
//
// Entries are written through to dir/<id>.json, removed on eviction, and
// rehydrated on startup, so a restarted server's recovery re-index turns
// into cache hits instead of a full re-replay of the store.
//
// Only completed verdicts are cached: a failure can be transient (the
// binary registry may learn the image later, the disk may recover), and
// caching it would pin the failure past its cause.
//
// The same purity makes the cache the one door for a verdict computed
// elsewhere (Service.AdoptVerdict): whichever node replayed the bytes,
// the entry is the one a replay here would have written.
type verdictCache struct {
	mu  sync.Mutex
	cap int
	dir string // "" disables persistence
	lru *list.List
	ids map[string]*list.Element
}

type cacheEntry struct {
	id string
	v  *Verdict
}

// newVerdictCache builds a cache bounded to capacity entries, persisted
// under dir (created if needed; "" keeps the cache memory-only).
func newVerdictCache(capacity int, dir string) (*verdictCache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &verdictCache{
		cap: capacity,
		dir: dir,
		lru: list.New(),
		ids: make(map[string]*list.Element),
	}, nil
}

// get returns a copy of the cached verdict for id, refreshing its
// recency.
func (c *verdictCache) get(id string) (*Verdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.ids[id]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e)
	v := *e.Value.(*cacheEntry).v
	return &v, true
}

// put caches a copy of v under id unless an entry is already there — an
// id names its verdict, so the first one in is as good as any later one —
// and reports whether it did. The least-recently-used entry (and its file)
// is evicted when the bound is exceeded.
func (c *verdictCache) put(id string, v *Verdict) bool {
	cp := *v
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.ids[id]; ok {
		c.lru.MoveToFront(e)
		return false
	}
	c.ids[id] = c.lru.PushFront(&cacheEntry{id: id, v: &cp})
	c.persist(id, &cp)
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		ent := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.ids, ent.id)
		c.unpersist(ent.id)
		mCacheEvictions.Inc()
	}
	return true
}

// len returns the live entry count.
func (c *verdictCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// persist writes one entry through to disk; failures are absorbed (the
// cache is an accelerator — losing an entry costs one replay, not
// evidence). Caller holds c.mu.
func (c *verdictCache) persist(id string, v *Verdict) {
	if c.dir == "" || !validCacheID(id) {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	tmp := filepath.Join(c.dir, id+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, id+".json")); err != nil {
		os.Remove(tmp)
	}
}

// unpersist removes an evicted entry's file. Caller holds c.mu.
func (c *verdictCache) unpersist(id string) {
	if c.dir == "" || !validCacheID(id) {
		return
	}
	os.Remove(filepath.Join(c.dir, id+".json"))
}

// rehydrate loads persisted entries back into the cache, newest files
// first so the LRU bound keeps the most recently written verdicts.
// Damaged or surplus files are removed; a file that does not parse as a
// completed verdict is junk, not evidence.
func (c *verdictCache) rehydrate() {
	if c.dir == "" {
		return
	}
	paths, err := filepath.Glob(filepath.Join(c.dir, "*.json"))
	if err != nil {
		return
	}
	type file struct {
		path string
		id   string
		mod  int64
	}
	files := make([]file, 0, len(paths))
	for _, p := range paths {
		id := strings.TrimSuffix(filepath.Base(p), ".json")
		if !validCacheID(id) {
			continue // foreign file wearing the suffix; leave it alone
		}
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		files = append(files, file{path: p, id: id, mod: fi.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod > files[j].mod })
	loaded := 0
	for _, f := range files {
		if loaded >= c.cap {
			os.Remove(f.path) // over the bound: reclaim instead of leaking
			continue
		}
		data, err := os.ReadFile(f.path)
		if err != nil {
			continue
		}
		var v Verdict
		if json.Unmarshal(data, &v) != nil || v.State != VerdictDone {
			os.Remove(f.path)
			continue
		}
		c.mu.Lock()
		if _, ok := c.ids[f.id]; !ok {
			c.ids[f.id] = c.lru.PushBack(&cacheEntry{id: f.id, v: &v})
			loaded++
		}
		c.mu.Unlock()
	}
}

// validCacheID accepts exactly the store's content addresses (64 hex
// chars), keeping crafted ids from escaping the cache directory.
func validCacheID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
