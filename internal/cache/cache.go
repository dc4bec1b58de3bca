// Package cache models the two-level cache hierarchy that holds BugNet's
// first-load (FL) bits (paper §4.3).
//
// BugNet associates one FL bit with every word in the L1 and L2 caches. A
// load whose word has the bit clear is a "first load" and must be logged;
// the bit is then set. Stores set the bit without logging. The bits follow
// blocks around the hierarchy:
//
//   - filling an L1 block from L2 copies the L2 block's FL bits into L1;
//   - evicting an L1 block stores its FL bits back into the L2 copy;
//   - evicting a block from L2 loses its FL bits (cleared), so re-accessed
//     words get re-logged — this is what makes log size sensitive to cache
//     geometry and working-set size;
//   - an external invalidation (coherence or DMA write) removes the block
//     and its FL bits, forcing the externally written values to be logged
//     on the next load.
//
// The model is functional, not timed: it tracks presence, recency and FL
// bits, plus the hit/miss/traffic counters the bus-overhead model consumes.
// Data values live in the authoritative mem.Memory.
package cache

import (
	"fmt"
	"math/bits"
)

// maxWordsPerBlock bounds block size so FL bits fit a uint64 per line.
const maxWordsPerBlock = 64

// LevelConfig describes one cache level.
type LevelConfig struct {
	SizeBytes  int // total capacity
	BlockBytes int // line size; power of two, 4..256
	Assoc      int // ways per set
}

// Sets returns the number of sets implied by the geometry.
func (c LevelConfig) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

func (c LevelConfig) validate(name string) error {
	if c.BlockBytes < 4 || c.BlockBytes > 4*maxWordsPerBlock || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: %s block size %d invalid", name, c.BlockBytes)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: %s associativity %d invalid", name, c.Assoc)
	}
	s := c.Sets()
	if s < 1 || s&(s-1) != 0 || s*c.BlockBytes*c.Assoc != c.SizeBytes {
		return fmt.Errorf("cache: %s geometry %d/%d/%d does not divide into power-of-two sets",
			name, c.SizeBytes, c.BlockBytes, c.Assoc)
	}
	return nil
}

// Config describes the two-level private hierarchy of one processor.
type Config struct {
	L1 LevelConfig
	L2 LevelConfig
}

// DefaultConfig mirrors a typical 2005-era core: 32 KB 4-way L1 and 1 MB
// 8-way L2, both with 64-byte blocks (the geometry FDR assumes as well).
func DefaultConfig() Config {
	return Config{
		L1: LevelConfig{SizeBytes: 32 << 10, BlockBytes: 64, Assoc: 4},
		L2: LevelConfig{SizeBytes: 1 << 20, BlockBytes: 64, Assoc: 8},
	}
}

// Stats counts cache events for the experiment harness and bus model.
type Stats struct {
	L1Hits        uint64
	L1Misses      uint64
	L2Hits        uint64
	L2Misses      uint64 // memory fetches
	L1Evictions   uint64
	L2Evictions   uint64
	Invalidations uint64 // external (coherence/DMA) block invalidations that hit
}

// level is one cache level. A line is a slot in flat parallel arrays, way w
// of set s at slot s*assoc+w, so a lookup compares assoc adjacent keys and
// ClearAllFL is one clear of fl. The hardware keeps the FL bits beside the
// tags the same way (paper §4.3).
type level struct {
	cfg LevelConfig
	// keys holds block|1 for a valid line and 0 for an invalid one: block
	// addresses are multiples of at least 4, so bit 0 is free to carry
	// the valid bit and no block's key is 0.
	keys    []uint32
	fl      []uint64 // first-load bits, one per word in the block
	ticks   []uint64 // LRU timestamps; an invalidated line keeps its last one
	setMask uint32
}

func newLevel(cfg LevelConfig) level {
	n := cfg.Sets() * cfg.Assoc
	return level{
		cfg:     cfg,
		keys:    make([]uint32, n),
		fl:      make([]uint64, n),
		ticks:   make([]uint64, n),
		setMask: uint32(cfg.Sets() - 1),
	}
}

// find returns the slot holding the block with the given key in the set
// whose first slot is base, or -1.
func (l *level) find(base int, key uint32) int {
	for w, k := range l.keys[base : base+l.cfg.Assoc] {
		if k == key {
			return base + w
		}
	}
	return -1
}

// victim returns the slot a fill replaces in the set whose first slot is
// base: the first invalid way after way 0, else the least recently used.
// Way 0 is never preferred for being invalid, and an invalidated way still
// competes with the tick it had when it was dropped. Logged bits depend on
// which line goes, so this order is part of the log format (see DESIGN §2).
func (l *level) victim(base int) int {
	keys, ticks := l.keys[base:base+l.cfg.Assoc], l.ticks[base:base+l.cfg.Assoc]
	v := 0
	for w := 1; w < len(keys); w++ {
		if keys[w] == 0 {
			return base + w
		}
		if ticks[w] < ticks[v] {
			v = w
		}
	}
	return base + v
}

// Hierarchy is one processor's private L1+L2 with FL-bit tracking.
type Hierarchy struct {
	l1, l2 level
	// l2slot[s] is the L2 slot holding the copy of the block in L1 slot s.
	// A valid L1 line's L2 copy never moves or leaves before the L1 line
	// does: only evictL2 and InvalidateBlock remove an L2 line, and both
	// drop the L1 copy with it.
	l2slot     []uint32
	blockShift uint   // log2(block bytes)
	blockMask  uint32 // clears the offset within a block
	tick       uint64
	stats      Stats
}

// New builds a hierarchy. It panics on invalid geometry (configuration is a
// programming decision, not runtime input). L1 and L2 must share a block
// size so FL bits transfer 1:1 between levels, as the paper assumes.
func New(cfg Config) *Hierarchy {
	if err := cfg.L1.validate("L1"); err != nil {
		panic(err)
	}
	if err := cfg.L2.validate("L2"); err != nil {
		panic(err)
	}
	if cfg.L1.BlockBytes != cfg.L2.BlockBytes {
		panic("cache: L1 and L2 block sizes must match for FL-bit transfer")
	}
	h := &Hierarchy{
		l1:         newLevel(cfg.L1),
		l2:         newLevel(cfg.L2),
		blockShift: uint(bits.TrailingZeros(uint(cfg.L1.BlockBytes))),
		blockMask:  ^uint32(cfg.L1.BlockBytes - 1),
	}
	h.l2slot = make([]uint32, len(h.l1.keys))
	return h
}

// BlockBytes returns the block size shared by both levels.
func (h *Hierarchy) BlockBytes() int { return h.l1.cfg.BlockBytes }

// Stats returns the event counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// L2Misses returns the count of memory fetches, the one counter the bus
// model samples on every access.
func (h *Hierarchy) L2Misses() uint64 { return h.stats.L2Misses }

// locate returns the key of addr's block and the first slot of its set in
// each level.
func (h *Hierarchy) locate(addr uint32) (key uint32, base1, base2 int) {
	set := addr >> h.blockShift
	return addr&h.blockMask | 1, int(set&h.l1.setMask) * h.l1.cfg.Assoc, int(set&h.l2.setMask) * h.l2.cfg.Assoc
}

// wordBit returns the FL bit mask of addr's word within its block.
func (h *Hierarchy) wordBit(addr uint32) uint64 {
	return 1 << ((addr &^ h.blockMask) >> 2)
}

// touch brings addr's block into L1 (and L2, by inclusion), returning the
// slot of the L1 line. This is the access path shared by loads and stores.
func (h *Hierarchy) touch(addr uint32) int {
	h.tick++
	key, base1, base2 := h.locate(addr)
	if s1 := h.l1.find(base1, key); s1 >= 0 {
		h.stats.L1Hits++
		h.l1.ticks[s1] = h.tick
		return s1
	}
	h.stats.L1Misses++

	// L2 lookup.
	s2 := h.l2.find(base2, key)
	if s2 >= 0 {
		h.stats.L2Hits++
	} else {
		h.stats.L2Misses++
		s2 = h.l2.victim(base2)
		if h.l2.keys[s2] != 0 {
			h.evictL2(s2)
		}
		h.l2.keys[s2], h.l2.fl[s2] = key, 0
	}
	h.l2.ticks[s2] = h.tick

	// Fill L1, copying the L2 block's FL bits.
	s1 := h.l1.victim(base1)
	if h.l1.keys[s1] != 0 {
		h.evictL1(s1)
	}
	h.l1.keys[s1], h.l1.fl[s1], h.l1.ticks[s1] = key, h.l2.fl[s2], h.tick
	h.l2slot[s1] = uint32(s2)
	return s1
}

// evictL1 writes the line's FL bits back to its L2 copy and drops it.
func (h *Hierarchy) evictL1(s1 int) {
	h.stats.L1Evictions++
	h.l2.fl[h.l2slot[s1]] = h.l1.fl[s1]
	h.l1.keys[s1] = 0
}

// evictL2 drops an L2 line, losing its FL bits, and invalidates the L1 copy
// to preserve inclusion.
func (h *Hierarchy) evictL2(s2 int) {
	h.stats.L2Evictions++
	key := h.l2.keys[s2]
	_, base1, _ := h.locate(key)
	if s1 := h.l1.find(base1, key); s1 >= 0 {
		h.l1.keys[s1] = 0
	}
	h.l2.keys[s2] = 0
}

// LoadTestAndSetFL performs the first-load check for a loggable operation
// on the word containing addr: it brings the block in, returns whether the
// word's FL bit was already set, and sets it. A false result means "this is
// a first load — log the word's value".
func (h *Hierarchy) LoadTestAndSetFL(addr uint32) (wasSet bool) {
	fl := &h.l1.fl[h.touch(addr)]
	bit := h.wordBit(addr)
	wasSet = *fl&bit != 0
	*fl |= bit
	return wasSet
}

// StoreSetFL performs the store-side rule for a full-word store: bring the
// block in and set the word's FL bit without logging (the stored value is
// regenerated by replay).
func (h *Hierarchy) StoreSetFL(addr uint32) {
	h.l1.fl[h.touch(addr)] |= h.wordBit(addr)
}

// InvalidateBlock removes the block containing addr from both levels,
// discarding its FL bits. Coherence invalidations and DMA writes use this
// so externally modified words are re-logged on next access (paper §4.5,
// §4.6). It reports whether any copy was present.
func (h *Hierarchy) InvalidateBlock(addr uint32) bool {
	key, base1, base2 := h.locate(addr)
	present := false
	if s := h.l1.find(base1, key); s >= 0 {
		h.l1.keys[s] = 0
		present = true
	}
	if s := h.l2.find(base2, key); s >= 0 {
		h.l2.keys[s] = 0
		present = true
	}
	if present {
		h.stats.Invalidations++
	}
	return present
}

// InvalidateRange invalidates every block overlapping [addr, addr+size).
func (h *Hierarchy) InvalidateRange(addr, size uint32) {
	if size == 0 {
		return
	}
	bs := uint32(h.BlockBytes())
	first := addr &^ (bs - 1)
	last := (addr + size - 1) &^ (bs - 1)
	for b := first; ; b += bs {
		h.InvalidateBlock(b)
		if b == last {
			break
		}
	}
}

// ClearAllFL zeroes every FL bit in both levels without evicting blocks.
// The recorder calls this at each checkpoint-interval start (paper §4.3:
// "At the start of a checkpoint interval all these bits will be cleared").
func (h *Hierarchy) ClearAllFL() {
	clear(h.l1.fl)
	clear(h.l2.fl)
}

// flWord returns the FL bits of addr's block, from L1 if it is there, else
// from L2, and whether either level holds the block.
func (h *Hierarchy) flWord(addr uint32) (fl uint64, present bool) {
	key, base1, base2 := h.locate(addr)
	if s := h.l1.find(base1, key); s >= 0 {
		return h.l1.fl[s], true
	}
	if s := h.l2.find(base2, key); s >= 0 {
		return h.l2.fl[s], true
	}
	return 0, false
}

// FLSet reports whether the FL bit for addr's word is currently set,
// without touching LRU state. Intended for tests and debugging.
func (h *Hierarchy) FLSet(addr uint32) bool {
	fl, _ := h.flWord(addr)
	return fl&h.wordBit(addr) != 0
}

// Present reports whether addr's block is cached at either level. Intended
// for tests.
func (h *Hierarchy) Present(addr uint32) bool {
	_, present := h.flWord(addr)
	return present
}

// FLBitsStorageBytes returns the SRAM cost of the FL bits across both
// levels: one bit per cached word. Used in the Table 3 hardware-complexity
// accounting.
func (h *Hierarchy) FLBitsStorageBytes() int {
	return (h.l1.cfg.SizeBytes + h.l2.cfg.SizeBytes) / 4 / 8
}
