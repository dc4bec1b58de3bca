package timetravel

import (
	"math"
	"slices"
	"sort"

	"bugnet/internal/core"
	"bugnet/internal/mem"
)

// checkpoint is one restore point.
type checkpoint struct {
	pos  uint64
	snap *core.ReplaySnapshot
	// added names the table parts this checkpoint may hold in a version
	// the checkpoint before it does not: every other part the two share.
	// It starts as snap.Added and grows by inheritance as predecessors are
	// evicted. The checkpoint is charged fixed + added.Bytes().
	added mem.Delta
	fixed int64
}

// checkpointStore decides where an engine keeps its restore points. The
// engine's motions ask it where to restore for a target (restore), whether
// to lay a checkpoint where the machine stands after running forward
// (ran), and which gaps lie below a position (gaps).
//
// It keeps a reach bound, an availability guarantee for replay starting
// points in Huselius et al.'s sense: a motion re-executes at most from the
// latest checkpoint at or before its target, or from where the machine
// stands when that is closer. The checkpoints are the anchor where the
// engine's history starts, the K grid every forward run lays, and at most
// one near checkpoint off the grid. Under an unlimited budget no two
// consecutive checkpoints stand more than K apart, but below the grid
// checkpoint an open on the tail laid, until backward motions lay the grid
// there too; a budget widens the bound to the widest gap eviction leaves.
type checkpointStore struct {
	m      *core.ReplayMachine // the machine the checkpoints restore into
	k      uint64              // the grid spacing K
	budget int64

	list  []*checkpoint // ascending by pos; list[0] is the anchor
	bytes int64
	next  uint64 // the grid position a forward run lays the next one at
	// near is the checkpoint the last planting motion left δ short of its
	// target (see SeekTo), nil once dropped; one of list, off the grid as a
	// rule.
	near *checkpoint
	// seeking is set by a SeekTo and cleared by a reverse step: no reverse
	// step has come since the last SeekTo, so a long SeekTo plants nothing.
	seeking bool
	// carry names the parts in which the machine's shared state may differ
	// from the checkpoint at or before its position, beyond what it has
	// copied since: the machine re-executed past that checkpoint sharing
	// with an older one, or the one it shared with was evicted. The next
	// checkpoint answers for them; a restore clears them.
	carry mem.Delta
	// hole is the grid checkpoint an open on the tail laid before its
	// target, with no grid between it and the anchor (see open); 0 when the
	// open skipped no grid position, or once a motion has gone below it.
	hole uint64
}

// reset anchors the store where m stands, with no other checkpoint.
func (s *checkpointStore) reset(m *core.ReplayMachine) {
	s.m, s.list, s.bytes, s.near, s.carry, s.hole = m, nil, 0, nil, nil, 0
	s.lay(false)
	s.next = s.after(m.Pos())
}

// anchor returns the position the store's history starts at: the anchor's,
// 0 while the store is empty.
func (s *checkpointStore) anchor() uint64 {
	if len(s.list) == 0 {
		return 0
	}
	return s.list[0].pos
}

// after returns the first grid position past pos.
func (s *checkpointStore) after(pos uint64) uint64 { return (pos/s.k + 1) * s.k }

// at returns the index of the latest checkpoint with pos <= target, -1 if
// there is none.
func (s *checkpointStore) at(target uint64) int {
	return sort.Search(len(s.list), func(i int) bool { return s.list[i].pos > target }) - 1
}

// open readies the store of an engine opening on the tail for its first
// motion, to target. Of the grid over the tail, the forward run lays only
// the last checkpoint before target, where a reverse step from target
// restores. The grid below it waits for the backward motions into that
// hole: each restores the anchor and re-aligns to the grid.
func (s *checkpointStore) open(target uint64) {
	if last := (target - 1) / s.k * s.k; last > s.next {
		s.next, s.hole = last, last
	}
}

// nearDistance is δ = ⌈√(2K)⌉, how far short of a long seek's target the
// near checkpoint stands.
func (s *checkpointStore) nearDistance() uint64 {
	return uint64(math.Ceil(math.Sqrt(float64(2 * s.k))))
}

// plants reports whether a motion, a reverse step if back is set and a
// seek otherwise, plants the near checkpoint when it has far to go.
func (s *checkpointStore) plants(back bool) bool {
	plant := back || !s.seeking
	s.seeking = !back
	return plant
}

// restore rewinds the machine to the latest checkpoint at or before target
// when that lands closer than where the machine stands, and re-aligns the
// grid there, whether the checkpoint is on it or the near one. The first
// motion below an open's hole counts in mTailGrids.
func (s *checkpointStore) restore(target uint64) {
	if target < s.hole {
		mTailGrids.Inc()
		s.hole = 0
	}
	c := s.list[s.at(target)]
	if pos := s.m.Pos(); target >= pos && c.pos <= pos {
		return
	}
	s.m.Restore(c.snap)
	s.carry = nil
	s.next = s.after(c.pos)
}

// nearAt returns where a motion to target plants the near checkpoint, and
// whether it does: when plant is set and more than 2δ lie ahead.
func (s *checkpointStore) nearAt(target uint64, plant bool) (uint64, bool) {
	d := s.nearDistance()
	return target - d, plant && target-s.m.Pos() > 2*d
}

// ran runs after the machine executed forward from position from, and lays
// a checkpoint where it stands when the grid is due. The machine ran onto
// every checkpoint in (from, pos] from before it, still sharing with an
// older one, which differs from each wherever that checkpoint's gap
// changed state: the next checkpoint laid answers for their added sets.
func (s *checkpointStore) ran(from uint64) {
	pos := s.m.Pos()
	for i := s.at(pos); i >= 0 && s.list[i].pos > from; i-- {
		s.carry.Absorb(s.list[i].added)
	}
	if pos >= s.next {
		s.next = pos + s.k
		s.lay(false)
	}
}

// lay checkpoints the machine where it stands, unless one stands there, and
// enforces the budget. A near checkpoint replaces the previous one.
func (s *checkpointStore) lay(near bool) {
	pos := s.m.Pos()
	i := s.at(pos)
	if i >= 0 && s.list[i].pos == pos {
		return
	}
	if near && s.near != nil {
		s.drop(s.at(s.near.pos))
		i = s.at(pos)
	}
	snap := s.m.Snapshot()
	c := &checkpoint{pos: pos, snap: snap, added: snap.Added()}
	c.fixed = snap.SizeBytes() - c.added.Bytes()
	c.added.Absorb(s.carry)
	s.carry = nil
	s.bytes += c.fixed + c.added.Bytes()
	s.list = slices.Insert(s.list, i+1, c)
	if i+2 < len(s.list) {
		// Laid before a checkpoint another pass took, which shares with
		// the checkpoint before c, not with c: it answers for that one's
		// versions of the parts c copied, or they would leave the
		// occupancy with the checkpoint before c while it still holds them.
		next := s.list[i+2]
		s.bytes += c.added.Bytes() - next.added.Absorb(c.added)
	}
	if near {
		s.near = c
	}
	s.evict()
}

// evict drops the interior checkpoint whose removal leaves the smallest gap
// until the budget is met, sparing the anchor and the newest. The near
// checkpoint goes last: its neighbours stand at most K apart, so by gap it
// would always go first, and the reverse steps it serves with it.
func (s *checkpointStore) evict() {
	for s.bytes > s.budget && len(s.list) > 2 {
		best, bestGap := -1, uint64(0)
		for i := 1; i < len(s.list)-1; i++ {
			gap := s.list[i+1].pos - s.list[i-1].pos
			if s.list[i] == s.near {
				gap = math.MaxUint64
			}
			if best == -1 || gap < bestGap {
				best, bestGap = i, gap
			}
		}
		s.drop(best)
	}
}

// drop removes the checkpoint at index i > 0. Its successor inherits its
// added set: parts named by both are versions only the dropped checkpoint
// held (the successor's gap replaced them) and leave the occupancy with
// its fixed cost; the rest the successor still shares and now answers
// for. The newest checkpoint has no successor, so its whole added set
// leaves. The machine answers for the set too, when the checkpoint it
// shares with is the one dropped.
func (s *checkpointStore) drop(i int) {
	c := s.list[i]
	freed := c.fixed + c.added.Bytes()
	if i+1 < len(s.list) {
		freed = c.fixed + s.list[i+1].added.Absorb(c.added)
	}
	s.bytes -= freed
	if i == s.at(s.m.Pos()) {
		s.carry.Absorb(c.added)
	}
	if c == s.near {
		s.near = nil
	}
	s.list = slices.Delete(s.list, i, i+1)
}

// gap is a stretch of history the reverse scan re-executes: from its
// checkpoint up to limit.
type gap struct {
	ck    *checkpoint
	limit uint64
}

// gaps cuts the history below limit at the checkpoints, newest first.
func (s *checkpointStore) gaps(limit uint64) []gap {
	gs := make([]gap, 0, len(s.list))
	for i := s.at(limit); i >= 0; i-- {
		if c := s.list[i]; c.pos < limit {
			gs = append(gs, gap{c, limit})
			limit = c.pos
		}
	}
	return gs
}
