package cluster

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// antiEntropy is the background half of the write path: every owner that
// missed a quorum-successful write is owed the blob, and this worker
// retries until the debt is paid. Sources, in order: the local store (when
// this node is an owner), the hint file the coordinator parked (when it is
// not), and finally any other owner that holds the blob. The queue is
// bounded — at the bound new tasks are dropped with a counter rather than
// growing without limit, because a down node's debt is rediscoverable
// later via read-repair.
//
// The same sweep settles the other debt a node can be owed: verdicts it
// awaits from the owner that replays an archive (sweepAwaited).
type antiEntropy struct {
	n           *Node
	interval    time.Duration
	maxAttempts int
	now         func() time.Time // the wait clock of sweepAwaited

	mu      sync.Mutex
	pending map[repairTask]int // task -> attempts so far
	wake    chan struct{}
	done    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

type repairTask struct {
	id   string
	node string
}

const (
	// maxQueuedRepairs bounds the debt ledger; ~64 bytes a task.
	maxQueuedRepairs = 4096
	// defaultMaxRepairAttempts is the give-up limit per task. With the
	// default 1s interval that is ~5 minutes of outage covered; longer
	// outages heal via read-repair when the node returns.
	defaultMaxRepairAttempts = 300
)

func newAntiEntropy(n *Node, interval time.Duration, maxAttempts int) *antiEntropy {
	if interval <= 0 {
		interval = time.Second
	}
	if maxAttempts <= 0 {
		maxAttempts = defaultMaxRepairAttempts
	}
	ae := &antiEntropy{
		n:           n,
		interval:    interval,
		maxAttempts: maxAttempts,
		now:         time.Now,
		pending:     make(map[repairTask]int),
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	ae.wg.Add(1)
	go ae.run()
	return ae
}

func (ae *antiEntropy) close() {
	ae.mu.Lock()
	if !ae.stopped {
		ae.stopped = true
		close(ae.done)
	}
	ae.mu.Unlock()
	ae.wg.Wait()
}

// enqueue records that node is owed id. Duplicate debts collapse.
func (ae *antiEntropy) enqueue(id, node string) {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	if ae.stopped {
		return
	}
	t := repairTask{id: id, node: node}
	if _, ok := ae.pending[t]; ok {
		return
	}
	if len(ae.pending) >= maxQueuedRepairs {
		mAEDropQueueFull.Inc()
		return
	}
	ae.pending[t] = 0
	mAntiEntropyQueue.Set(int64(len(ae.pending)))
	select {
	case ae.wake <- struct{}{}:
	default:
	}
}

func (ae *antiEntropy) depth() int {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	return len(ae.pending)
}

func (ae *antiEntropy) run() {
	defer ae.wg.Done()
	timer := time.NewTimer(ae.interval)
	defer timer.Stop()
	for {
		select {
		case <-ae.done:
			return
		case <-ae.wake:
		case <-timer.C:
		}
		ae.sweep()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(ae.interval)
	}
}

// sweep is one anti-entropy round: every owed replica write is attempted
// once, then every awaited verdict is looked after.
func (ae *antiEntropy) sweep() {
	ae.sweepRepairs()
	ae.sweepAwaited()
}

func (ae *antiEntropy) sweepRepairs() {
	ae.mu.Lock()
	tasks := make([]repairTask, 0, len(ae.pending))
	for t := range ae.pending {
		tasks = append(tasks, t)
	}
	ae.mu.Unlock()

	for _, t := range tasks {
		select {
		case <-ae.done:
			return
		default:
		}
		ok := ae.repair(t)
		ae.mu.Lock()
		if ok {
			delete(ae.pending, t)
		} else {
			ae.pending[t]++
			if ae.pending[t] >= ae.maxAttempts {
				// Exhausted: surface the abandonment in the drop counter —
				// the debt is rediscoverable via read-repair — and stop
				// burning sweeps on it.
				delete(ae.pending, t)
				mAEDropGaveUp.Inc()
			}
		}
		remaining := ae.hasDebtLocked(t.id)
		mAntiEntropyQueue.Set(int64(len(ae.pending)))
		ae.mu.Unlock()
		if ok && !remaining {
			// Every owner has the blob now; the hint (if any) is dead weight.
			os.Remove(filepath.Join(ae.n.hintDir, t.id))
		}
	}
}

func (ae *antiEntropy) hasDebtLocked(id string) bool {
	for t := range ae.pending {
		if t.id == id {
			return true
		}
	}
	return false
}

// repair pays one debt: push id to node from the best available source.
func (ae *antiEntropy) repair(t repairTask) bool {
	n := ae.n
	// One clock for the whole repair: the same bound every peer call in it
	// already carries.
	ctx, cancel := context.WithTimeout(context.Background(), n.client.timeout)
	defer cancel()

	// Skip the push if the owner already caught up (read-repair beat us —
	// and already counted the restore).
	if has, err := n.client.hasReplica(ctx, t.node, t.id); err == nil && has {
		return true
	}

	src, cleanup, ok := ae.source(ctx, t.id)
	if !ok {
		mRepairErr.Inc()
		return false
	}
	defer cleanup()
	fi, err := os.Stat(src)
	if err != nil {
		mRepairErr.Inc()
		return false
	}
	if _, err := n.putReplicaFile(ctx, t.node, t.id, src, fi.Size(), n.replayer(t.id, n.owners(t.id))); err != nil {
		mRepairErr.Inc()
		return false
	}
	mRepairsTotal.Inc()
	return true
}

// source finds a local file holding id's bytes: the pinned store blob,
// the coordinator's hint file, or a copy fetched from another owner. A
// hint is only trusted after its content re-hashes to its name — a
// corrupt or truncated hint is quarantined, not pushed and not retried.
func (ae *antiEntropy) source(ctx context.Context, id string) (path string, cleanup func(), ok bool) {
	n := ae.n
	store := n.cfg.Service.Store()
	if p, found := store.Pin(id); found {
		return p, func() { store.Unpin(id) }, true
	}
	hint := filepath.Join(n.hintDir, id)
	if _, err := os.Stat(hint); err == nil {
		if got, err := hashFile(hint); err == nil && got == id {
			return hint, func() {}, true
		}
		n.quarantineHint(hint)
	}
	for _, o := range n.owners(id) {
		if o == n.self {
			continue
		}
		rc, _, err := n.client.getReplica(ctx, o, id)
		if err != nil {
			continue
		}
		tmpPath, gotID, _, err := func() (string, string, int64, error) {
			defer rc.Close()
			return n.spoolBody(rc)
		}()
		if err != nil {
			continue
		}
		if gotID != id {
			os.Remove(tmpPath)
			continue
		}
		return tmpPath, func() { os.Remove(tmpPath) }, true
	}
	return "", nil, false
}
