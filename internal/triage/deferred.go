package triage

import (
	"errors"
	"fmt"
	"time"

	"bugnet/internal/obs"
	"bugnet/internal/report"
)

// Deferred replay. An archive ingested with Origin.Replayer set is stored,
// bucketed and indexed like any other, but its verdict is awaited from the
// node that replays it rather than computed here. The wait ends one of
// three ways: AdoptVerdict brings the verdict, ReplayDeferred gives up and
// replays locally, or the same bytes arrive again unmarked and take the
// replay over.

// Origin is what an ingest carries beyond the archive's bytes.
type Origin struct {
	// RequestID is the id of the upload request the archive arrived on; it
	// rides the replay job into the worker's log line and the verdict hook.
	RequestID string
	// Replayer, when set, marks an archive another node replays: the
	// service stores, buckets and indexes it as ever, leaves its verdict
	// pending, counts it in Pending, and queues no replay — the verdict
	// arrives through AdoptVerdict, or ReplayDeferred gives up the wait.
	// The value is opaque here (the cluster layer puts the replayer's base
	// URL in it) and comes back from Awaited.
	Replayer string
}

// Awaited is one verdict this service is owed by another node.
type Awaited struct {
	ID        string
	Replayer  string
	RequestID string
	Since     time.Time

	bucketKey string
}

// oweLocked records that id's verdict is now owed and returns the replay
// to queue for it — nil when from names another node as the replayer and
// the verdict is awaited instead. An id is owed once however it got here:
// one already awaited (its record was evicted meanwhile) keeps its place
// in pending. Caller holds s.mu.
func (s *Service) oweLocked(id, key string, from Origin) *job {
	if _, awaiting := s.awaited[id]; awaiting {
		return s.takeOverLocked(id, from)
	}
	s.pending++
	mQueueDepth.Set(int64(s.pending))
	if from.Replayer == "" {
		return &job{id: id, bucketKey: key, requestID: from.RequestID}
	}
	s.awaited[id] = Awaited{ID: id, Replayer: from.Replayer, RequestID: from.RequestID,
		Since: time.Now(), bucketKey: key}
	mAwaited.Set(int64(len(s.awaited)))
	return nil
}

// takeOverLocked turns an awaited verdict into a local replay when the
// archive reached this node again with nobody else named to replay it
// (two coordinators each handed the other the same never-seen bytes, or
// the wait was given up). The entry keeps its place in pending. nil when
// id is not awaited or from names a replayer. Caller holds s.mu.
func (s *Service) takeOverLocked(id string, from Origin) *job {
	aw, ok := s.awaited[id]
	if !ok || from.Replayer != "" {
		return nil
	}
	delete(s.awaited, id)
	mAwaited.Set(int64(len(s.awaited)))
	if from.RequestID == "" {
		from.RequestID = aw.RequestID
	}
	return &job{id: id, bucketKey: aw.bucketKey, requestID: from.RequestID}
}

// settle finishes an ingest outside the lock: queue the replay it owes,
// or — for an archive whose verdict got here first — complete the wait
// at once from the stored verdict.
func (s *Service) settle(id string, owed *job, from Origin) {
	switch {
	case owed != nil:
		s.jobs <- *owed
	case from.Replayer != "":
		if v, ok := s.store.Verdict(id); ok {
			s.completeAwaited(id, v)
		}
	}
}

// AdoptVerdict takes the verdict another owner of id computed by
// replaying the same bytes — the one way a verdict this node did not
// compute enters — and stores it beside the archive like a local one: an
// awaited report completes with it, a queued replay finds it, and one
// that beats its archive is held by the store for the ingest. Only done
// verdicts of well-formed ids are accepted, and a stored verdict is never
// overwritten. After Close it refuses with ErrClosed and writes nothing,
// as ingest does. It reports whether an awaited report completed.
func (s *Service) AdoptVerdict(id string, v *Verdict) (bool, error) {
	if err := s.begin(); err != nil {
		return false, err
	}
	defer s.ingesting.Done()
	if !report.ValidID(id) {
		return false, fmt.Errorf("triage: adopt verdict: malformed report id %q", id)
	}
	if v == nil || v.State != VerdictDone {
		return false, errors.New("triage: adopt verdict: only a done verdict can be adopted")
	}
	s.store.PutVerdict(id, v)
	return s.completeAwaited(id, v), nil
}

// completeAwaited ends the wait for id with v, if id is still awaited.
func (s *Service) completeAwaited(id string, v *Verdict) bool {
	s.mu.Lock()
	aw, ok := s.awaited[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.awaited, id)
	mAwaited.Set(int64(len(s.awaited)))
	mVerdictAdopted.Inc() // before WaitIdle can see the wait end
	s.recordVerdictLocked(id, aw.bucketKey, v.clone())
	s.mu.Unlock()
	obs.Logger().Info("verdict adopted", "report", id, "request_id", aw.RequestID, "replayer", aw.Replayer)
	return true
}

// ReplayDeferred gives up waiting for id's verdict and queues the replay
// here. It reports whether id was awaited.
func (s *Service) ReplayDeferred(id string) bool {
	if s.begin() != nil {
		return false
	}
	defer s.ingesting.Done()
	s.mu.Lock()
	owed := s.takeOverLocked(id, Origin{})
	s.mu.Unlock()
	if owed == nil {
		return false
	}
	s.jobs <- *owed
	return true
}

// Awaited lists the verdicts this service is waiting for, in no order.
func (s *Service) Awaited() []Awaited {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Awaited, 0, len(s.awaited))
	for _, aw := range s.awaited {
		out = append(out, aw)
	}
	return out
}

// Awaiting returns the replayer id's verdict is awaited from.
func (s *Service) Awaiting(id string) (replayer string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	aw, ok := s.awaited[id]
	return aw.Replayer, ok
}

// SetVerdictHook registers fn to receive every done verdict a replay
// worker completes (replayed or found cached; adopted verdicts are not
// reported back). fn runs on the worker goroutine and must not block; the
// verdict is shared and read-only.
func (s *Service) SetVerdictHook(fn func(id string, v *Verdict, requestID string)) {
	s.mu.Lock()
	s.onVerdict = fn
	s.mu.Unlock()
}
