package triage

import (
	"time"

	"bugnet/internal/obs"
)

// Triage pipeline metrics. Result and state labels come from fixed
// in-code sets, and the hot handles are preallocated at init so the
// ingest path never takes a registry lock.
var (
	mIngestSeconds = obs.Default.Histogram("bugnet_triage_ingest_seconds",
		"Upload ingest latency: spool, hash, validate, store, bucket.")
	mIngestBytes = obs.Default.Counter("bugnet_triage_ingest_bytes_total",
		"Archive bytes accepted by ingest.")
	ingestResults = obs.Default.CounterVec("bugnet_triage_ingest_total",
		"Ingest outcomes: new content, duplicate upload, recovered blob, or error.", "result")
	mIngestNew       = ingestResults.With("new")
	mIngestDup       = ingestResults.With("duplicate")
	mIngestRecovered = ingestResults.With("recovered")
	mIngestErr       = ingestResults.With("error")

	mReplaySeconds = obs.Default.Histogram("bugnet_triage_replay_seconds",
		"Automatic replay latency per triaged report.")
	verdictResults = obs.Default.CounterVec("bugnet_triage_verdicts_total",
		"Replay verdicts by final state.", "state")
	mVerdictDone   = verdictResults.With(VerdictDone)
	mVerdictFailed = verdictResults.With(VerdictFailed)
	mReplayInstr   = obs.Default.Counter("bugnet_triage_replay_instructions_total",
		"Instructions executed by triage replays.")
	mVerdictAdopted = obs.Default.Counter("bugnet_triage_verdicts_adopted_total",
		"Verdicts taken from the node that replayed the archive instead of replaying it here.")
	mAwaited = obs.Default.Gauge("bugnet_triage_verdicts_awaited",
		"Stored archives whose verdict another node owes this one.")

	cacheLookups = obs.Default.CounterVec("bugnet_triage_verdict_cache_total",
		"Lookups of the verdict stored beside an archive before replaying it, by outcome.", "result")
	mCacheHits   = cacheLookups.With("hit")
	mCacheMisses = cacheLookups.With("miss")

	mQueueDepth = obs.Default.Gauge("bugnet_triage_queue_depth",
		"Verdicts owed: replays queued or running in the worker pool plus verdicts awaited from another node.")
	mBuckets = obs.Default.Gauge("bugnet_triage_buckets",
		"Live crash buckets.")

	mStoreEvictions = obs.Default.Counter("bugnet_triage_store_evictions_total",
		"Report blobs evicted from the archive store.")
	mStoreRetained = obs.Default.Gauge("bugnet_triage_store_retained_bytes",
		"Archive bytes currently retained.")
	mStoreReports = obs.Default.Gauge("bugnet_triage_store_reports",
		"Report blobs currently retained.")
	mStorePinned = obs.Default.Gauge("bugnet_triage_store_pinned",
		"Report blobs pinned by open debug sessions.")
)

// observeIngest records one ingest attempt's latency, outcome, and size.
func observeIngest(start time.Time, size int64, res *IngestResult, err error, recovered bool) {
	mIngestSeconds.Since(start)
	switch {
	case err != nil:
		mIngestErr.Inc()
		return
	case recovered:
		mIngestRecovered.Inc()
	case res.Duplicate:
		mIngestDup.Inc()
	default:
		mIngestNew.Inc()
	}
	mIngestBytes.Add(uint64(size))
}

// syncStoreGauges republishes the store occupancy gauges; caller holds
// the store lock.
func (s *Store) syncStoreGauges() {
	mStoreRetained.Set(s.stats.RetainedBytes)
	mStoreReports.Set(int64(s.stats.RetainedCount))
	mStorePinned.Set(int64(s.pinned))
}
