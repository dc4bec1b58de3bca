package parreplay

import "bugnet/internal/obs"

// Parallel-replay pool metrics. Handles are preallocated so the per-unit
// accounting in the worker loop is two atomic adds.
var (
	mWorkersBusy = obs.Default.Gauge("bugnet_parreplay_workers_busy",
		"Replay pool workers currently executing an interval.")
	mIntervals = obs.Default.Counter("bugnet_parreplay_intervals_total",
		"Checkpoint intervals replayed by the parallel executor.")
	mSequential = obs.Default.Counter("bugnet_parreplay_sequential_total",
		"Report replays routed to the sequential path (one-worker pool, race detection or MRL constraints).")
)
