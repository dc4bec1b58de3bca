package core

import "bugnet/internal/obs"

// Recorder wire-path counters. All of them are unlabeled, preallocated
// handles updated in batches: the per-instruction hooks (loggable, fetch)
// touch only the recorder's plain uint64 tallies, and the log stage
// exports the deltas at each commit event, once per interval batch.
// Nothing here runs per instruction, so none of it shows in the
// benchmark's record_ns_per_instr.
var (
	mRecordIntervals = obs.Default.Counter("bugnet_record_intervals_total",
		"Checkpoint intervals committed to the log stores.")
	mRecordOps = obs.Default.Counter("bugnet_record_ops_total",
		"Loggable memory operations seen by the first-load filter.")
	mRecordLoggedOps = obs.Default.Counter("bugnet_record_logged_ops_total",
		"Memory operations actually logged (first-load misses).")
	mRecordFaults = obs.Default.Counter("bugnet_record_faults_total",
		"Faults that triggered crash-path log collection.")
)

// exportCounters publishes the recorder's tallies accumulated since the
// last commit. Called with the staged intervals still pending so their
// count is visible.
func (r *Recorder) exportCounters() {
	mRecordIntervals.Add(uint64(len(r.fllPend)))
	mRecordOps.Add(r.totalOps - r.exportedTotal)
	mRecordLoggedOps.Add(r.loggedOps - r.exportedLogged)
	r.exportedTotal = r.totalOps
	r.exportedLogged = r.loggedOps
}
