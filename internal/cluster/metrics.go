package cluster

import "bugnet/internal/obs"

// Cluster metrics. Label sets are fixed in code; hot handles are
// preallocated so the forward/repair paths never take a registry lock.
var (
	mRingNodes = obs.Default.Gauge("bugnet_cluster_ring_nodes",
		"Distinct nodes on the placement ring.")

	forwardResults = obs.Default.CounterVec("bugnet_cluster_forwards_total",
		"Replica writes initiated by this coordinator, by outcome.", "result")
	mForwardOK   = forwardResults.With("ok")
	mForwardErr  = forwardResults.With("error")
	mForwardSelf = forwardResults.With("local")

	mQuorumFail = obs.Default.Counter("bugnet_cluster_quorum_failures_total",
		"Ingests rejected because fewer than write-quorum owners acked.")

	mRepairsTotal = obs.Default.Counter("bugnet_cluster_repairs_total",
		"Replicas restored to missing owners by read-repair or anti-entropy.")
	mRepairErr = obs.Default.Counter("bugnet_cluster_repair_errors_total",
		"Failed repair attempts (retried by anti-entropy).")
	mAntiEntropyQueue = obs.Default.Gauge("bugnet_cluster_antientropy_queue",
		"Replication tasks waiting in the anti-entropy queue.")
	aeDrops = obs.Default.CounterVec("bugnet_cluster_antientropy_drops_total",
		"Replication tasks dropped, by reason (queue bound hit, or per-task attempt cap exhausted).", "reason")
	mAEDropQueueFull = aeDrops.With("queue_full")
	mAEDropGaveUp    = aeDrops.With("gave_up")

	pushResults = obs.Default.CounterVec("bugnet_cluster_verdict_push_total",
		"Verdicts this node replayed and offered to another owner, by outcome (dropped: the push queue was full).", "result")
	mPushOK          = pushResults.With("ok")
	mPushErr         = pushResults.With("error")
	mPushDropped     = pushResults.With("dropped")
	mFallbackReplays = obs.Default.Counter("bugnet_cluster_verdict_fallback_replays_total",
		"Archives replayed here after the wait for their replayer's verdict was given up.")

	mHintsQuarantined = obs.Default.Counter("bugnet_cluster_hints_quarantined_total",
		"Hint files moved aside because their name or content could not be trusted.")

	proxyResults = obs.Default.CounterVec("bugnet_cluster_proxy_reads_total",
		"Reads served by proxying to a replica owner, by outcome.", "result")
	mProxyOK   = proxyResults.With("ok")
	mProxyMiss = proxyResults.With("miss")
	mProxyErr  = proxyResults.With("error")

	mShedTotal = obs.Default.Counter("bugnet_cluster_shed_total",
		"Uploads shed by admission control (429).")
	mDegradedSheds = obs.Default.Counter("bugnet_cluster_degraded_sheds_total",
		"Writes refused with 503 because the local store is degraded.")
	mAdmBytes = obs.Default.Gauge("bugnet_cluster_admission_bytes",
		"Spool bytes currently reserved by admitted uploads.")
	mAdmInflight = obs.Default.Gauge("bugnet_cluster_admission_inflight",
		"Uploads currently admitted and in flight.")
)
