package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric of the benchmark. BENCHMARK.json at the repo
// root lists the same names, units, directions and bounds; schema_test.go
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// Exact marks a simulated count: it must read the same on every run
	// of the same code, whatever the host does.
	Exact bool `json:"exact,omitempty"`
}

// endToEnd are the metrics a user of the system sees: the recorded
// program (record cost, log rate, replay window), the developer (replay
// and reverse-step waits) and the fleet operator (replay work per upload).
// Every workload reports every one of them, from the untraced run. Bounds
// are shares of the parent's median; README.md gives the measured spreads
// they were set from, and why the operator's waits (upload ack, verdict,
// uploads per second) are per-layer metrics on this box and no gates.
var endToEnd = []metricDef{
	{Name: "record_ns_per_instr", Unit: "ns/instr", Better: "lower", Bound: 0.25},
	{Name: "record_alloc_bytes_per_kinstr", Unit: "B/kinstr", Better: "lower", Bound: 0.02},
	{Name: "log_bytes_per_kinstr", Unit: "B/kinstr", Better: "lower", Bound: 0.001, Exact: true},
	{Name: "replay_window_kinstr", Unit: "kinstr", Better: "higher", Bound: 0.001, Exact: true},
	{Name: "replay_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "parreplay_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "debug_open_to_crash_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "reverse_step_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "reverse_step_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "fleet_replay_kinstr_per_upload", Unit: "kinstr", Better: "lower", Bound: 0.12},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<what>. A layer a workload bypasses reads 0 there.
var perLayer = []metricDef{
	{Name: "kernel.unrecorded_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "cpu.hook_dispatch_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "cpu.loggable_ops_per_kinstr", Unit: "count", Better: "lower"},
	{Name: "cache.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "cache.l1_miss_share", Unit: "share", Better: "lower"},
	{Name: "cache.first_load_share", Unit: "share", Better: "lower"},
	{Name: "dict.ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "dict.hit_share", Unit: "share", Better: "higher"},
	{Name: "fll.write_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "fll.close_us_per_interval", Unit: "us", Better: "lower"},
	{Name: "fll.bits_per_logged_value", Unit: "bit", Better: "lower"},
	{Name: "fll.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "coherence.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "mrl.bytes_per_kinstr", Unit: "B/kinstr", Better: "lower"},
	{Name: "mrl.entries_per_kinstr", Unit: "count", Better: "lower"},
	{Name: "logstore.append_us_per_interval", Unit: "us", Better: "lower"},
	{Name: "logstore.append_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "logstore.evictions_per_interval", Unit: "count", Better: "lower"},
	{Name: "logstore.retained_bytes", Unit: "B", Better: "higher"},
	{Name: "logstore.disk_segments_live", Unit: "count", Better: "lower"},
	{Name: "logstore.load_us_per_interval", Unit: "us", Better: "lower"},
	{Name: "core.record_slowdown_x", Unit: "x", Better: "lower"},
	{Name: "core.intervals_per_minstr", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_interval", Unit: "count", Better: "lower"},
	{Name: "core.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "core.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "core.record_unattributed_share", Unit: "share", Better: "lower"},
	{Name: "core.replay_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "core.replay_alloc_bytes_per_kinstr", Unit: "B/kinstr", Better: "lower"},
	{Name: "core.snapshot_restore_us", Unit: "us", Better: "lower"},
	{Name: "report.pack_ms", Unit: "ms", Better: "lower"},
	{Name: "report.unpack_ms", Unit: "ms", Better: "lower"},
	{Name: "report.archive_bytes_per_log_byte", Unit: "x", Better: "lower"},
	{Name: "parreplay.speedup_x", Unit: "x", Better: "higher"},
	{Name: "parreplay.unit_overhead_us", Unit: "us", Better: "lower"},
	{Name: "parreplay.alloc_bytes_per_kinstr", Unit: "B/kinstr", Better: "lower"},
	{Name: "parreplay.sequential_fallbacks", Unit: "count", Better: "lower"},
	{Name: "timetravel.continue_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "timetravel.checkpoint_overhead_x", Unit: "x", Better: "lower"},
	{Name: "timetravel.checkpoints", Unit: "count", Better: "higher"},
	{Name: "timetravel.checkpoint_mb", Unit: "MB", Better: "lower"},
	{Name: "timetravel.seek_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "timetravel.reverse_step_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "timetravel.reverse_continue_ms", Unit: "ms", Better: "lower"},
	{Name: "triage.store_put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "triage.ingest_direct_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "triage.ingest_duplicate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "triage.queue_to_verdict_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "triage.replay_busy_share", Unit: "share", Better: "lower"},
	{Name: "triage.ingest_busy_s", Unit: "s", Better: "lower"},
	{Name: "triage.verdict_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "triage.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "triage.ledger_residual_share", Unit: "share", Better: "lower"},
	{Name: "cluster.ingest_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.crash_to_verdict_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.crash_to_verdict_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "cluster.verdicts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cluster.fanout_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.forwards_per_report", Unit: "count", Better: "lower"},
	{Name: "cluster.shed_share", Unit: "share", Better: "lower"},
	{Name: "cluster.quorum_failures", Unit: "count", Better: "lower"},
	{Name: "cluster.replay_amplification_x", Unit: "x", Better: "lower"},
	{Name: "loadgen.late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
}

// reading is one reported metric value. Timings carry the summary of the
// samples the value was taken from.
type reading struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// result collects one run's metrics and correctness checks. A run reports
// either the end-to-end set (untraced) or the per-layer set (traced).
type result struct {
	defs      []metricDef
	units     map[string]string
	Metrics   map[string]reading
	Attempted int
	Failed    int
	Failures  []string // first few failed checks, for the operator
	// Notes are figures that explain a run (generator lateness, op
	// counts) without being metrics of the program.
	Notes map[string]float64
}

func newResult(defs []metricDef) *result {
	r := &result{defs: defs, units: make(map[string]string), Metrics: make(map[string]reading)}
	for _, d := range defs {
		r.units[d.Name] = d.Unit
	}
	return r
}

// unit panics on a name the run's metric set does not define: that is a
// bug in the benchmark, never a property of the measured program.
func (r *result) unit(name string) string {
	u, ok := r.units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not defined for this run")
	}
	return u
}

// set reports a count or a derived figure.
func (r *result) set(name string, v float64) {
	r.Metrics[name] = reading{Value: v, Unit: r.unit(name)}
}

// timing reports the median of samples and keeps their summary.
func (r *result) timing(name string, samples rounds) {
	s := summarize(samples)
	r.Metrics[name] = reading{Value: s.Median, Unit: r.unit(name), Samples: &s}
}

// timingAt reports the q-quantile of samples instead of their median.
func (r *result) timingAt(name string, samples rounds, q float64) {
	s := summarize(samples)
	r.Metrics[name] = reading{Value: quantile(sorted(samples.pool()), q), Unit: r.unit(name), Samples: &s}
}

func (r *result) note(name string, v float64) {
	if r.Notes == nil {
		r.Notes = make(map[string]float64)
	}
	r.Notes[name] = v
}

// check counts one verified operation; a false ok is a failed operation.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// missing lists the defined metrics the run did not report.
func (r *result) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
