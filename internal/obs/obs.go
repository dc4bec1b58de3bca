// Package obs is the observability core shared by every BugNet layer:
// atomic counters and gauges, fixed-bucket latency histograms with
// p50/p99 summaries, a labeled-series registry with Prometheus
// text-format exposition (mounted at GET /metrics on bugnet-serve), a
// JSON snapshot for the CLIs' -metrics-dump flag, and the slog-based
// structured logger the daemons and CLIs share.
//
// The package is dependency-free (standard library only) so any layer —
// including the recorder wire path the benchmark times per instruction — can
// import it. Every metric handle is preallocated at registration:
// incrementing a Counter or observing a Histogram is a handful of atomic
// operations and provably allocation-free (see the AllocsPerRun guard in
// metrics_test.go), so instrumentation on the record/replay hot loop
// costs nanoseconds, not allocations.
//
// Naming follows the Prometheus conventions: every series is prefixed
// bugnet_<subsystem>_, counters end in _total, levels are bare gauges,
// and latency histograms end in _seconds (observed as time.Duration,
// exposed in seconds). Label cardinality is bounded by construction —
// label values come from fixed in-code sets (verdict states, command
// verbs, packet kinds, log regions), never from request data.
package obs

// Default is the process-wide registry. Instrumented packages register
// their series against it at package init, so a binary's /metrics (or
// -metrics-dump) surface is exactly the union of the instrumented
// packages it links. Tests that need isolation build their own Registry.
var Default = NewRegistry()
