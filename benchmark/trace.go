package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark's own code around that call. Spans of one operation share
// OpID; Parent is the span that caused this one (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent, op int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: op, Layer: layer, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// begin opens a span whose end is not yet known, so children can name it
// as their parent; finish closes it.
func (t *tracer) begin(parent, op int, layer, name string, start time.Time) int {
	return t.add(parent, op, layer, name, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(parent, op int, layer, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(parent, op, layer, name, start, end)
	return end.Sub(start)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that its direct children cover. Children may
// overlap each other and may stick out of the parent; only the union of
// their intervals clipped to the parent is subtracted.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].StartNS < ks[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range ks {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerSelfMS sums self time per layer, in milliseconds.
func layerSelfMS(spans []span) map[string]float64 {
	out := make(map[string]float64)
	self := selfTimes(spans)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e6
	}
	return out
}

// twins compares operations that ran with the tracer against the same kind
// of operation without it: within one traced run, every second operation
// of a kind carries no tracer at all.
type twins map[string]*[2]opTotal // per kind: traced, untraced

type opTotal struct {
	ns float64
	n  int
}

// add counts one operation of a kind that took ns, traced or not.
func (t twins) add(kind string, traced bool, ns float64) {
	if t[kind] == nil {
		t[kind] = new([2]opTotal)
	}
	side := &t[kind][btoi(!traced)]
	side.ns, side.n = side.ns+ns, side.n+1
}

// overhead is the time tracing added, as a share of the untraced time: per
// kind, the mean traced operation against the mean untraced one, weighted
// by how much time the kind takes. Kinds seen on one side only count for
// nothing.
func (t twins) overhead() float64 {
	var extra, base float64
	for _, k := range t {
		if k[0].n == 0 || k[1].n == 0 {
			continue
		}
		traced, plain := k[0].ns/float64(k[0].n), k[1].ns/float64(k[1].n)
		ops := float64(k[0].n + k[1].n)
		extra, base = extra+(traced-plain)*ops, base+plain*ops
	}
	return ratio(extra, base)
}
