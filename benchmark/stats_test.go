package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are what Python's statistics.quantiles(v, n=4) and
// statistics.median print: the driver computes spreads with those.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 4, 4, 4}, 4, 4, 4},
		{[]float64{3.1, 2.7, 9.4, 5.5, 6.0, 1.2, 8.8}, 2.7, 5.5, 8.8},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		q1, med, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
		if len(c.in) > 0 && !near(median(c.in), c.med) {
			t.Errorf("median(%v) = %g, want %g", c.in, median(c.in), c.med)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{9, 11}); !near(got, 0.2) {
		t.Errorf("spread of two values = %g, want their range over their median, 0.2", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread with a zero median = %g, want 0", got)
	}
}

// A tail may be claimed only where at least ten samples lie beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75}, {100, 0.90},
		{199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i)
	}
	s := summarize(rounds{v})
	if s.N != 200 || s.TailP != 0.95 || !near(s.Tail, 0.95*199) {
		t.Errorf("summarize(0..199) = %+v, want the 95th percentile at %g", s, 0.95*199)
	}
	if s := summarize(rounds{v[:5]}); s.TailP != 0 || s.Tail != 0 {
		t.Errorf("five samples support no tail, got %+v", s)
	}
}

func TestRounds(t *testing.T) {
	var r rounds
	r.add(1) // opens the first round itself
	r.add(2)
	r.next()
	r.next()
	r.add(10)
	if len(r) != 3 || len(r[0]) != 2 || len(r[1]) != 0 || r[2][0] != 10 {
		t.Errorf("rounds = %v, want [[1 2] [] [10]]", r)
	}
	if got := r.pool(); len(got) != 3 || got[2] != 10 {
		t.Errorf("pool = %v, want the three samples in the order taken", got)
	}
	if got := r.apply(func(v float64) float64 { return 2 * v }); len(got) != 3 || got[0][1] != 4 || got[2][0] != 20 {
		t.Errorf("apply(double) = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "a", StartNS: 0, EndNS: 100},
		// Two children that overlap each other: their union [10,60) counts once.
		{ID: 2, Parent: 1, Layer: "b", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Layer: "b", StartNS: 30, EndNS: 60},
		// A child that sticks out of its parent is clipped to it.
		{ID: 4, Parent: 1, Layer: "c", StartNS: 90, EndNS: 130},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 2, Layer: "c", StartNS: 15, EndNS: 25},
		// A span with no parent and no children keeps all its time.
		{ID: 6, Layer: "a", StartNS: 200, EndNS: 230},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 40, 5: 10, 6: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byLayer := layerSelfMS(spans)
	if !near(byLayer["a"], 70e-6) || !near(byLayer["b"], 50e-6) || !near(byLayer["c"], 50e-6) {
		t.Errorf("layer self ms = %v, want a=70ns b=50ns c=50ns", byLayer)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	if d := tr.timed(0, 1, "x", "y", func() { ran = true }); !ran || d < 0 {
		t.Errorf("a nil tracer must still run the call")
	}
	if got := tr.snapshot(); got != nil {
		t.Errorf("a nil tracer has no spans, got %v", got)
	}
}

// Tracing overhead compares means per kind of operation, so a kind that ran
// once more with the tracer than without does not read as overhead.
func TestTwinsOverhead(t *testing.T) {
	tw := make(twins)
	for i := 0; i < 3; i++ {
		tw.add("long", true, 100)
	}
	tw.add("long", false, 100)
	tw.add("long", false, 100)
	if got := tw.overhead(); !near(got, 0) {
		t.Errorf("equal means with unequal counts: overhead %g, want 0", got)
	}
	tw.add("short", true, 12)
	tw.add("short", false, 10)
	// long: no extra over 5 ops of 100; short: 2 extra on each of 2 ops of 10.
	if got := tw.overhead(); !near(got, 4.0/520) {
		t.Errorf("overhead %g, want 4/520", got)
	}
	tw.add("only traced", true, 1000)
	if got := tw.overhead(); !near(got, 4.0/520) {
		t.Errorf("a kind without an untraced twin moved the overhead to %g", got)
	}
}
