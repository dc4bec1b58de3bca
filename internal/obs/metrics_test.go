package obs

import (
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("c_total", "c"); again != c {
		t.Fatal("re-registration did not return the same counter handle")
	}
	g := r.Gauge("g", "g")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestVecHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "requests", "code")
	a, b := v.With("200"), v.With("500")
	if a == b {
		t.Fatal("distinct label values share a counter")
	}
	a.Inc()
	if v.With("200") != a || v.With("200").Value() != 1 {
		t.Fatal("With is not stable per label value")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Microsecond) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond) // third bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 <= 0 || p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want within the first bucket", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 10*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want within the third bucket", p99)
	}
	// Overflow observations report the largest finite bound.
	h2 := newHistogram([]time.Duration{time.Millisecond})
	h2.Observe(time.Hour)
	if got := h2.Quantile(0.5); got != time.Millisecond {
		t.Fatalf("overflow quantile = %v, want 1ms", got)
	}
	if h2.Sum() != time.Hour {
		t.Fatalf("sum = %v", h2.Sum())
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := newHistogram(nil)
	h.Observe(-time.Second)
	if h.Sum() != 0 || h.Count() != 1 {
		t.Fatalf("negative observation: sum %v count %d", h.Sum(), h.Count())
	}
}

// TestHotPathIncrementsAreAllocFree is the recorder-wire-path guard: the
// metric operations instrumentation puts on hot loops — counter
// increments, gauge moves, histogram observations — must allocate zero
// bytes per call, or the benchmark's record_alloc_bytes_per_kinstr would
// charge instrumentation against the zero-alloc steady-state goal.
func TestHotPathIncrementsAreAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	g := r.Gauge("hot_gauge", "")
	h := r.Histogram("hot_seconds", "")
	v := r.CounterVec("hot_vec_total", "", "k").With("v") // preallocated handle
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Add(1)
		g.Dec()
		v.Inc()
		h.Observe(3 * time.Millisecond)
	}); avg != 0 {
		t.Fatalf("hot-path metric ops allocate %.1f times per run, want 0", avg)
	}
}
