package main

import "testing"

// Each way of asking the host meter runs the operation exactly once and
// returns a usable divisor, also for an operation that is over at once.
func TestHostMeterRunsTheOpOnce(t *testing.T) {
	h := newHostMeter()
	for name, ask := range map[string]func(func()) float64{
		"around": h.around, "aroundAll": h.aroundAll,
	} {
		ran := 0
		if c := ask(func() { ran++ }); ran != 1 || !(c > 0) {
			t.Errorf("%s ran the op %d times and saw contention %g", name, ran, c)
		}
	}
	if len(h.single.saw) != 1 || len(h.parallel.saw) != 1 {
		t.Errorf("kept %d and %d factors, want one of each kind", len(h.single.saw), len(h.parallel.saw))
	}
	res := newResult(nil)
	h.notes(res)
	for _, n := range []string{"host_contention_single_x", "host_contention_parallel_x"} {
		if !(res.Notes[n] > 0) {
			t.Errorf("note %s = %g, want the median contention", n, res.Notes[n])
		}
	}
}
