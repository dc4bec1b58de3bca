package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is 0 for no samples: a layer a workload bypasses reads 0.
func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method), so
// a spread computed here matches one computed from the printed values.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median: the
// steadiness figure the regression bounds are judged against. Fewer than
// four values have no quartiles to speak of (the exclusive method would
// place them outside the values): their whole range stands in.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if n := len(v); n > 0 && n < 4 {
		s := sorted(v)
		q1, q3 = s[0], s[n-1]
	}
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// tailLadder is the set of percentiles a timing's tail may be reported
// at, each with the least sample count that leaves ten samples beyond it.
var tailLadder = []struct {
	p    float64
	minN int
}{{0.50, 20}, {0.75, 40}, {0.90, 100}, {0.95, 200}, {0.99, 1000}, {0.999, 10000}}

// tailPercentile returns the highest ladder percentile that still has at
// least ten of n samples beyond it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n >= t.minN {
			best = t.p
		}
	}
	return best
}

// summary describes one timing's samples.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// TailP is tailPercentile(N) and Tail the sample value there; both 0
	// when N is too small to support any tail claim.
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
	// Rounds is every sample, grouped by the round that took it, for
	// whoever wants another statistic than the ones above.
	Rounds rounds `json:"rounds"`
}

func summarize(r rounds) summary {
	v := r.pool()
	q1, med, q3 := quartiles(v)
	s := summary{N: len(v), Q1: q1, Median: med, Q3: q3, TailP: tailPercentile(len(v)), Rounds: r}
	if s.TailP > 0 {
		s.Tail = quantile(sorted(v), s.TailP)
	}
	return s
}

// rounds holds one metric's samples grouped by the round that took them.
type rounds [][]float64

// next starts a new round.
func (r *rounds) next() { *r = append(*r, nil) }

// add puts a sample in the current round.
func (r *rounds) add(v float64) {
	if len(*r) == 0 {
		r.next()
	}
	last := len(*r) - 1
	(*r)[last] = append((*r)[last], v)
}

// pool returns every sample in the order taken.
func (r rounds) pool() []float64 {
	var all []float64
	for _, round := range r {
		all = append(all, round...)
	}
	return all
}

// apply maps every sample through f, keeping the rounds.
func (r rounds) apply(f func(float64) float64) rounds {
	out := make(rounds, len(r))
	for i, round := range r {
		for _, v := range round {
			out[i] = append(out[i], f(v))
		}
	}
	return out
}
