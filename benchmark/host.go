package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference box is a small virtual machine whose virtual processors
// share physical cores with other tenants. When a neighbour is busy on the
// sibling hardware thread, code that keeps the core's execution units busy
// — an interpreter, a hash, a codec: everything this benchmark measures —
// runs up to 1.6 times slower for seconds to minutes on end, while a
// dependent chain of multiplies hardly notices. Measured on that box over
// 150 s of recording: the median slice time of 19 s windows ranged from
// 23.5 to 32.3 ns per instruction; divided by the time a probe loop took
// just before and after each slice, from 20.1 to 21.1.
//
// So every timing of work on one goroutine, and of parallel replay, is
// divided by the contention a probe saw next to it: the time the probe took
// over the time it takes on the idle reference box. A probe is a fixed loop
// of the benchmark's own that no change to the measured program can speed
// up or slow down. Fleet timings are reported as measured (see fleetOut).

const (
	// probeIters iterations of the probe loop take probeNominal on the
	// reference box when no neighbour contends (2.16 ns an iteration).
	probeIters   = 463_000
	probeNominal = time.Millisecond
	// probeFresh is how old the probe after one operation may be to serve
	// as the probe before the next.
	probeFresh = 2 * time.Millisecond
	// The probe after an operation runs for probeShare of the time the
	// operation took, between probeNominal and probeMax. One millisecond
	// says little about the hundred beside it: of 10 000 back-to-back 1 ms
	// probes on the loaded box, neighbours correlated at 0.2, so most of a
	// reading is the weather of that millisecond and averages out only
	// over many. With 1 ms probes a run's dozen 230 ms debugger openings
	// had 24 ms of probing between them, and that noise alone spread their
	// median by a tenth from run to run.
	probeShare = 0.1
	probeMax   = 20 * time.Millisecond
)

// probed is what one probe saw: the contention (1 on the idle reference
// box) and the time the probe would have taken there, which is its weight
// when probes are averaged.
type probed struct {
	contention float64
	nominal    time.Duration
}

// probe runs eight independent add/shift/xor chains for the iterations
// that take nominal on the idle reference box. Eight chains fill the issue
// width the way the measured program does, so they slow down with it when
// a sibling thread takes its share of the core.
func probe(nominal time.Duration) probed {
	iters := int(float64(probeIters) * float64(nominal) / float64(probeNominal))
	start := time.Now()
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < iters; i++ {
		a += a<<1 ^ 0x9e37
		b += b>>3 ^ 0x79b9
		c += c<<2 ^ 0x7f4a
		d += d>>1 ^ 0x7c15
		e += e<<3 ^ 0xf39c
		f += f>>2 ^ 0xc0b2
		g += g<<1 ^ 0x1d87
		h += h>>3 ^ 0x2c1b
	}
	took := time.Since(start)
	runtime.KeepAlive(a + b + c + d + e + f + g + h)
	return probed{float64(took) / float64(nominal), nominal}
}

// probeAll probes on every processor at once and returns the contention a
// job spread over all of them sees: the harmonic mean, because the job's
// time goes with the sum of the processors' speeds.
func probeAll(nominal time.Duration) probed {
	n := runtime.GOMAXPROCS(0)
	saw := make([]probed, n)
	var wg sync.WaitGroup
	for g := range saw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			saw[g] = probe(nominal)
		}()
	}
	wg.Wait()
	var speed float64
	for _, p := range saw {
		speed += 1 / p.contention
	}
	return probed{float64(n) / speed, nominal}
}

// bracket puts one kind of probe before and after each operation.
type bracket struct {
	probe func(nominal time.Duration) probed
	last  probed    // the latest probe
	at    time.Time // and when it ended
	saw   []float64 // every factor returned, for the run's notes
}

// around runs op between two probes and returns the contention they saw,
// each weighted by its length.
func (b *bracket) around(op func()) float64 {
	before := b.last
	if time.Since(b.at) > probeFresh {
		before = b.probe(probeNominal)
	}
	start := time.Now()
	op()
	after := time.Duration(float64(time.Since(start)) * probeShare)
	b.last = b.probe(min(max(after, probeNominal), probeMax))
	b.at = time.Now()
	w0, w1 := float64(before.nominal), float64(b.last.nominal)
	c := (before.contention*w0 + b.last.contention*w1) / (w0 + w1)
	b.saw = append(b.saw, c)
	return c
}

// hostMeter measures the contention next to each timed operation: around
// for work on the calling goroutine, aroundAll for a job that uses every
// processor. Fleet traffic has no bracket of its own: its timings are
// reported as measured.
type hostMeter struct{ single, parallel bracket }

func newHostMeter() *hostMeter {
	return &hostMeter{single: bracket{probe: probe, saw: make([]float64, 0, 4096)}, parallel: bracket{probe: probeAll}}
}

func (h *hostMeter) around(op func()) float64    { return h.single.around(op) }
func (h *hostMeter) aroundAll(op func()) float64 { return h.parallel.around(op) }

// notes reports the median contention of each kind of work.
func (h *hostMeter) notes(res *result) {
	res.note("host_contention_single_x", median(h.single.saw))
	res.note("host_contention_parallel_x", median(h.parallel.saw))
}
