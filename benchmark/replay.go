package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/parreplay"
	"bugnet/internal/report"
	"bugnet/internal/timetravel"
)

// replayOut is the replay/debug stage's samples, each divided by the
// contention the host meter saw beside it.
type replayOut struct {
	window  uint64 // instructions in the archive, all threads
	seqMS   rounds
	parMS   rounds
	openMS  rounds
	seekMS  rounds
	rstepMS rounds
	traced  twins // traced against untraced operations of the same kind
}

// timeBox runs op until d has passed and at least atLeast times.
func timeBox(d time.Duration, atLeast int, op func(i int) error) error {
	deadline := time.Now().Add(d)
	for i := 0; i < atLeast || time.Now().Before(deadline); i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// seqReplay is what `bugnet-replay` does with an uploaded archive: unpack
// it and replay every thread's retained logs in order.
func seqReplay(img *asm.Image, archive []byte, tr *tracer, parent, op int) (map[int]*core.ReplayResult, error) {
	var rep *core.CrashReport
	var err error
	tr.timed(parent, op, "report", "Unpack", func() { rep, err = report.Unpack(archive) })
	if err != nil {
		return nil, err
	}
	out := make(map[int]*core.ReplayResult)
	for _, tid := range threadIDs(rep) {
		tr.timed(parent, op, "core", "Replayer.Run", func() { out[tid], err = replayerFor(img, rep, tid).Run() })
		if err != nil {
			return nil, fmt.Errorf("thread %d: %w", tid, err)
		}
	}
	return out, nil
}

// parReplay is the same window through the interval fan-out executor.
func parReplay(img *asm.Image, archive []byte, workers int, tr *tracer, parent, op int) (map[int]*core.ReplayResult, error) {
	var rep *core.CrashReport
	var err error
	tr.timed(parent, op, "report", "Unpack", func() { rep, err = report.Unpack(archive) })
	if err != nil {
		return nil, err
	}
	o := parreplay.Options{Workers: workers, LogCodeLoads: rep.LogCodeLoads, DictOptions: rep.DictOptions}
	out := make(map[int]*core.ReplayResult)
	for _, tid := range threadIDs(rep) {
		tr.timed(parent, op, "parreplay", "ReplayThread", func() { out[tid], err = parreplay.ReplayThread(img, rep.FLLs[tid], o) })
		if err != nil {
			return nil, fmt.Errorf("thread %d: %w", tid, err)
		}
	}
	return out, nil
}

// openToCrash is a developer opening the archive in the time-travel
// debugger and pressing continue: they are looking at the crash (or the
// end of the window) when it returns.
func openToCrash(img *asm.Image, archive []byte, tr *tracer, parent, op int) (*timetravel.Engine, error) {
	var rep *core.CrashReport
	var e *timetravel.Engine
	var err error
	tr.timed(parent, op, "report", "Unpack", func() { rep, err = report.Unpack(archive) })
	if err != nil {
		return nil, err
	}
	tr.timed(parent, op, "timetravel", "NewEngine", func() { e, _, err = timetravel.NewEngineForThread(img, rep, -1, timetravel.Config{}) })
	if err != nil {
		return nil, err
	}
	var why timetravel.StopReason
	tr.timed(parent, op, "timetravel", "Continue", func() { why, err = e.Continue() })
	if err == nil && why != timetravel.StopEnd {
		err = fmt.Errorf("continue stopped at %v, not the end of the window", why)
	}
	return e, err
}

// seekPositions yields window positions in [1, window] that cover it
// evenly after any number of draws (a golden-ratio sequence), starting
// from a seeded offset.
func seekPositions(window uint64, seed int64) func() uint64 {
	const phi = 0.6180339887498949
	x := float64(uint64(seed)*2654435761%1000003) / 1000003
	return func() uint64 {
		x = math.Mod(x+phi, 1)
		return 1 + uint64(x*float64(window-1))
	}
}

// replaying is the replay/debug stage: the developer's waits on one
// packed window.
type replaying struct {
	replayOut
	img     *asm.Image
	archive []byte
	host    *hostMeter
	tr      *tracer
	ops     int // ops so far, for span op ids and for alternating the tracer
	engine  *timetravel.Engine
	nextPos func() uint64
	seq     map[int]*core.ReplayResult // last results, for the equivalence checks
	par     map[int]*core.ReplayResult
}

// startReplaying runs each kind of op once, unmeasured: the first call
// pays for heap growth and cold caches that a developer's second replay of
// a window does not.
func startReplaying(img *asm.Image, archive []byte, seed int64, host *hostMeter, tr *tracer) (*replaying, error) {
	r := &replaying{img: img, archive: archive, host: host, tr: tr}
	r.traced = make(twins)
	var err error
	if r.seq, err = seqReplay(img, archive, nil, 0, 0); err != nil {
		return nil, fmt.Errorf("sequential replay: %w", err)
	}
	for _, th := range r.seq {
		r.window += th.Instructions
	}
	if r.par, err = parReplay(img, archive, runtime.GOMAXPROCS(0), nil, 0, 0); err != nil {
		return nil, fmt.Errorf("parallel replay: %w", err)
	}
	if r.engine, err = openToCrash(img, archive, nil, 0, 0); err != nil {
		return nil, fmt.Errorf("open to crash: %w", err)
	}
	r.nextPos = seekPositions(r.engine.Window(), seed)
	return r, nil
}

// spanned runs op with the tracer on every second call and none on the
// others, so a traced run holds its own untraced baseline, and returns
// the op's milliseconds. A traced op is one span of the benchmark's own,
// the parent of the layer calls it makes.
func (r *replaying) spanned(name string, op func(t *tracer, parent, id int) error) (float64, error) {
	r.ops++
	var t *tracer
	if r.ops%2 == 1 {
		t = r.tr
	}
	start := time.Now()
	parent := t.begin(0, r.ops, "benchmark", name, start)
	err := op(t, parent, r.ops)
	end := time.Now()
	t.finish(parent, end)
	d := end.Sub(start)
	if r.tr != nil {
		r.traced.add(name, t != nil, float64(d.Nanoseconds()))
	}
	return ms(d), err
}

// timed is spanned between two probes of the host meter — on every
// processor when the op uses them all — and returns the op's milliseconds
// over the contention they saw.
func (r *replaying) timed(name string, everyProcessor bool, op func(t *tracer, parent, id int) error) (el float64, err error) {
	around := r.host.around
	if everyProcessor {
		around = r.host.aroundAll
	}
	c := around(func() { el, err = r.spanned(name, op) })
	return el / c, err
}

// roundSingle spends d on the three single-threaded kinds of op, each at
// least once.
func (r *replaying) roundSingle(d time.Duration) error {
	for _, s := range []*rounds{&r.seqMS, &r.openMS, &r.seekMS, &r.rstepMS} {
		s.next()
	}
	single := 1 - parShare
	share := func(s float64) time.Duration { return time.Duration(float64(d) * s / single) }
	err := timeBox(share(seqShare), 1, func(int) error {
		el, err := r.timed("sequential replay", false, func(t *tracer, parent, id int) (err error) {
			r.seq, err = seqReplay(r.img, r.archive, t, parent, id)
			return err
		})
		r.seqMS.add(el)
		return err
	})
	if err != nil {
		return fmt.Errorf("sequential replay: %w", err)
	}
	err = timeBox(share(openShare), 1, func(int) error {
		r.engine = nil // one engine's checkpoints alive at a time, as in a debug session
		el, err := r.timed("open to crash", false, func(t *tracer, parent, id int) (err error) {
			r.engine, err = openToCrash(r.img, r.archive, t, parent, id)
			return err
		})
		r.openMS.add(el)
		return err
	})
	if err != nil {
		return fmt.Errorf("open to crash: %w", err)
	}

	// Reverse steps on the engine the last open left at the window's end,
	// its checkpoints already laid (and, on a large window, thinned). A
	// step takes less than a probe does, so the host meter brackets a
	// batch of them.
	e := r.engine
	return timeBox(share(single-seqShare-openShare), minReverseBatches, func(int) error {
		var seek, step [reverseBatch]time.Duration
		var err error
		c := r.host.around(func() {
			for k := 0; k < reverseBatch && err == nil; k++ {
				pos := r.nextPos()
				_, err = r.spanned("seek and reverse step", func(t *tracer, parent, id int) (err error) {
					seek[k] = t.timed(parent, id, "timetravel", "SeekTo", func() { err = e.SeekTo(pos) })
					if err != nil {
						return fmt.Errorf("seek to %d: %w", pos, err)
					}
					step[k] = t.timed(parent, id, "timetravel", "ReverseStep", func() { _, err = e.ReverseStep(1) })
					if err != nil || e.Pos() != pos-1 {
						return fmt.Errorf("reverse step from %d landed on %d: %v", pos, e.Pos(), err)
					}
					return nil
				})
			}
		})
		if err != nil {
			return err
		}
		for k := range seek {
			r.seekMS.add(ms(seek[k]) / c)
			r.rstepMS.add(ms(step[k]) / c)
		}
		return nil
	})
}

// roundParallel spends d on parallel replays, at least one.
func (r *replaying) roundParallel(d time.Duration) error {
	r.parMS.next()
	err := timeBox(d, 1, func(int) error {
		el, err := r.timed("parallel replay", true, func(t *tracer, parent, id int) (err error) {
			r.par, err = parReplay(r.img, r.archive, runtime.GOMAXPROCS(0), t, parent, id)
			return err
		})
		r.parMS.add(el)
		return err
	})
	if err != nil {
		return fmt.Errorf("parallel replay: %w", err)
	}
	return nil
}

// verify checks, untimed, that the three ways of reaching the end of the
// window agree.
func (r *replaying) verify(res *result) {
	for tid, s := range r.seq {
		p := r.par[tid]
		res.check(p != nil && p.Instructions == s.Instructions && p.Final == s.Final && sameFault(p, s),
			"thread %d: parallel replay result differs from sequential", tid)
	}
	e := r.engine
	err := e.SeekTo(e.Window())
	debugged := 0
	if rep, err := report.Unpack(r.archive); err == nil && rep.Crash != nil {
		debugged = rep.Crash.TID
	}
	s := r.seq[debugged]
	res.check(err == nil && s != nil && e.Registers() == s.Final,
		"thread %d: engine registers after seeking to the window end differ from the replay's final registers (err %v)", debugged, err)
}

func sameFault(a, b *core.ReplayResult) bool {
	if a.Fault == nil || b.Fault == nil {
		return a.Fault == b.Fault
	}
	return *a.Fault == *b.Fault
}

// minstrPerS turns per-op milliseconds over the window into M guest
// instructions per second.
func (o *replayOut) minstrPerS(opMS rounds) rounds {
	return opMS.apply(func(m float64) float64 { return float64(o.window) / 1e3 / m })
}
