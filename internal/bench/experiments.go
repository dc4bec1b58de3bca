package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"bugnet/internal/bus"
	"bugnet/internal/core"
	"bugnet/internal/dict"
	"bugnet/internal/fdr"
	"bugnet/internal/logstore"
	"bugnet/internal/workload"
)

// DefaultScale divides the paper's instruction counts for all experiments
// unless the caller overrides it. 100 keeps the full suite within tens of
// seconds while preserving relative behaviour; scale 1 reproduces the
// paper's absolute window sizes.
const DefaultScale = 100

// paper's canonical parameters (§6).
const (
	paperInterval = 10_000_000    // checkpoint interval for the main results
	paperWindow   = 100_000_000   // Figure 3 replay window
	paperBillion  = 1_000_000_000 // FDR's one-second window
)

// clampScale normalizes a scale factor.
func clampScale(scale int) uint64 {
	if scale < 1 {
		scale = 1
	}
	return uint64(scale)
}

// scaled divides a paper count by the scale with a sane floor.
func scaled(paper uint64, scale int) uint64 {
	v := paper / clampScale(scale)
	if v < 10 {
		v = 10
	}
	return v
}

// recordWindow warms the workload up without recording, then records a
// steady-state window of the given length.
func recordWindow(w *workload.Workload, window uint64, cfg core.Config) *core.Recorder {
	m := w.Machine(w.Warmup, nil)
	m.Run()
	rec := core.NewRecorder(m, cfg)
	m.SetMaxSteps(w.Warmup + window)
	m.Run()
	rec.Flush()
	return rec
}

// fllBytes sums the retained First-Load Log sizes of every thread.
func fllBytes(rec *core.Recorder) int64 {
	return rec.FLLStore().Stats().RetainedBytes
}

// windowBytes returns the FLL bytes needed to replay the last `window`
// instructions of thread 0: logs are taken newest-first until their
// lengths cover the window, matching the paper's replay-window semantics.
func windowBytes(rec *core.Recorder, tid int, window uint64) int64 {
	items := rec.FLLStore().Thread(tid)
	var bytes int64
	var covered uint64
	for i := len(items) - 1; i >= 0 && covered < window; i-- {
		bytes += items[i].Bytes
		covered += items[i].Instructions
	}
	return bytes
}

// Table1 reproduces the bug-characteristics table: for every analogue, the
// paper's window and the window measured on our rebuilt defect.
func Table1(scale int) *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Open source programs with known bugs: root-cause to crash window",
		Header: []string{"Application", "Bug location (original)", "Bug description", "Paper window", "Target (scaled)", "Measured window"},
	}
	for _, b := range workload.Bugs(scale) {
		target := scaled(b.PaperWindow, scale)
		window, crashed := b.MeasureWindow(target*4 + 40_000_000)
		measured := "did not crash"
		if crashed {
			measured = fmt.Sprintf("%d", window)
		}
		name := b.Name
		if b.Multithreaded {
			name += " (MT)"
		}
		t.AddRow(name, b.PaperLocation, b.Description,
			fmt.Sprintf("%d", b.PaperWindow), fmt.Sprintf("%d", target), measured)
	}
	t.Note("windows scaled by 1/%d; paper finds all but ghostscript under 10M instructions", scale)
	return t
}

// Figure2 reproduces the per-bug FLL sizes: the log bytes needed to replay
// each bug's window, recorded with the paper's 10M (scaled) interval.
func Figure2(scale int) *Table {
	t := &Table{
		ID:     "fig2",
		Title:  "FLL size (KB) to replay each Table 1 bug window (10M-instruction checkpoint interval)",
		Header: []string{"Application", "Measured window", "FLL KB"},
	}
	interval := scaled(paperInterval, scale)
	for _, b := range workload.Bugs(scale) {
		target := scaled(b.PaperWindow, scale)
		window, crashed := b.MeasureWindow(target*4 + 40_000_000)
		if !crashed {
			t.AddRow(b.Name, "-", "did not crash")
			continue
		}
		kcfg := b.Kernel
		kcfg.MaxSteps = target*4 + 40_000_000
		res, _, rec := core.Record(b.Image, kcfg, core.Config{IntervalLength: interval})
		if res.Crash == nil {
			t.AddRow(b.Name, "-", "did not crash under recording")
			continue
		}
		bytes := windowBytes(rec, res.Crash.TID, window)
		t.AddRow(b.Name, fmt.Sprintf("%d", window), kb(bytes))
	}
	t.Note("paper: most bugs below 100 KB, worst case ≈1 MB (ghostscript/tidy/xv class)")
	return t
}

// Figure3 reproduces the interval-length sweep: total FLL size for a fixed
// replay window, at checkpoint interval lengths from 10K to 100M (scaled).
func Figure3(scale int) *Table {
	intervals := []uint64{10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
	window := scaled(paperWindow, scale)
	t := &Table{
		ID:    "fig3",
		Title: fmt.Sprintf("Total FLL KB to replay %s instructions vs checkpoint interval length", human(window)),
	}
	t.Header = []string{"Workload"}
	for _, iv := range intervals {
		t.Header = append(t.Header, human(scaled(iv, scale)))
	}
	sums := make([]int64, len(intervals))
	for _, w := range workload.SPEC() {
		row := []string{w.Name}
		for i, iv := range intervals {
			rec := recordWindow(w, window, core.Config{IntervalLength: scaled(iv, scale)})
			b := fllBytes(rec)
			sums[i] += b
			row = append(row, kb(b))
		}
		t.AddRow(row...)
	}
	avg := []string{"Avg"}
	for _, s := range sums {
		avg = append(avg, kb(s/int64(len(workload.SPEC()))))
	}
	t.AddRow(avg...)
	t.Note("paper Figure 3: FLL size decreases monotonically with interval length")
	return t
}

// Figure4 reproduces the replay-window sweep: FLL bytes to replay 10M,
// 100M and 1B instructions at the 10M checkpoint interval (scaled). One
// recording of the longest window serves all three points, exactly like
// retaining a longer log history.
func Figure4(scale int) *Table {
	windows := []uint64{10_000_000, 100_000_000, 1_000_000_000}
	interval := scaled(paperInterval, scale)
	t := &Table{
		ID:    "fig4",
		Title: "Total FLL KB vs replay window length (10M-instruction checkpoint interval)",
	}
	t.Header = []string{"Workload"}
	for _, wd := range windows {
		t.Header = append(t.Header, human(scaled(wd, scale)))
	}
	sums := make([]int64, len(windows))
	for _, w := range workload.SPEC() {
		longest := scaled(windows[len(windows)-1], scale)
		rec := recordWindow(w, longest, core.Config{IntervalLength: interval})
		row := []string{w.Name}
		for i, wd := range windows {
			b := windowBytes(rec, 0, scaled(wd, scale))
			sums[i] += b
			row = append(row, kb(b))
		}
		t.AddRow(row...)
	}
	avg := []string{"Avg"}
	for _, s := range sums {
		avg = append(avg, kb(s/int64(len(workload.SPEC()))))
	}
	t.AddRow(avg...)
	t.Note("paper Figure 4: ≈225 KB for 10M and ≈18.86 MB for 1B instructions on average")
	return t
}

// DictSweep runs the dictionary-size sweep once and renders both Figure 5
// (hit percentage) and Figure 6 (compression ratio).
func DictSweep(scale int) (fig5, fig6 *Table) {
	sizes := []int{8, 16, 32, 64, 128, 256, 1024}
	window := scaled(paperInterval, scale) // one checkpoint interval's worth
	fig5 = &Table{
		ID:     "fig5",
		Title:  "Percent of logged load values found in the dictionary vs dictionary size",
		Header: []string{"Workload"},
	}
	fig6 = &Table{
		ID:     "fig6",
		Title:  "FLL compression ratio vs dictionary size",
		Header: []string{"Workload"},
	}
	for _, n := range sizes {
		fig5.Header = append(fig5.Header, fmt.Sprintf("%d", n))
		fig6.Header = append(fig6.Header, fmt.Sprintf("%d", n))
	}
	hitSums := make([]float64, len(sizes))
	ratioSums := make([]float64, len(sizes))
	for _, w := range workload.SPEC() {
		row5 := []string{w.Name}
		row6 := []string{w.Name}
		for i, n := range sizes {
			rec := recordWindow(w, window, core.Config{
				IntervalLength: scaled(paperInterval, scale),
				DictSize:       n,
			})
			hit := rec.DictStats(0).HitRate()
			hitSums[i] += hit
			row5 = append(row5, pct(hit))

			var unc, comp uint64
			for _, logs := range rec.Report().FLLs {
				for _, l := range logs {
					unc += l.UncompressedBits
					comp += l.EntryBits
				}
			}
			ratio := 1.0
			if comp > 0 {
				ratio = float64(unc) / float64(comp)
			}
			ratioSums[i] += ratio
			row6 = append(row6, fmt.Sprintf("%.2f", ratio))
		}
		fig5.AddRow(row5...)
		fig6.AddRow(row6...)
	}
	avg5 := []string{"Avg"}
	avg6 := []string{"Avg"}
	for i := range sizes {
		avg5 = append(avg5, pct(hitSums[i]/float64(len(workload.SPEC()))))
		avg6 = append(avg6, fmt.Sprintf("%.2f", ratioSums[i]/float64(len(workload.SPEC()))))
	}
	fig5.AddRow(avg5...)
	fig6.AddRow(avg6...)
	fig5.Note("paper Figure 5: a 64-entry dictionary captures ≈50%% of load values on average")
	fig6.Note("paper Figure 6: ≈2x compression with the 64-entry dictionary, growing with size")
	return fig5, fig6
}

// Table2 reproduces the log-size comparison between BugNet (10M and 1B
// windows) and FDR (1B window), averaged over the SPEC analogues.
func Table2(scale int) *Table {
	interval := scaled(paperInterval, scale)
	win10M := scaled(paperInterval, scale)
	win1B := scaled(paperBillion, scale)
	// FDR checkpoints every 1/3 "second" ≈ paperBillion/3 steps.
	fdrInterval := scaled(paperBillion/3, scale)

	specs := workload.SPEC()
	var bn10, bn1b int64
	var f fdr.SizeReport
	for _, w := range specs {
		rec := recordWindow(w, win1B, core.Config{IntervalLength: interval})
		bn10 += windowBytes(rec, 0, win10M)
		bn1b += windowBytes(rec, 0, win1B)

		m := w.Machine(w.Warmup, nil)
		m.Run()
		frec := fdr.NewRecorder(m, fdr.Config{IntervalSteps: fdrInterval})
		m.SetMaxSteps(w.Warmup + win1B)
		m.Run()
		frec.Finalize()
		s := frec.Sizes()
		f.CacheCheckpointBytes += s.CacheCheckpointBytes
		f.MemCheckpointBytes += s.MemCheckpointBytes
		f.InterruptBytes += s.InterruptBytes
		f.InputBytes += s.InputBytes
		f.DMABytes += s.DMABytes
		f.MRLBytes += s.MRLBytes
		f.CoreDumpBytes += s.CoreDumpBytes
	}
	n := int64(len(specs))
	bn10 /= n
	bn1b /= n

	t := &Table{
		ID:    "table2",
		Title: fmt.Sprintf("Log sizes, BugNet vs FDR (averaged over %d workloads, scale 1/%d)", n, scale),
		Header: []string{"Log", fmt.Sprintf("BugNet:%s", human(win10M)),
			fmt.Sprintf("BugNet:%s", human(win1B)), fmt.Sprintf("FDR:%s", human(win1B))},
	}
	t.AddRow("FLL (KB)", kb(bn10), kb(bn1b), "NIL")
	t.AddRow("Memory race log", "=FDR", "=FDR", kb(f.MRLBytes/n))
	t.AddRow("Cache chk-pnt log (KB)", "NIL", "NIL", kb(f.CacheCheckpointBytes/n))
	t.AddRow("Mem chk-pnt log (KB)", "NIL", "NIL", kb(f.MemCheckpointBytes/n))
	t.AddRow("Core dump (MB)", "NIL", "NIL", mb(f.CoreDumpBytes/n))
	t.AddRow("Interrupt log (KB)", "NIL", "NIL", kb(f.InterruptBytes/n))
	t.AddRow("Prg I/O log (KB)", "NIL", "NIL", kb(f.InputBytes/n))
	t.AddRow("DMA log (KB)", "NIL", "NIL", kb(f.DMABytes/n))
	t.Note("paper Table 2: FLL 225 KB (10M) / 18.86 MB (1B); FDR needs 18 MB of checkpoint logs + 2 MB races + up-to-GB core dump")
	t.Note("the SPEC analogues are single-threaded, so both systems' race logs are empty here; see the ablation-netzer experiment for MRL sizes")
	return t
}

// Table3 reproduces the hardware-complexity comparison. The FDR column is
// the configuration its paper describes; the BugNet column derives from
// this implementation's configuration constants.
func Table3() *Table {
	cbBytes := 16 << 10
	mrbBytes := 32 << 10
	t := &Table{
		ID:     "table3",
		Title:  "Hardware complexity, BugNet vs FDR",
		Header: []string{"Structure", "BugNet:10M", "BugNet:1B", "FDR:1B"},
	}
	t.AddRow("Checkpoint buffer (CB)", kb(int64(cbBytes)), kb(int64(cbBytes)), "NIL")
	t.AddRow("Memory race buffer (MRB)", kb(int64(mrbBytes)), kb(int64(mrbBytes)), kb(32<<10))
	t.AddRow("Compressor", "64-entry CAM", "64-entry CAM", "LZ HW")
	t.AddRow("Chk-pnt interval", "10M instr", "10M instr", "1/3 sec")
	t.AddRow("Cache chk-pnt buffer", "NIL", "NIL", kb(1024<<10))
	t.AddRow("Mem chk-pnt buffer", "NIL", "NIL", kb(256<<10))
	t.AddRow("Interrupt buffer", "NIL", "NIL", kb(64<<10))
	t.AddRow("Input buffer", "NIL", "NIL", kb(8<<10))
	t.AddRow("DMA buffer", "NIL", "NIL", kb(32<<10))
	t.AddRow("Total HW area (KB)", kb(int64(cbBytes+mrbBytes)), kb(int64(cbBytes+mrbBytes)), kb(1416<<10))
	t.Note("paper Table 3: BugNet 48 KB total vs FDR 1416 KB; sizes independent of the replay window because logs are memory backed")
	return t
}

// Overhead reproduces the §6.3 performance-overhead measurement with the
// bus model: recording overhead as a fraction of execution cycles.
func Overhead(scale int) *Table {
	window := scaled(paperWindow, scale)
	t := &Table{
		ID:     "overhead",
		Title:  "Recording overhead (bus model: logs drain on idle bus cycles; stall only on CB overflow)",
		Header: []string{"Workload", "Cycles", "Log KB", "Peak CB bytes", "Overhead"},
	}
	for _, w := range workload.SPEC() {
		model := bus.New(bus.Config{})
		recordWindow(w, window, core.Config{
			IntervalLength: scaled(paperInterval, scale),
			Bus:            model,
		})
		s := model.Stats()
		t.AddRow(w.Name, fmt.Sprintf("%d", s.Cycles), kb(int64(s.LogBytes)),
			fmt.Sprintf("%d", s.PeakCBBytes), fmt.Sprintf("%.4f%%", s.Overhead()*100))
	}
	t.Note("paper §6.3: overhead below 0.01%% for the SPEC programs")
	return t
}

// AblationPreserveFL measures the paper's §4.4 future-work scheme: keeping
// first-load bits across checkpoint boundaries, on an interrupt-heavy run.
func AblationPreserveFL(scale int) *Table {
	window := scaled(paperWindow, scale)
	interval := scaled(paperInterval, scale)
	timer := window / 50 // frequent context switches
	t := &Table{
		ID:     "ablation-preservefl",
		Title:  "FLL bytes with and without preserving FL bits across interval boundaries (timer-heavy run)",
		Header: []string{"Workload", "Baseline KB", "PreserveFL KB", "Reduction"},
	}
	for _, w := range workload.SPEC() {
		wt := *w
		wt.Kernel.TimerInterval = timer
		base := recordWindow(&wt, window, core.Config{IntervalLength: interval})
		pres := recordWindow(&wt, window, core.Config{IntervalLength: interval, PreserveFLBits: true})
		b0, b1 := fllBytes(base), fllBytes(pres)
		red := 0.0
		if b0 > 0 {
			red = 1 - float64(b1)/float64(b0)
		}
		t.AddRow(w.Name, kb(b0), kb(b1), pct(red))
	}
	t.Note("the paper defers this scheme to future work (§4.4); replay correctness is covered by tests")
	return t
}

// AblationNetzer measures the Memory Race Log with and without Netzer's
// transitive reduction on the multithreaded sharing workload.
func AblationNetzer(scale int) *Table {
	window := scaled(paperWindow, scale)
	interval := scaled(paperInterval, scale)
	t := &Table{
		ID:     "ablation-netzer",
		Title:  "MRL size with and without Netzer transitive reduction (mtshare, 2 cores)",
		Header: []string{"Config", "MRL entries", "MRL KB"},
	}
	w := workload.MTShare()
	for _, off := range []bool{false, true} {
		rec := recordWindow(w, window, core.Config{
			IntervalLength: interval,
			DisableNetzer:  off,
		})
		name := "with reduction"
		if off {
			name = "without reduction"
		}
		t.AddRow(name, fmt.Sprintf("%d", mrlEntries(rec)), kb(rec.MRLStore().Stats().RetainedBytes))
	}
	t.Note("FDR and BugNet both assume this optimization (paper §4.6.3)")
	return t
}

// mrlEntries counts retained MRL entries (from view metadata; the logs
// stay encoded).
func mrlEntries(rec *core.Recorder) int {
	n := 0
	for _, logs := range rec.Report().MRLs {
		for _, l := range logs {
			n += int(l.NumEntries)
		}
	}
	return n
}

// AblationDictGeometry explores dictionary design choices the paper fixes
// without evaluation: the saturating-counter width and the tie-breaking
// insertion policy (both §4.3.1). Run on the value-diverse vpr kernel,
// where replacement decisions matter most.
func AblationDictGeometry(scale int) *Table {
	window := scaled(paperInterval, scale)
	t := &Table{
		ID:     "ablation-dict",
		Title:  "Dictionary geometry: counter width and insertion policy (vpr, 64 entries)",
		Header: []string{"Geometry", "Hit rate", "FLL KB"},
	}
	w := workload.ByName("vpr")
	for _, g := range []struct {
		name string
		opts dict.Options
	}{
		{"1-bit counters", dict.Options{CounterBits: 1}},
		{"3-bit counters (paper)", dict.Options{CounterBits: 3}},
		{"6-bit counters", dict.Options{CounterBits: 6}},
		{"3-bit, insert at top", dict.Options{CounterBits: 3, InsertAtTop: true}},
	} {
		rec := recordWindow(w, window, core.Config{
			IntervalLength: scaled(paperInterval, scale),
			DictOptions:    g.opts,
		})
		t.AddRow(g.name, pct(rec.DictStats(0).HitRate()), kb(fllBytes(rec)))
	}
	t.Note("the paper fixes 3-bit counters and bottom-insertion; replay must mirror the choice")
	t.Note("finding: with near-uniform value alphabets the geometry barely matters — the paper's minimal 3-bit/bottom-insert design is not leaving compression on the table")
	return t
}

// BackendCompare measures the spill-to-disk log retention against the
// in-memory region at recording time: the replay window each backend
// sustains under its budget, and the record-path overhead the disk
// segments add. The memory row's budget stands in for a capped heap; the
// disk rows show (a) parity at an equal budget — identical retention
// decisions, so a report packed from either backend is byte-identical —
// and (b) the window a disk budget several times the heap cap retains,
// which the memory region cannot hold (paper §4.7 at disk scale).
func BackendCompare(scale int) *Table {
	window := scaled(paperWindow, scale)
	interval := scaled(paperInterval, scale) / 10
	if interval < 10 {
		interval = 10
	}
	w := workload.ByName("gzip")

	// Size the heap cap to force eviction: record once unbudgeted to learn
	// the full window's FLL bytes, then cap at a quarter of it.
	probe := recordWindow(w, window, core.Config{IntervalLength: interval})
	full := probe.FLLStore().Stats().RetainedBytes
	heapCap := full / 4
	if heapCap < 1 {
		heapCap = 1
	}

	t := &Table{
		ID:     "backend",
		Title:  fmt.Sprintf("Log retention backends at recording time (gzip, %s-instruction run, FLL budgets vs %s full window)", human(window), kb(full)+" KB"),
		Header: []string{"Backend", "Budget KB", "Replay window", "Retained KB", "Encoded KB", "Evicted logs", "Record ns/instr"},
	}

	type cfgRow struct {
		name   string
		budget int64
		disk   bool
	}
	rows := []cfgRow{
		{"memory (capped heap)", heapCap, false},
		{"disk segments", heapCap, true},
		{"disk segments", heapCap * 8, true},
	}
	var windows []uint64
	for _, r := range rows {
		// One closure per row so the deferred cleanup runs on every exit
		// path, including the error rows.
		func() {
			cfg := core.Config{IntervalLength: interval, FLLBudget: r.budget, MRLBudget: r.budget}
			if r.disk {
				dir, err := os.MkdirTemp("", "bugnet-bench-backend-*")
				if err != nil {
					t.AddRow(r.name, "-", "-", "-", "-", "-", "error: "+err.Error())
					return
				}
				defer os.RemoveAll(dir)
				fb, err := logstore.OpenDisk(filepath.Join(dir, "fll"), logstore.DiskOptions{})
				if err != nil {
					t.AddRow(r.name, "-", "-", "-", "-", "-", "error: "+err.Error())
					return
				}
				fs, err := logstore.Open(r.budget, fb)
				if err != nil {
					fb.Close()
					t.AddRow(r.name, "-", "-", "-", "-", "-", "error: "+err.Error())
					return
				}
				defer fs.Close()
				cfg.FLLStore = fs
			}
			// Time the recorded phase only — the unrecorded warmup must not
			// dilute the overhead figure this experiment exists to measure.
			m := w.Machine(w.Warmup, nil)
			m.Run()
			rec := core.NewRecorder(m, cfg)
			m.SetMaxSteps(w.Warmup + window)
			start := time.Now()
			m.Run()
			rec.Flush()
			elapsed := time.Since(start)
			st := rec.FLLStore().Stats()
			win := rec.FLLStore().ReplayWindow(0)
			windows = append(windows, win)
			nsPerInstr := float64(elapsed.Nanoseconds()) / float64(window)
			t.AddRow(r.name, kb(r.budget), human(win), kb(st.RetainedBytes),
				kb(st.RetainedEncodedBytes), fmt.Sprintf("%d", st.EvictedCount),
				fmt.Sprintf("%.1f", nsPerInstr))
		}()
	}
	if len(windows) == 3 {
		if windows[0] == windows[1] {
			t.Note("equal budgets retain identical windows (%s = %s): the backends share eviction semantics, so packed reports are byte-identical", human(windows[0]), human(windows[1]))
		} else {
			t.Note("RETENTION MISMATCH: memory retained %s but disk retained %s at the same budget — the backends' eviction semantics have diverged", human(windows[0]), human(windows[1]))
		}
		t.Note("the 8x disk budget sustains a %s-instruction window the capped heap cannot retain", human(windows[2]))
	}
	t.Note("record-path overhead is the whole simulation loop including the backend's segment writes")
	return t
}

// experiments is every experiment in paper order, each under the ids that
// name it: fig5, fig6 and their alias dict are one dictionary sweep, which
// draws both figures from one pass.
var experiments = []struct {
	ids []string
	run func(scale int) []*Table
}{
	{[]string{"table1"}, one(Table1)},
	{[]string{"fig2"}, one(Figure2)},
	{[]string{"fig3"}, one(Figure3)},
	{[]string{"fig4"}, one(Figure4)},
	{[]string{"fig5", "fig6", "dict"}, func(scale int) []*Table {
		f5, f6 := DictSweep(scale)
		return []*Table{f5, f6}
	}},
	{[]string{"table2"}, one(Table2)},
	{[]string{"table3"}, func(int) []*Table { return []*Table{Table3()} }},
	{[]string{"overhead"}, one(Overhead)},
	{[]string{"ablation-preservefl"}, one(AblationPreserveFL)},
	{[]string{"ablation-netzer"}, one(AblationNetzer)},
	{[]string{"ablation-dict"}, one(AblationDictGeometry)},
	{[]string{"backend"}, one(BackendCompare)},
}

// one adapts a one-table experiment to the table's signature.
func one(f func(scale int) *Table) func(int) []*Table {
	return func(scale int) []*Table { return []*Table{f(scale)} }
}

// All runs every experiment at the given scale in paper order.
func All(scale int) []*Table {
	var out []*Table
	for _, e := range experiments {
		out = append(out, e.run(scale)...)
	}
	return out
}

// ByID runs one experiment by its id, or every one for "all".
func ByID(id string, scale int) ([]*Table, error) {
	if id == "all" {
		return All(scale), nil
	}
	for _, e := range experiments {
		if slices.Contains(e.ids, id) {
			return e.run(scale), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

// IDs lists the available experiment identifiers.
func IDs() []string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.ids...)
	}
	return append(out, "all")
}
