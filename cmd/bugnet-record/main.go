// Command bugnet-record runs a guest program under the BugNet recorder
// and saves the crash report (First-Load Logs and Memory Race Logs) as a
// single .bnar archive, like a production BugNet dumping its logs when
// the OS detects a fault (paper §4.8).
//
// Usage:
//
//	bugnet-record -bug gzip -out report.bnar            # a Table 1 analogue
//	bugnet-record -spec mcf -steps 2000000 -out r.bnar  # a SPEC analogue window
//	bugnet-record -asm prog.s -out report.bnar          # your own program
//	bugnet-record -bug gzip -submit http://triage.example:8080
//	bugnet-record -spec mcf -log-dir spill/ -log-budget 1073741824
//
// With -submit the archive is additionally uploaded to a bugnet-serve
// endpoint, completing the paper's customer-site-to-developer pipeline
// (§4.8); the server's report id is the archive file's SHA-256.
//
// With -log-dir the log regions spill to append-only segment files under
// the directory instead of living in process memory, so the replay window
// is bounded by -log-budget (the bytes the "OS" dedicates to the region,
// paper §4.7) rather than by RAM — the continuous-recording configuration
// for multi-gigabyte windows.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bugnet"
	"bugnet/internal/cli"
	"bugnet/internal/httpjson"
	"bugnet/internal/logstore"
	"bugnet/internal/obs"
	"bugnet/internal/retry"
)

// logger carries all diagnostics; results stay on stdout.
var logger *slog.Logger

// metricsDump, when set, is where main writes the process metrics
// snapshot after run returns ("-" = stdout).
var metricsDump string

// main wraps run so deferred cleanups (spill store closes) finish before
// the metrics snapshot is written and the process exits — os.Exit inside
// run would skip both.
func main() {
	code := run()
	if metricsDump != "" {
		if err := obs.WriteSnapshotFile(metricsDump); err != nil {
			logger.Error("writing metrics dump", "path", metricsDump, "err", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

func run() int {
	bug := flag.String("bug", "", "record a Table 1 bug analogue (bc, gzip, ncompress, ...)")
	spec := flag.String("spec", "", "record a SPEC analogue (art, bzip2, crafty, gzip, mcf, parser, vpr)")
	asmFile := flag.String("asm", "", "record an assembly source file")
	out := flag.String("out", "bugnet-report.bnar", "output file for the crash report archive")
	submit := flag.String("submit", "", "bugnet-serve base URL to upload the report archive to")
	interval := flag.Uint64("interval", 100_000, "checkpoint interval length in instructions")
	steps := flag.Uint64("steps", 50_000_000, "machine step budget")
	scale := flag.Int("scale", 100, "bug-window scale for -bug workloads")
	logDir := flag.String("log-dir", "", "spill the FLL/MRL log regions to segment files under this directory")
	logBudget := flag.Int64("log-budget", 0, "byte budget per log region (0 = unlimited); with -log-dir this bounds disk, not RAM")
	submitRetries := flag.Int("submit-retries", 4, "retries after a failed -submit upload (429/5xx/transport errors; 0 = one attempt only)")
	submitTimeout := flag.Duration("submit-timeout", 60*time.Second, "per-attempt timeout for the -submit upload")
	logFormat := flag.String("log-format", "text", "diagnostic log format: text or json")
	dump := flag.String("metrics-dump", "", "write a JSON metrics snapshot to this path at exit (\"-\" = stdout)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address while recording (e.g. localhost:6060; empty = off)")
	flag.Parse()
	var err error
	if logger, err = obs.NewLogger(os.Stderr, *logFormat); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	metricsDump = *dump
	cli.StartPprof(*pprofAddr)

	img, mcfg, err := cli.Pick(cli.Selection{Bug: *bug, Spec: *spec, Asm: *asmFile, Scale: *scale})
	if err != nil {
		logger.Error("selecting workload", "err", err)
		return 2
	}
	mcfg.MaxSteps = *steps

	rcfg := bugnet.Config{IntervalLength: *interval, FLLBudget: *logBudget, MRLBudget: *logBudget}
	if *logDir != "" {
		var err error
		if rcfg.FLLStore, err = openSpill(filepath.Join(*logDir, "fll"), *logBudget); err != nil {
			logger.Error("opening FLL spill", "err", err)
			return 1
		}
		defer rcfg.FLLStore.Close()
		if rcfg.MRLStore, err = openSpill(filepath.Join(*logDir, "mrl"), *logBudget); err != nil {
			logger.Error("opening MRL spill", "err", err)
			return 1
		}
		defer rcfg.MRLStore.Close()
	}

	res, rep, rec := bugnet.Record(img, mcfg, rcfg)
	logged, total := rec.LoggedOps()
	fmt.Printf("executed %d instructions in %d steps; logged %d of %d loggable ops (%.1f%%)\n",
		res.Instructions, res.Steps, logged, total, 100*float64(logged)/float64(max64(total, 1)))
	fst, mst := rec.FLLStore().Stats(), rec.MRLStore().Stats()
	fmt.Printf("FLL region: %d retained bytes in %d logs (%d evicted); MRL region: %d retained bytes in %d logs\n",
		fst.RetainedBytes, fst.RetainedCount, fst.EvictedCount, mst.RetainedBytes, mst.RetainedCount)
	if *logDir != "" {
		fmt.Printf("log regions spilled to %s (%d encoded bytes on disk)\n",
			*logDir, fst.RetainedEncodedBytes+mst.RetainedEncodedBytes)
	}
	if res.Crash != nil {
		fmt.Printf("CRASH: thread %d: %v\n", res.Crash.TID, res.Crash.Fault)
		fmt.Printf("faulting instruction: %s\n", bugnet.Disassemble(img, res.Crash.Fault.PC))
	} else {
		fmt.Printf("clean stop (exit code %d)\n", res.ExitCode)
	}
	if err := rec.Err(); err != nil {
		logger.Error("recording degraded", "err", err)
		return 1
	}
	if err := save(*out, rep); err != nil {
		logger.Error("saving report", "out", *out, "err", err)
		return 1
	}
	fmt.Printf("report saved to %s\n", *out)

	if *submit != "" {
		if err := upload(*submit, *out, *submitRetries, *submitTimeout); err != nil {
			logger.Error("submitting report", "url", *submit, "err", err)
			return 1
		}
	}
	return 0
}

// openSpill opens one disk-backed log region for a fresh recording. A
// spill directory still holding a previous run's window is refused: a new
// process restarts CIDs and timestamps, so mixing runs would corrupt the
// report (duplicate interval ids, broken FLL/MRL pairing). The refusal
// probes the directory *before* any store is built under the new budget —
// logstore.Open re-trims recovered contents to its budget, which would
// delete the old run's segments — so the old window really does stay
// untouched for bugnet-inspect; record into an empty directory.
func openSpill(dir string, budget int64) (*logstore.Store, error) {
	probe, err := logstore.OpenDisk(dir, logstore.DiskOptions{})
	if err != nil {
		return nil, err
	}
	recovered, err := probe.Recover()
	probe.Close()
	if err != nil {
		return nil, err
	}
	if len(recovered) > 0 {
		return nil, fmt.Errorf("%s already holds a recorded window (%d logs); point -log-dir at an empty directory", dir, len(recovered))
	}
	b, err := logstore.OpenDisk(dir, logstore.DiskOptions{})
	if err != nil {
		return nil, err
	}
	return logstore.Open(budget, b)
}

// save packs the report into path. Sections stream from the log stores
// into the file, so a disk-spilled window packs in O(section) memory. The
// archive is written beside path and renamed into place, so a failed
// write never leaves a truncated archive under the final name.
func save(path string, rep *bugnet.CrashReport) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = bugnet.PackReportTo(f, rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// upload sends the archive file at path to a bugnet-serve endpoint. Each
// attempt reopens the file and declares its length, so the server admits
// the upload against its real size.
//
// Sheds (429) and server-side failures (5xx, transport errors) retry with
// jittered backoff, honoring the server's Retry-After hint; a 4xx means
// the report itself was refused and retrying cannot help.
func upload(base, path string, retries int, timeout time.Duration) error {
	url := strings.TrimRight(base, "/") + "/api/v1/reports"
	client := &http.Client{}
	policy := retry.Policy{
		MaxAttempts:    retries + 1,
		BaseDelay:      500 * time.Millisecond,
		MaxDelay:       15 * time.Second,
		AttemptTimeout: timeout,
		Sleep: func(ctx context.Context, d time.Duration) error {
			logger.Warn("upload failed, backing off", "url", url, "wait", d)
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
	var data []byte
	err := policy.Do(context.Background(), func(ctx context.Context) error {
		f, err := os.Open(path)
		if err != nil {
			return retry.Permanent(err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return retry.Permanent(err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, f)
		if err != nil {
			return retry.Permanent(err)
		}
		req.ContentLength = fi.Size()
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return fmt.Errorf("%s: reading response (%s): %w", url, resp.Status, err)
		}
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			// The standard error envelope.
			msg := strings.TrimSpace(string(body))
			if eb, ok := httpjson.DecodeError(body); ok {
				msg = eb.Message
				if eb.Code != "" {
					msg = eb.Code + ": " + msg
				}
			}
			ferr := fmt.Errorf("%s: %s: %s", url, resp.Status, msg)
			switch {
			case resp.StatusCode == http.StatusTooManyRequests ||
				resp.StatusCode == http.StatusServiceUnavailable:
				// Shed by admission control or a degraded node: retryable,
				// waiting at least the server's hinted drain time.
				if d, ok := retry.ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
					return retry.After(ferr, d)
				}
				return ferr
			case resp.StatusCode >= 400 && resp.StatusCode < 500:
				return retry.Permanent(ferr)
			}
			return ferr
		}
		data = body
		return nil
	})
	if err != nil {
		return err
	}
	var res struct {
		ID        string `json:"id"`
		BucketKey string `json:"bucket"`
		Duplicate bool   `json:"duplicate"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("%s: bad response: %w", url, err)
	}
	state := "new"
	if res.Duplicate {
		state = "duplicate"
	}
	fmt.Printf("report submitted (%s): id %s, bucket %s\n", state, res.ID, res.BucketKey)
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
