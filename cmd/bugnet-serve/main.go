// Command bugnet-serve is the developer-side crash-collection daemon: the
// receiving end of BugNet's ship-the-logs-home story (paper §4.8).
// Recorders at customer sites upload packed report archives; the server
// stores them content-addressed, deduplicates identical field crashes into
// buckets, and automatically replays each new report to verify the crash
// reproduces and to extract races and a backtrace.
//
// Usage:
//
//	bugnet-serve -addr :8080 -dir /var/bugnet/reports
//	bugnet-serve -budget 268435456 -workers 8 -scale 100
//	bugnet-serve -replay-workers 8 -verdict-cache 10000
//	bugnet-serve -image prog.s -image other.s      # register extra builds
//	bugnet-serve -gdb :1234 -gdb-report <id>       # real gdb attaches here
//	bugnet-serve -log-format json                  # machine-readable logs
//
// Replay needs the exact binary a report was recorded from, so the server
// registers the built-in Table 1 and SPEC analogue images (at -scale) plus
// any -image assembly sources; uploads from unknown builds are stored and
// bucketed but their verdict is "failed: no registered binary".
//
// The server also hosts remote time-travel debug sessions over its stored
// reports (internal/timetravel): POST /debug/sessions opens a session on a
// report id, bugnet-debug -remote drives it interactively with reverse
// execution and watchpoints, and the session pins the report blob against
// store eviction while open.
//
// With -gdb the same sessions are reachable over the gdb Remote Serial
// Protocol (internal/gdbstub), so a stock gdb connects with
// "target remote" and debugs the report selected by -gdb-report with
// reverse-continue and watchpoints; scripted RSP clients (and
// bugnet-debug -rsp) pick any stored report per connection via
// vAttach;<report-id>. RSP connections share the JSON API's session cap
// and idle janitor.
//
// With -peers the server joins a static triage fleet: a consistent-hash
// ring places every report on -replication owner nodes, any node accepts
// an upload and forwards it to the owners (succeeding at -write-quorum
// acks, with anti-entropy retrying the rest), reads proxy to a replica
// owner with read-repair, and admission control (-max-inflight,
// -spool-budget) sheds overload with 429 + Retry-After. Without -peers
// the same layer runs as a single-node ring, so admission control always
// applies. See internal/cluster and DESIGN.md §12.
//
//	bugnet-serve -addr :8080 -self http://a:8080 \
//	    -peers http://a:8080,http://b:8080,http://c:8080
//
// Endpoints, under /api/v1: POST /reports, GET /reports[?cursor=&limit=],
// GET /reports/{id}[?raw=1], GET /buckets[?cursor=&limit=],
// GET /buckets/{key}, GET /cluster and the /debug/sessions API; plus
// GET /healthz (liveness), GET /readyz (readiness) and GET /metrics
// (Prometheus exposition) at the root.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/cli"
	"bugnet/internal/cluster"
	"bugnet/internal/gdbstub"
	"bugnet/internal/httpjson"
	"bugnet/internal/obs"
	"bugnet/internal/timetravel"
	"bugnet/internal/triage"
	"bugnet/internal/workload"
)

// imageList collects repeated -image flags.
type imageList []string

func (l *imageList) String() string     { return fmt.Sprint(*l) }
func (l *imageList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "bugnet-reports", "report store root directory")
	budget := flag.Int64("budget", 0, "report store byte budget (0 = unlimited)")
	workers := flag.Int("workers", 4, "replay worker pool size (concurrent reports)")
	replayWorkers := flag.Int("replay-workers", 0, "parallel interval-replay fan-out per report (0 = GOMAXPROCS, 1 = sequential)")
	verdictCache := flag.Int("verdict-cache", 0, "verdict cache bound in entries (0 = default 4096, negative = disabled)")
	scale := flag.Int("scale", 100, "bug-window scale the fleet's recorders use")
	depth := flag.Int("backtrace", 16, "backtrace depth in instructions")
	maxWindow := flag.Uint64("maxwindow", 0, "max replay window per report in instructions (0 = default 100M)")
	logDir := flag.String("log-dir", "", "disk spool for in-flight uploads (default <dir>/spool); uploads stream here while hashed, then rename into the store")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	accessLog := flag.Bool("access-log", false, "log one line per HTTP request")
	sessions := flag.Int("debug-sessions", 8, "max concurrent remote debug sessions")
	idle := flag.Duration("debug-idle", 10*time.Minute, "idle timeout for remote debug sessions")
	ckptEvery := flag.Uint64("debug-ckpt", 10_000, "debug checkpoint interval in instructions")
	ckptBudget := flag.Int64("debug-ckpt-budget", 64<<20, "per-session checkpoint byte budget")
	gdbAddr := flag.String("gdb", "", "listen address for the gdb Remote Serial Protocol (empty = off)")
	gdbReport := flag.String("gdb-report", "", "report id plain \"target remote\" gdb connections debug (RSP clients can pick any report with vAttach)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster node, including this one (empty = single-node)")
	self := flag.String("self", "", "this node's base URL exactly as listed in -peers (default http://localhost<addr>)")
	replication := flag.Int("replication", 3, "replica owners per report (clamped to cluster size)")
	writeQuorum := flag.Int("write-quorum", 0, "owner acks an ingest needs (0 = majority of replication)")
	maxInflight := flag.Int("max-inflight", 0, "admission: max concurrent uploads (0 = default 256, negative = unlimited)")
	spoolBudget := flag.Int64("spool-budget", 0, "admission: max bytes of in-flight spooled uploads (0 = default 1GiB, negative = unlimited)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
	repairInterval := flag.Duration("repair-interval", time.Second, "anti-entropy retry cadence for under-replicated reports")
	var images imageList
	flag.Var(&images, "image", "assembly source to register as a known binary (repeatable)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	obs.SetLogger(logger) // verdict lines from the replay workers and the cluster layer
	cli.StartPprof(*pprofAddr)

	reg := triage.NewImageRegistry()
	for _, b := range workload.Bugs(*scale) {
		reg.Register(b.Image)
	}
	for _, w := range workload.SPEC() {
		reg.Register(w.Image)
	}
	for _, path := range images {
		src, err := os.ReadFile(path)
		if err != nil {
			logger.Error("reading image source", "path", path, "err", err)
			os.Exit(2)
		}
		img, err := asm.Assemble(path, string(src))
		if err != nil {
			logger.Error("assembling image", "path", path, "err", err)
			os.Exit(2)
		}
		reg.Register(img)
	}

	if *replayWorkers <= 0 {
		*replayWorkers = runtime.GOMAXPROCS(0)
	}
	svc, err := triage.New(triage.Config{
		Dir:               *dir,
		Budget:            *budget,
		Workers:           *workers,
		BacktraceDepth:    *depth,
		MaxReplayWindow:   *maxWindow,
		Resolver:          reg.Resolve,
		SpoolDir:          *logDir,
		ReplayParallelism: *replayWorkers,
		VerdictCache:      *verdictCache,
	})
	if err != nil {
		logger.Error("starting triage service", "dir", *dir, "err", err)
		os.Exit(1)
	}

	// Remote time-travel debug sessions over the stored reports.
	sessionWindow := *maxWindow
	if sessionWindow == 0 {
		// Mirror the triage default so interactive sessions accept exactly
		// the reports automatic triage would replay.
		sessionWindow = triage.DefaultMaxReplayWindow
	}
	mgr := timetravel.NewManager(svc, timetravel.ManagerConfig{
		MaxSessions: *sessions,
		IdleTimeout: *idle,
		MaxWindow:   sessionWindow,
		Engine: timetravel.Config{
			CheckpointEvery:  *ckptEvery,
			CheckpointBudget: *ckptBudget,
			MaxPages:         triage.DefaultMaxReplayPages,
			ScanParallelism:  *replayWorkers,
		},
	})
	defer mgr.Close()

	// The RSP listener multiplexes gdb connections over the same manager,
	// so RSP debuggers and JSON-API sessions share one cap and one janitor.
	if *gdbAddr != "" {
		gl, err := net.Listen("tcp", *gdbAddr)
		if err != nil {
			logger.Error("gdb listener", "addr", *gdbAddr, "err", err)
			os.Exit(1)
		}
		gs := gdbstub.New(gdbstub.Config{
			Manager:       mgr,
			DefaultReport: *gdbReport,
			IdleTimeout:   *idle,
		})
		defer gs.Close()
		go func() {
			if err := gs.Serve(gl); err != nil {
				logger.Error("gdb listener stopped", "err", err)
			}
		}()
		logger.Info("gdb remote protocol listening", "addr", gl.Addr().String())
	}

	// The cluster layer wraps the whole API — single-node deployments run
	// it too (a one-member ring), so admission control and the /api/v1
	// surface are identical from laptop to fleet.
	nodeSelf := *self
	if nodeSelf == "" {
		host := *addr
		if strings.HasPrefix(host, ":") {
			host = "localhost" + host
		}
		nodeSelf = "http://" + host
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	node, err := cluster.New(cluster.Config{
		Self:              nodeSelf,
		Peers:             peerList,
		ReplicationFactor: *replication,
		WriteQuorum:       *writeQuorum,
		Service:           svc,
		Inner:             triage.NewHandlerWithDebug(svc, mgr),
		SpoolDir:          filepath.Join(*dir, "cluster"),
		MaxSpoolBytes:     *spoolBudget,
		MaxInflight:       *maxInflight,
		RetryAfter:        *retryAfter,
		RetryInterval:     *repairInterval,
		// Readiness folds in debug-session saturation alongside the
		// store/spool checks; the cluster layer appends breaker reasons.
		ExtraReady: func() []string { return triage.ReadyReasons(svc, mgr) },
	})
	if err != nil {
		logger.Error("starting cluster layer", "self", nodeSelf, "err", err)
		os.Exit(1)
	}
	defer node.Close()

	// Every request passes the observability middleware: request id,
	// request/latency/in-flight metrics, optional access log.
	var requestLogger *slog.Logger
	if *accessLog {
		requestLogger = logger
	}
	handler := httpjson.Instrument(node.Handler(), requestLogger)

	// Shut down cleanly on SIGINT/SIGTERM: stop accepting uploads, then
	// drain the replay queue so no verdict is lost mid-flight.
	srv := &http.Server{Addr: *addr, Handler: handler}
	shutdownDone := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down, draining triage queue")
		srv.Shutdown(context.Background())
		close(shutdownDone)
	}()

	logger.Info("listening",
		"addr", *addr, "binaries", reg.Len(), "store", *dir, "workers", *workers)
	err = srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		// Shutdown closed the listener; wait for it to finish flushing
		// in-flight responses before draining the replay queue.
		<-shutdownDone
	} else if err != nil {
		logger.Error("http server", "err", err)
		os.Exit(1)
	}
	svc.Close()
	logger.Info("drained, exiting")
}
