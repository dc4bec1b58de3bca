package cluster

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/faultinject"
	"bugnet/internal/httpjson"
	"bugnet/internal/triage"
)

// SpawnOptions configures an in-process cluster (SpawnLocal).
type SpawnOptions struct {
	// BaseDir is where each node's store lives (BaseDir/node<i>). Required.
	BaseDir string
	// Resolver maps BinaryID -> image for every node's replay. Required.
	Resolver func(core.BinaryID) (*asm.Image, error)
	// Replication / WriteQuorum / admission budgets mirror Config.
	Replication   int
	WriteQuorum   int
	MaxSpoolBytes int64
	MaxInflight   int
	RetryAfter    time.Duration
	// RetryInterval paces anti-entropy (default 1s; tests use tens of ms).
	RetryInterval time.Duration
	// Workers is each node's replay pool size (default 2).
	Workers int

	// PeerTimeout / MaxRepairAttempts / breaker tuning mirror Config.
	PeerTimeout       time.Duration
	MaxRepairAttempts int
	BreakerThreshold  int
	BreakerCooldown   time.Duration
	// FaultPlane, when set, threads each node's disk I/O (tagged
	// "node<i>") and peer traffic through the fault-injection plane — the
	// chaos harness's hook into an otherwise production-shaped cluster.
	FaultPlane *faultinject.Plane
}

// LocalNode is one member of an in-process cluster: a real triage
// service and cluster node behind a real TCP listener, so peers talk
// over loopback HTTP exactly as a deployed fleet would.
type LocalNode struct {
	URL     string
	Node    *Node
	Service *triage.Service

	addr string
	mu   sync.Mutex
	srv  *http.Server
	lis  net.Listener
}

// LocalCluster is a set of in-process nodes sharing one static ring.
// Each node serves Node.Handler, the one mux bugnet-serve serves, minus
// the debug API (no Config.Debug). Used by the e2e tests, internal/loadgen
// (bugnet-loadgen -nodes and bugnet-chaos's storm) and benchmark/'s fleet
// stage.
type LocalCluster struct {
	Nodes []*LocalNode
}

// SpawnLocal starts n nodes on loopback listeners. Addresses are bound
// first so every node can be configured with the full peer list, then
// services and handlers come up behind them.
func SpawnLocal(n int, opt SpawnOptions) (*LocalCluster, error) {
	if n <= 0 {
		return nil, errors.New("cluster: SpawnLocal needs n > 0")
	}
	if opt.BaseDir == "" || opt.Resolver == nil {
		return nil, errors.New("cluster: SpawnOptions.BaseDir and Resolver are required")
	}
	lc := &LocalCluster{}
	ok := false
	defer func() {
		if !ok {
			lc.Close()
		}
	}()

	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = lis
		peers[i] = "http://" + lis.Addr().String()
	}

	for i := 0; i < n; i++ {
		// Each node gets its own fault-plane view: disk faults land on its
		// tag, partitions on its base URL, and its transport stays private
		// so closing one node reclaims only its connections.
		fs := opt.FaultPlane.FS(fmt.Sprintf("node%d", i))
		var transport http.RoundTripper
		if opt.FaultPlane != nil {
			transport = opt.FaultPlane.Transport(peers[i], http.DefaultTransport.(*http.Transport).Clone())
		}
		svc, err := triage.New(triage.Config{
			Dir:      filepath.Join(opt.BaseDir, fmt.Sprintf("node%d", i)),
			Workers:  opt.Workers,
			Resolver: opt.Resolver,
			FS:       fs,
		})
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			return nil, err
		}
		node, err := New(Config{
			Self:              peers[i],
			Peers:             peers,
			ReplicationFactor: opt.Replication,
			WriteQuorum:       opt.WriteQuorum,
			Service:           svc,
			SpoolDir:          filepath.Join(opt.BaseDir, fmt.Sprintf("node%d", i), "cluster"),
			MaxSpoolBytes:     opt.MaxSpoolBytes,
			MaxInflight:       opt.MaxInflight,
			RetryAfter:        opt.RetryAfter,
			RetryInterval:     opt.RetryInterval,
			PeerTimeout:       opt.PeerTimeout,
			MaxRepairAttempts: opt.MaxRepairAttempts,
			BreakerThreshold:  opt.BreakerThreshold,
			BreakerCooldown:   opt.BreakerCooldown,
			Transport:         transport,
			FS:                fs,
		})
		if err != nil {
			svc.Close()
			for _, l := range listeners[i:] {
				l.Close()
			}
			return nil, err
		}
		ln := &LocalNode{
			URL:     peers[i],
			Node:    node,
			Service: svc,
			addr:    listeners[i].Addr().String(),
		}
		ln.start(listeners[i])
		lc.Nodes = append(lc.Nodes, ln)
	}
	ok = true
	return lc, nil
}

func (ln *LocalNode) start(lis net.Listener) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.lis = lis
	// The request-id middleware sits where bugnet-serve puts it, so an
	// upload's id crosses peer hops here as it does in a deployed fleet.
	ln.srv = &http.Server{Handler: httpjson.Instrument(ln.Node.Handler(), nil)}
	go ln.srv.Serve(lis)
}

// Stop takes the node off the network (listener closed, in-flight
// connections dropped) while its service, store, and dirs stay intact —
// the "node down" half of a failure drill.
func (ln *LocalNode) Stop() {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.srv != nil {
		ln.srv.Close()
		ln.srv = nil
		ln.lis = nil
	}
}

// Restart rebinds the node's original address — the "node back" half.
// Fails if the OS already gave the port away (rare on loopback).
func (ln *LocalNode) Restart() error {
	ln.mu.Lock()
	running := ln.srv != nil
	ln.mu.Unlock()
	if running {
		return nil
	}
	lis, err := net.Listen("tcp", ln.addr)
	if err != nil {
		return err
	}
	ln.start(lis)
	return nil
}

// Close tears one node down completely.
func (ln *LocalNode) Close() {
	ln.Stop()
	if ln.Node != nil {
		ln.Node.Close()
	}
	if ln.Service != nil {
		ln.Service.Close()
	}
}

// URLs returns every member's base URL.
func (lc *LocalCluster) URLs() []string {
	out := make([]string, len(lc.Nodes))
	for i, n := range lc.Nodes {
		out[i] = n.URL
	}
	return out
}

// Close tears the whole cluster down.
func (lc *LocalCluster) Close() {
	for _, n := range lc.Nodes {
		n.Close()
	}
}
