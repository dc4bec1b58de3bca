package main

import (
	"fmt"
	"path/filepath"

	"bugnet/internal/cluster"
	"bugnet/internal/core"
	"bugnet/internal/kernel"
	"bugnet/internal/logstore"
	"bugnet/internal/triage"
	"bugnet/internal/workload"
)

// fixture is everything a run needs before its first measured operation:
// the assembled guest program on a warmed-up machine, the recorder
// configuration (with opened disk regions when the workload spills), the
// recorded crash corpus, and a running cluster.
// Building it is what setup_s times.
type fixture struct {
	def     *workloadDef
	dir     string
	prog    *workload.Workload
	machine *kernel.Machine
	warm    uint64 // guest instructions the warm-up executed
	recCfg  core.Config
	disks   []*logstore.Disk // fll, mrl; nil for in-memory regions
	reg     *triage.ImageRegistry
	corpus  *corpus
	cluster *cluster.LocalCluster
}

func guestProgram(name string) (*workload.Workload, error) {
	if name == "mtshare" {
		return workload.MTShare(), nil
	}
	if w := workload.ByName(name); w != nil {
		return w, nil
	}
	return nil, fmt.Errorf("no guest program %q", name)
}

// warmMachine returns a fresh machine for prog that has run its
// initialisation phase unrecorded, and the instructions that took.
func warmMachine(prog *workload.Workload) (*kernel.Machine, uint64) {
	m := prog.Machine(prog.Warmup, nil)
	return m, m.Run().Instructions
}

// openDiskRegion opens a disk-backed log region of the given budget in dir.
func openDiskRegion(dir string, budget int64) (*logstore.Store, *logstore.Disk, error) {
	d, err := logstore.OpenDisk(dir, logstore.DiskOptions{SegmentBytes: diskSegmentBytes})
	if err != nil {
		return nil, nil, err
	}
	s, err := logstore.Open(budget, d)
	return s, d, err
}

// recorderConfig opens the workload's log regions under dir. The returned
// disks are nil for in-memory regions; the stores own them either way.
func recorderConfig(def *workloadDef, dir string) (core.Config, []*logstore.Disk, error) {
	cfg := core.Config{IntervalLength: def.Interval, FLLBudget: def.FLLBudget, MRLBudget: def.MRLBudget}
	if !def.Disk {
		return cfg, nil, nil
	}
	var fll, mrl *logstore.Disk
	var err error
	if cfg.FLLStore, fll, err = openDiskRegion(filepath.Join(dir, "fll"), def.FLLBudget); err != nil {
		return cfg, nil, err
	}
	if cfg.MRLStore, mrl, err = openDiskRegion(filepath.Join(dir, "mrl"), def.MRLBudget); err != nil {
		cfg.FLLStore.Close()
		return cfg, nil, err
	}
	return cfg, []*logstore.Disk{fll, mrl}, nil
}

// closeRegions closes the log regions recorderConfig opened.
func closeRegions(cfg core.Config) {
	for _, s := range []*logstore.Store{cfg.FLLStore, cfg.MRLStore} {
		if s != nil {
			s.Close()
		}
	}
}

// newFixture builds a fixture under dir.
func newFixture(def *workloadDef, dir string) (*fixture, error) {
	f := &fixture{def: def, dir: dir}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	var err error
	if f.prog, err = guestProgram(def.Program); err != nil {
		return nil, err
	}
	f.machine, f.warm = warmMachine(f.prog)
	if f.recCfg, f.disks, err = recorderConfig(def, filepath.Join(dir, "regions")); err != nil {
		return nil, err
	}
	f.reg = triage.NewImageRegistry()
	if f.corpus, err = recordCorpus(f.reg); err != nil {
		return nil, err
	}
	f.cluster, err = cluster.SpawnLocal(fleetNodes, cluster.SpawnOptions{
		BaseDir:     filepath.Join(dir, "cluster"),
		Resolver:    f.reg.Resolve,
		Replication: fleetReplication,
		WriteQuorum: fleetQuorum,
		Workers:     fleetWorkers,
	})
	if err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// close stops the cluster and closes the log regions. The files go with
// the run's scratch directory.
func (f *fixture) close() {
	if f.cluster != nil {
		f.cluster.Close()
	}
	closeRegions(f.recCfg)
}
