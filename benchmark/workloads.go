package main

import "time"

// Constants of the benchmark. BENCHMARK.json repeats them for readers;
// they are never re-tuned per commit, or numbers stop being comparable.
const (
	// defaultSeconds is the measured time of one run (BENCHMARK.json's
	// run_seconds). The driver passes it as --seconds.
	defaultSeconds = 18

	// sliceInstr is one record timing sample: the recorded machine
	// advances this many guest instructions per timed Machine.Run.
	sliceInstr = 1_000_000
	// snapshotSlices is the fixed prefix of the record stage. Counts that
	// must repeat exactly (log bytes, replay window, allocation) are read
	// after exactly this many slices, and the window retained at that
	// moment is what the replay/debug stage opens; slices beyond it only
	// add timing samples.
	snapshotSlices = 8

	diskSegmentBytes = 64 << 10

	// Fleet stage.
	fleetNodes       = 3
	fleetReplication = 3
	fleetQuorum      = 2
	fleetWorkers     = 1 // replay workers per node
	bugScale         = 50
	corpusInterval   = 10_000
	// openLoopRate is about a sixth of what the warmed closed loop
	// saturates at on the 2-core reference box (450-550 uploads/s).
	openLoopRate      = 80.0
	closedLoopClients = 2
	closedLoopMaxRate = 800.0 // sizes the pre-built schedule, not the load
	// fleetWarmUp is how long the closed loop runs before the first
	// measured fleet round; see fleetRun.warmUp.
	fleetWarmUp = 3 * time.Second
	// Of every ten uploads, three are byte-identical duplicates of an
	// archive sent ten to forty uploads earlier.
	dupsPerTen  = 3
	pollQuantum = 100 * time.Microsecond // between verdict polls

	// A run is two blocks. The first cycles singleRounds times through the
	// single-threaded work (record slices, sequential replay, open to
	// crash, reverse steps); the second cycles multiRounds times through
	// the work that needs every processor (parallel replay, the fleet's
	// open and closed loops). The reference box is a shared VM whose
	// neighbours slow it for a second or two at a time: with every metric
	// sampled in every round of its block, such a burst touches a few
	// samples of each metric and not all samples of one. The blocks are
	// apart because the same host parks an idle virtual CPU on its busy
	// sibling's core and takes up to a second to move it back: the fleet's
	// warm-up, at the head of the second block, is also that second.
	singleRounds = 6
	multiRounds  = 2

	// layerOps is the least number of samples a layer drive takes.
	layerOps = 5

	// setupRepeats is how often a run builds its fixture, so that the
	// fixture's part of setup_s is a median.
	setupRepeats = 15
	// tracedStageShare is the part of a traced run's time the pipeline
	// stages get; the rest drives layers alone.
	tracedStageShare = 0.4

	// Replay/debug stage shares of its time. Reverse steps come by the
	// hundred and the others by the dozen, so the others get most of it.
	seqShare, parShare, openShare = 0.25, 0.2, 0.3 // the rest is reverse steps
	reverseBatch                  = 8              // seek + reverse-step pairs between two probes
	minReverseBatches             = 5              // per round
)

// workloadDef is one set of inputs. Every run drives the whole pipeline —
// record, replay/debug, fleet triage — because every end-to-end metric is
// reported by every workload; the workload picks the recorded program,
// the recorder configuration, and which stage gets most of the time.
type workloadDef struct {
	Name string
	Why  string

	Program   string // SPEC analogue name, or "mtshare"
	Interval  uint64 // checkpoint interval length, instructions
	FLLBudget int64
	MRLBudget int64
	Disk      bool // log regions on disk (logstore.OpenDisk) instead of memory

	// Shares of --seconds per stage; they sum to 1.
	RecordShare, ReplayShare, FleetShare float64
}

var workloads = []workloadDef{
	{
		Name:    "record_dense",
		Why:     "mcf analogue: 1.2 KB of log per kinstr, every load a first load and no dictionary hits, so the FLL writer does three quarters of the record work; a log-path gain must show here",
		Program: "mcf", Interval: 100_000, FLLBudget: 512 << 10, MRLBudget: 512 << 10,
		RecordShare: 0.4, ReplayShare: 0.4, FleetShare: 0.2,
	},
	{
		Name:    "record_sparse",
		Why:     "crafty analogue: 0.1 KB of log per kinstr, a quarter of the loads logged; the unrecorded engine is 22% of the time against 8% on record_dense: an engine gain shows here most, a log-volume gain least",
		Program: "crafty", Interval: 100_000, FLLBudget: 512 << 10, MRLBudget: 512 << 10,
		RecordShare: 0.4, ReplayShare: 0.4, FleetShare: 0.2,
	},
	{
		Name:    "record_mt_spill",
		Why:     "two guest threads sharing lines, 10K intervals, 64 KB disk-backed regions: ten times the interval rate plus coherence, MRL, Netzer and segment rotate/evict that single-thread runs never touch",
		Program: "mtshare", Interval: 10_000, FLLBudget: 64 << 10, MRLBudget: 64 << 10, Disk: true,
		RecordShare: 0.4, ReplayShare: 0.4, FleetShare: 0.2,
	},
	{
		Name:    "replay_debug",
		Why:     "developer side: a 2 M-instruction mcf window whose checkpoints overflow the engine's 64 MB budget, so replay, open-to-crash and reverse steps pay decode and checkpoint thinning",
		Program: "mcf", Interval: 100_000, FLLBudget: 2560 << 10, MRLBudget: 512 << 10,
		RecordShare: 0.2, ReplayShare: 0.6, FleetShare: 0.2,
	},
	{
		Name:    "fleet_triage",
		Why:     "operator side: 3-node cluster over loopback, 70% never-seen archives and 30% duplicates of the 18 bug analogues, open loop at a fixed rate then closed loop to saturation",
		Program: "gzip", Interval: corpusInterval, FLLBudget: 512 << 10, MRLBudget: 512 << 10,
		RecordShare: 0.2, ReplayShare: 0.3, FleetShare: 0.5,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
