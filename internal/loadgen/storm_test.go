package loadgen

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestScheduleDeterministic: the schedule is a pure function of
// (seed, nodes, ticks) — rerunning a printed seed replays the exact
// storm.
func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(42, 5, 200)
	b := Schedule(42, 5, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := Schedule(43, 5, 200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule for a 200-tick storm")
	}
}

// TestScheduleInvariants: at every prefix at least one node is on the
// network, and the completed schedule leaves everything healed.
func TestScheduleInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 99, 12345} {
		nodes := 3 + int(seed%3)
		evs := Schedule(seed, nodes, 120)
		down := map[int]bool{}
		parts := map[[2]int]bool{}
		disk := map[int]bool{}
		lastTick := -1
		for i, ev := range evs {
			if ev.Tick < lastTick {
				t.Fatalf("seed %d: event %d out of tick order", seed, i)
			}
			lastTick = ev.Tick
			if ev.Node < 0 || ev.Node >= nodes {
				t.Fatalf("seed %d: event %d targets node %d of %d", seed, i, ev.Node, nodes)
			}
			switch ev.Kind {
			case EventKill:
				down[ev.Node] = true
			case EventRestart:
				delete(down, ev.Node)
			case EventPartition:
				parts[pairOf(ev.Node, ev.Peer)] = true
			case EventHealPartition:
				delete(parts, pairOf(ev.Node, ev.Peer))
			case EventDiskFault:
				disk[ev.Node] = true
			case EventDiskHeal:
				delete(disk, ev.Node)
			default:
				t.Fatalf("seed %d: unknown event kind %q", seed, ev.Kind)
			}
			if len(down) >= nodes {
				t.Fatalf("seed %d: all %d nodes down after event %d", seed, nodes, i)
			}
		}
		if len(down) != 0 || len(parts) != 0 || len(disk) != 0 {
			t.Fatalf("seed %d: schedule ends unhealed: down=%v parts=%v disk=%v",
				seed, down, parts, disk)
		}
	}
}

// TestScheduleEventsRoundTripJSON: the storm report embeds the schedule;
// its encoding must survive a round trip for the artifact to be replayable.
func TestScheduleEventsRoundTripJSON(t *testing.T) {
	evs := Schedule(7, 3, 50)
	data, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, back) {
		t.Fatal("schedule changed across a JSON round trip")
	}
}

// TestChaosShortStorm is the e2e drill: a real (small) storm against a
// real in-process cluster, gated on the full invariant set. The CI
// chaos-smoke job runs the 60-second version via cmd/bugnet-chaos.
func TestChaosShortStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm in -short mode")
	}
	rep, err := Storm(StormOptions{
		Seed:     11,
		Nodes:    3,
		Duration: 2 * time.Second,
		Tick:     100 * time.Millisecond,
		RPS:      20,
		Corpus:   8,
		BaseDir:  t.TempDir(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked == 0 {
		t.Fatalf("storm acked nothing (%d sent, %d shed, %d errors) — no durability was exercised",
			rep.Sent, rep.Shed, rep.Errors)
	}
	if !rep.OK {
		out, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("storm violated the durability contract:\n%s", out)
	}
}
