package loadgen

import (
	"math/rand"
	"sort"
)

// EventKind names one storm action.
type EventKind string

const (
	// EventKill takes a node off the network (listener closed).
	EventKill EventKind = "kill"
	// EventRestart rebinds a killed node's address.
	EventRestart EventKind = "restart"
	// EventPartition severs traffic both ways between Node and Peer.
	EventPartition EventKind = "partition"
	// EventHealPartition restores traffic between Node and Peer.
	EventHealPartition EventKind = "heal_partition"
	// EventDiskFault makes Node's disk fail half its writes with EIO,
	// torn, until healed.
	EventDiskFault EventKind = "disk_fault"
	// EventDiskHeal clears Node's disk fault.
	EventDiskHeal EventKind = "disk_heal"
)

// Event is one scheduled storm action.
type Event struct {
	Tick int       `json:"tick"`
	Kind EventKind `json:"kind"`
	Node int       `json:"node"`
	Peer int       `json:"peer,omitempty"` // partition partner
}

// Schedule derives a storm from (seed, nodes, ticks) as a pure function:
// the same inputs always produce the same event list, which is what makes
// a chaos run reproducible from its printed seed. Two invariants are
// maintained by construction: at least one node stays on the network at
// every tick, and the final tenth of the storm only heals, so the
// schedule ends with every node up, every partition healed, and every
// disk fault cleared.
func Schedule(seed int64, nodes, ticks int) []Event {
	rng := rand.New(rand.NewSource(seed))
	down := make(map[int]bool)
	parts := make(map[[2]int]bool)
	disk := make(map[int]bool)

	healFrom := ticks - ticks/10 - 1
	if healFrom < 0 {
		healFrom = 0
	}

	var events []Event
	emit := func(tick int, kind EventKind, node, peer int) {
		events = append(events, Event{Tick: tick, Kind: kind, Node: node, Peer: peer})
		switch kind {
		case EventKill:
			down[node] = true
		case EventRestart:
			delete(down, node)
		case EventPartition:
			parts[pairOf(node, peer)] = true
		case EventHealPartition:
			delete(parts, pairOf(node, peer))
		case EventDiskFault:
			disk[node] = true
		case EventDiskHeal:
			delete(disk, node)
		}
	}

	for tick := 0; tick < ticks && tick < healFrom; tick++ {
		for i := rng.Intn(3); i > 0; i-- {
			var cands []Event
			if len(down) < nodes-1 {
				for n := 0; n < nodes; n++ {
					if !down[n] {
						cands = append(cands, Event{Kind: EventKill, Node: n})
					}
				}
			}
			for _, n := range sortedKeys(down) {
				cands = append(cands, Event{Kind: EventRestart, Node: n})
			}
			for a := 0; a < nodes; a++ {
				for b := a + 1; b < nodes; b++ {
					if parts[pairOf(a, b)] {
						cands = append(cands, Event{Kind: EventHealPartition, Node: a, Peer: b})
					} else {
						cands = append(cands, Event{Kind: EventPartition, Node: a, Peer: b})
					}
				}
			}
			for n := 0; n < nodes; n++ {
				if disk[n] {
					cands = append(cands, Event{Kind: EventDiskHeal, Node: n})
				} else {
					cands = append(cands, Event{Kind: EventDiskFault, Node: n})
				}
			}
			if len(cands) == 0 {
				break
			}
			pick := cands[rng.Intn(len(cands))]
			emit(tick, pick.Kind, pick.Node, pick.Peer)
		}
	}

	// The heal tail: everything still broken is restored, spread over the
	// remaining ticks so recovery happens under load.
	tick := healFrom
	if tick >= ticks {
		tick = ticks - 1
	}
	for _, n := range sortedKeys(down) {
		emit(tick, EventRestart, n, 0)
		tick = nextHealTick(tick, ticks)
	}
	for _, p := range sortedPairs(parts) {
		emit(tick, EventHealPartition, p[0], p[1])
		tick = nextHealTick(tick, ticks)
	}
	for _, n := range sortedKeys(disk) {
		emit(tick, EventDiskHeal, n, 0)
		tick = nextHealTick(tick, ticks)
	}
	return events
}

func nextHealTick(tick, ticks int) int {
	if tick+1 < ticks {
		return tick + 1
	}
	return ticks - 1
}

func pairOf(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// sortedKeys / sortedPairs give the heal tail a deterministic order —
// map iteration would break schedule reproducibility.
func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedPairs(m map[[2]int]bool) [][2]int {
	out := make([][2]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
