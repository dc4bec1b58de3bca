// Package cluster turns a set of bugnet-serve processes into one triage
// fleet: a consistent-hash ring places every content-addressed report ID
// on N owner nodes, any node accepts an upload and streams it to the
// owners (succeeding at a write quorum), reads proxy to the first healthy
// replica with read-repair for missing owners, and admission control
// sheds ingest load with 429 + Retry-After before the spool collapses.
//
// Placement leans entirely on BugNet's content addressing (paper §5): a
// report's ID is the SHA-256 of its archive bytes, so the ID is uniform,
// collision-free, and identical on every node — no coordination service
// is needed to agree where a blob lives, and byte-identical duplicate
// crashes (the common case at fleet scale) land on the same owners and
// dedupe there.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// DefaultVirtualNodes is the ring points each node projects. 128 keeps
// the max/mean load ratio within a few percent for small static fleets
// while the ring stays tiny (a few KB per node).
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over a static peer set.
// Nodes are identified by their base URL; the ring hashes each node to
// VirtualNodes points on a uint64 circle and a key's owners are the
// first N distinct nodes clockwise from the key's own point. Immutable
// rings swap atomically on membership change, so lookups never lock.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // distinct, sorted; membership order for reporting
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given node names with the given number
// of virtual nodes per node (<= 0 selects DefaultVirtualNodes).
// Duplicate names collapse; order does not matter — two nodes given the
// same peer set always derive the identical ring.
func NewRing(nodes []string, virtualNodes int) *Ring {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	distinct := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		distinct[n] = true
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(distinct)*virtualNodes),
		nodes:  make([]string, 0, len(distinct)),
	}
	for n := range distinct {
		r.nodes = append(r.nodes, n)
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n, v), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on node name so equal hashes (astronomically rare but
		// possible) still sort identically on every peer.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// pointHash places one virtual node on the circle. SHA-256 rather than a
// fast hash: ring construction is rare, and the cryptographic mix keeps
// adversarially chosen node names from clumping the circle.
func pointHash(node string, v int) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h := sha256.New()
	h.Write([]byte(node))
	h.Write(buf[:])
	return binary.BigEndian.Uint64(h.Sum(nil))
}

// keyHash places a report ID on the circle. IDs are already hex SHA-256,
// uniformly distributed, but hashing again costs nothing measurable and
// keeps non-ID keys (tests, future key kinds) safe too.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:])
}

// Nodes returns the ring's distinct members, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Has reports whether node is a member.
func (r *Ring) Has(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// Len returns the number of distinct nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Owners returns the n distinct nodes owning key, in preference order
// (the primary first). n is clamped to the membership size, so a
// 3-replica placement over a 2-node ring returns both nodes.
func (r *Ring) Owners(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	h := keyHash(key)
	// First point clockwise from (>=) the key's hash, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; j < len(r.points) && len(owners) < n; j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, p.node)
		}
	}
	return owners
}

// IsOwner reports whether node is among the n owners of key.
func (r *Ring) IsOwner(key, node string, n int) bool {
	for _, o := range r.Owners(key, n) {
		if o == node {
			return true
		}
	}
	return false
}
