package triage

import (
	"os"
	"testing"
)

// Hooks for node_test.go, whose tests serve the service through
// cluster.Node's handler and so live in package triage_test (cluster
// imports triage).
var (
	RecordBlob     = recordBlob
	NewTestService = newService
	GetJSON        = getJSON
)

// capBuckets lowers s's bucket-table cap so a test can reach it.
func capBuckets(s *Service, n int) {
	s.mu.Lock()
	s.bucketCap = n
	s.mu.Unlock()
}

// FailStoreDisk makes s's store disk fail for real: the health probe
// re-tests on every call, the store root is removed and err is recorded
// as the sticky failure. Recreating the returned root heals the disk.
func FailStoreDisk(t *testing.T, s *Service, err error) (root string) {
	t.Helper()
	s.store.mu.Lock()
	s.store.probeEvery = 0
	root = s.store.root
	s.store.mu.Unlock()
	if rerr := os.RemoveAll(root); rerr != nil {
		t.Fatal(rerr)
	}
	s.store.setErr(err)
	return root
}

// HeldVerdicts returns how many verdicts s's store holds in memory for
// archives it does not have.
func HeldVerdicts(s *Service) int {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	return len(s.store.waiting)
}
