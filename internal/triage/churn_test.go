package triage

import (
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
)

// churnArchives records n crash reports of n distinct binaries (the crash
// demo with one table word changed), registers each binary in reg, and
// returns the packed archives.
func churnArchives(t *testing.T, reg *ImageRegistry, n int) [][]byte {
	t.Helper()
	blobs := make([][]byte, n)
	for i := range blobs {
		src := strings.Replace(crashSource, ".word 3, 5, 7, 0", fmt.Sprintf(".word 3, 5, %d, 0", 7+i), 1)
		img, err := asm.Assemble("crash.s", src)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(img)
		_, rep, _ := core.Record(img, kernel.Config{}, core.Config{IntervalLength: 16})
		if blobs[i], err = report.Pack(rep); err != nil {
			t.Fatal(err)
		}
	}
	return blobs
}

// TestIngestEvictionChurn races ingest against eviction: eight uploaders
// send a seeded mix of fresh and duplicate archives, by bytes and by
// spooled file, some marked for another node to replay, into a store that
// fits about three of them, while debug-session pins hold some blobs.
// Once every wait is finished, the books must agree with the store: no
// verdict owed, every listed report held and described alike by Report,
// every bucket exemplar held and listed once, every successful upload
// counted in exactly one bucket, and no verdict sidecar without its blob.
func TestIngestEvictionChurn(t *testing.T) {
	reg := NewImageRegistry()
	blobs := churnArchives(t, reg, 10)
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Workers: 2, Resolver: reg.Resolve,
		Budget: 3 * int64(len(blobs[0]))})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spool := t.TempDir()

	const uploaders, uploads = 8, 24
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		ingests int
	)
	stop := make(chan struct{})
	var pinners sync.WaitGroup
	pinners.Add(1)
	go func() {
		defer pinners.Done()
		rng := rand.New(rand.NewPCG(7, 99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _, release, err := s.OpenReport(report.ID(blobs[rng.IntN(len(blobs))]))
			if err == nil {
				time.Sleep(200 * time.Microsecond) // hold the pin across some ingests
				release()
			}
		}
	}()
	for g := 0; g < uploaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(20250808, uint64(g)))
			for i := 0; i < uploads; i++ {
				blob := blobs[rng.IntN(len(blobs))]
				var err error
				if rng.IntN(2) == 0 {
					_, err = s.Ingest(blob)
				} else {
					var from Origin
					if rng.IntN(3) == 0 {
						from.Replayer = "http://peer"
					}
					p := filepath.Join(spool, fmt.Sprintf("%d-%d.tmp", g, i))
					if err = os.WriteFile(p, blob, 0o644); err == nil {
						_, err = s.IngestFile(report.ID(blob), p, int64(len(blob)), from)
					}
				}
				if err != nil {
					t.Errorf("uploader %d, upload %d: %v", g, i, err)
					continue
				}
				mu.Lock()
				ingests++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pinners.Wait()

	// Finish the waits: adopt a verdict for every other one, replay the rest.
	for i, aw := range s.Awaited() {
		if i%2 == 0 {
			if _, err := s.AdoptVerdict(aw.ID, &Verdict{State: VerdictDone, Instructions: 1}); err != nil {
				t.Fatal(err)
			}
		} else {
			s.ReplayDeferred(aw.ID)
		}
	}
	s.WaitIdle()

	if p := s.Pending(); p != 0 {
		t.Errorf("Pending() = %d after every wait finished", p)
	}
	listed, _ := s.ReportsCursor("", len(blobs)+1)
	for _, m := range listed {
		if !s.Store().Has(m.ID) {
			t.Errorf("listed report %s is not held", m.ID[:12])
		}
		got, ok := s.Report(m.ID)
		if !ok || got.BucketKey != m.BucketKey || got.Bytes != m.Bytes ||
			(got.Verdict == nil) != (m.Verdict == nil) ||
			(got.Verdict != nil && got.Verdict.State != m.Verdict.State) {
			t.Errorf("Report(%s) = %+v (found %v), listed as %+v", m.ID[:12], got, ok, m)
		}
	}
	counted := 0
	for _, b := range s.Buckets() {
		counted += b.Count
		seen := make(map[string]bool)
		for _, id := range b.ReportIDs {
			if seen[id] {
				t.Errorf("bucket %s lists %s twice", b.Key, id[:12])
			}
			seen[id] = true
			if !s.Store().Has(id) {
				t.Errorf("bucket %s lists %s, which is not held", b.Key, id[:12])
			}
		}
	}
	if counted != ingests {
		t.Errorf("bucket counts sum to %d, want the %d successful uploads", counted, ingests)
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && filepath.Ext(path) == verdictExt {
			if _, err := os.Stat(strings.TrimSuffix(path, verdictExt) + blobExt); err != nil {
				t.Errorf("sidecar %s lies beside no blob", filepath.Base(path))
			}
		}
		return nil
	})
}
