package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bugnet/internal/core"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
	"bugnet/internal/workload"
)

// TestPackedBytesPinned pins the SHA-256 of two packed recordings. The
// hashes were computed with the scan-based dictionary and the per-bit
// stream packer this repository started with; the indexed table and the
// byte-at-a-time packer are host-side speed-ups only, so every logged bit
// must stay where it was. A mismatch here means the wire output moved and
// old reports no longer replay — it is never fixed by updating the hash.
func TestPackedBytesPinned(t *testing.T) {
	mt := workload.MTShare()
	cases := []struct {
		name string
		w    *workload.Workload
		kcfg kernel.Config
		rcfg core.Config
		want string
	}{
		{
			name: "gzip_50k_interval_10k",
			w:    workload.ByName("gzip"),
			kcfg: kernel.Config{MaxSteps: 50_000},
			rcfg: core.Config{IntervalLength: 10_000},
			want: "9fba2da71e036eec2bff24962d66ef158ad61fc99ffb14b1806145817b54908a",
		},
		{
			// Past gzip's warm-up: hash-chain loads with a mixed hit rate,
			// so ranks, swaps and victim choices all reach the wire.
			name: "gzip_450k_interval_10k",
			w:    workload.ByName("gzip"),
			kcfg: kernel.Config{MaxSteps: 450_000},
			rcfg: core.Config{IntervalLength: 10_000},
			want: "141cc3fd6bf5eb37b0b4d6009cb466716114716fd0126359e53964aa91310f64",
		},
		{
			name: "mtshare_2threads_100k_interval_5k",
			w:    mt,
			kcfg: kernel.Config{Cores: mt.Kernel.Cores, MaxSteps: 100_000},
			rcfg: core.Config{IntervalLength: 5_000},
			want: "355ce55e9edfebbf0febf01fe544e78eb445571ab6acf3027d0ff838da575eaa",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := kernel.New(tc.w.Image, tc.kcfg, nil)
			rec := core.NewRecorder(m, tc.rcfg)
			m.Run()
			rec.Flush()
			if err := rec.Err(); err != nil {
				t.Fatalf("record: %v", err)
			}
			rep := rec.Report()
			if want := max(tc.kcfg.Cores, 1); len(rep.FLLs) != want {
				t.Fatalf("recorded %d threads, want %d", len(rep.FLLs), want)
			}
			data, err := report.Pack(rep)
			if err != nil {
				t.Fatalf("pack: %v", err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("packed archive (%d bytes) hashes to %s, pinned %s", len(data), got, tc.want)
			}
		})
	}
}
