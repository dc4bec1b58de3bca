package cluster

import (
	"fmt"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/kernel"
	"bugnet/internal/report"
	"bugnet/internal/triage"
)

// corpusTemplate is the crash demo with a parameterized build stamp in
// the text segment: every variant is a distinct binary (distinct
// BinaryID, so each registers separately and resolves for replay) whose
// report packs to a distinct archive (distinct content address), while
// all of them crash identically — a null load at boom. That models the
// fleet case: many builds, one bug family.
const corpusTemplate = `
        .data
tbl:    .word 3, 5, 7, 0
        .text
main:   li   s5, %d
        la   t0, tbl
        li   s0, 0
sum:    lw   t1, (t0)
        beqz t1, done
        add  s0, s0, t1
        addi t0, t0, 4
        j    sum
done:   la   t2, tbl
        lw   t3, 12(t2)
boom:   lw   a0, (t3)
`

// Corpus records n distinct crash archives and registers their images so
// any triage service using reg can replay them: the fleet corpus that
// internal/loadgen and the in-process cluster tests upload.
func Corpus(n int, reg *triage.ImageRegistry) ([][]byte, error) {
	if n <= 0 {
		n = 1
	}
	blobs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(corpusTemplate, i+1)
		img, err := asm.Assemble(fmt.Sprintf("corpus%d.s", i), src)
		if err != nil {
			return nil, fmt.Errorf("cluster: assemble corpus %d: %w", i, err)
		}
		res, rep, _ := core.Record(img, kernel.Config{}, core.Config{IntervalLength: 16})
		if res.Crash == nil {
			return nil, fmt.Errorf("cluster: corpus %d did not crash", i)
		}
		blob, err := report.Pack(rep)
		if err != nil {
			return nil, fmt.Errorf("cluster: pack corpus %d: %w", i, err)
		}
		if reg != nil {
			reg.Register(img)
		}
		blobs = append(blobs, blob)
	}
	return blobs, nil
}
