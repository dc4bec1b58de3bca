package ring

import (
	"math/rand"
	"testing"
)

// TestQueueVsSlice drives a queue and a plain slice with the same random
// pushes and drops, across several growths and many wraps.
func TestQueueVsSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var want []int
	for step := 0; step < 5_000; step++ {
		if rng.Intn(100) < 65 {
			q.Push(step)
			want = append(want, step)
		} else if k := rng.Intn(4); k <= len(want) {
			q.Drop(k)
			want = want[k:]
		}
		if q.Len() != len(want) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(want))
		}
		for i, v := range want {
			if q.At(i) != v {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, q.At(i), v)
			}
		}
	}
	if len(want) < 100 {
		t.Fatalf("the walk ended with %d values; it was meant to grow the ring", len(want))
	}
}

// TestQueueSteadyWindowDoesNotAllocate: a window of steady size slides
// forever in the ring it grew to.
func TestQueueSteadyWindowDoesNotAllocate(t *testing.T) {
	var q Queue[[224]byte] // the recorder's per-interval metadata is this large
	for i := 0; i < 100; i++ {
		q.Push([224]byte{})
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.Push([224]byte{})
		q.Drop(1)
	}); n != 0 {
		t.Errorf("a sliding window allocates %v times per push; want 0", n)
	}
}

// TestQueueDropReleases: a dropped slot lets go of what it referenced, so
// a queue of buffers does not pin the ones it no longer holds.
func TestQueueDropReleases(t *testing.T) {
	var q Queue[[]byte]
	q.Push(make([]byte, 1))
	q.Push(make([]byte, 2))
	q.Drop(1)
	if q.buf[0] != nil {
		t.Error("the dropped slot still references its buffer")
	}
	if len(q.At(0)) != 2 {
		t.Errorf("oldest value has %d bytes, want 2", len(q.At(0)))
	}
}
