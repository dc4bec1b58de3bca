// Package ring provides the FIFO the record path keeps its sliding windows
// in: the log region's blocks and item offsets, the recorder's metadata of
// retained intervals. Recording is continuous, so each window pushes at
// one end and drops at the other forever; a window of steady size must
// cost no allocation and no copying however long it slides.
package ring

// Queue is a first-in first-out queue held in a ring that doubles when
// full. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest value
	n    int
}

// Len returns the number of values held.
func (q *Queue[T]) Len() int { return q.n }

// Push adds v as the newest value.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(2*q.n, 8))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// At returns the i'th oldest value, 0 <= i < Len.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("ring: index out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

// Drop removes the k oldest values, 0 <= k <= Len.
func (q *Queue[T]) Drop(k int) {
	if k < 0 || k > q.n {
		panic("ring: drop count out of range")
	}
	var zero T
	for ; k > 0; k-- {
		q.buf[q.head] = zero // let go of what the value referenced
		q.head = (q.head + 1) % len(q.buf)
		q.n--
	}
}
