// Package fifo provides a growable ring-buffer FIFO queue.
//
// Several hot paths in the simulation (netsim transmit queues, RNIC work
// rings, switch egress queues) were dequeuing with `q = q[1:]` or an O(n)
// copy-shift; Queue makes both enqueue and dequeue O(1) amortized while
// keeping the memory of a drained queue bounded by its high-water mark.
package fifo

// Queue is a FIFO of T backed by a power-of-two ring. The zero value is an
// empty queue ready for use. Not safe for concurrent use.
type Queue[T any] struct {
	buf  []T // len(buf) is always 0 or a power of two
	head int // index of the oldest element
	n    int // number of elements
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v to the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Peek returns the head element without removing it. It panics on an empty
// queue; check Len first.
func (q *Queue[T]) Peek() T {
	if q.n == 0 {
		panic("fifo: Peek on empty queue")
	}
	return q.buf[q.head]
}

// At returns the i-th element counted from the head (At(0) is Peek). It
// panics if i is out of range.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("fifo: At out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Pop removes and returns the head element. It panics on an empty queue;
// check Len first.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("fifo: Pop on empty queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release the reference for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring (minimum 8) and linearizes the elements.
func (q *Queue[T]) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}
