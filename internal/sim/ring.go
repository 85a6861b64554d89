package sim

// Ring is a FIFO on a circular buffer: unlike a slice advanced with
// s = s[1:], a queue that cycles reuses its backing array and stops
// allocating once it has grown to its working size. The zero value is an
// empty ring.
type Ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len reports the number of items.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.At(i)
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// At returns the i-th item from the head, 0 <= i < Len.
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// Set replaces the i-th item from the head, 0 <= i < Len.
func (r *Ring[T]) Set(i int, v T) { r.buf[(r.head+i)&(len(r.buf)-1)] = v }

// Pop removes and returns the head item; the ring must not be empty.
func (r *Ring[T]) Pop() T { return r.RemoveAt(0) }

// RemoveAt removes and returns the i-th item, keeping the order of the
// rest.
func (r *Ring[T]) RemoveAt(i int) T {
	mask := len(r.buf) - 1
	v := r.buf[(r.head+i)&mask]
	// Close the gap from the head side: removing the head moves nothing.
	for ; i > 0; i-- {
		r.buf[(r.head+i)&mask] = r.buf[(r.head+i-1)&mask]
	}
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & mask
	r.n--
	return v
}
