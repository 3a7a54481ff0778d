package sim

import "slices"

// Ring is a growable FIFO over a power-of-two circular buffer: the
// request, retransmit and journal queues, the done-rings and the last-N
// windows of the layers above. Unlike append plus reslicing from the
// front, which reallocates whenever the window reaches the end of the
// backing array, a ring that has grown to its working size never
// allocates again; and a slot that gives up its entry is cleared, so the
// ring keeps nothing reachable that it no longer holds. Entries are
// numbered by an absolute index that only grows, so a loop that blocks
// between entries can tell whether the one it is about to touch is still
// queued. The zero Ring is empty.
type Ring[T any] struct {
	slots []T
	head  uint64 // absolute index of the oldest entry
	n     int
}

// Len returns the number of entries.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the number of slots: how many entries fit before the ring
// next grows.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Head returns the absolute index of the oldest entry.
func (r *Ring[T]) Head() uint64 { return r.head }

func (r *Ring[T]) slot(abs uint64) *T { return &r.slots[abs&uint64(len(r.slots)-1)] }

// At returns the i-th oldest entry, which must exist.
func (r *Ring[T]) At(i int) *T { return r.slot(r.head + uint64(i)) }

// Live returns the entry with absolute index abs, or nil if the ring
// does not hold it (any more).
func (r *Ring[T]) Live(abs uint64) *T {
	if abs-r.head >= uint64(r.n) {
		return nil
	}
	return r.slot(abs)
}

// AppendTo appends the entries to dst, oldest first, and returns the
// extended slice: a copy, which stays as it is while the ring changes.
func (r *Ring[T]) AppendTo(dst []T) []T {
	dst = slices.Grow(dst, r.n)
	for i := 0; i < r.n; i++ {
		dst = append(dst, *r.At(i))
	}
	return dst
}

// Push appends v as the newest entry.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.slots) {
		r.grow()
	}
	r.n++
	*r.At(r.n - 1) = v
}

func (r *Ring[T]) grow() {
	old := *r
	r.slots = make([]T, max(2*len(old.slots), 4))
	for i := 0; i < r.n; i++ {
		*r.At(i) = *old.At(i)
	}
}

// PushLast appends v to a window over the last n entries: if the ring
// holds n or more, the oldest is popped first and returned.
func (r *Ring[T]) PushLast(v T, n int) (old T, popped bool) {
	if r.n >= n {
		old, popped = r.Pop(), true
	}
	r.Push(v)
	return old, popped
}

// Pop removes and returns the oldest entry, which must exist.
func (r *Ring[T]) Pop() T {
	var zero T
	s := r.At(0)
	v := *s
	*s = zero
	r.head++
	r.n--
	return v
}

// Remove takes the i-th oldest entry, which must exist, out of the ring
// and returns it. The entries older than it shift up one slot and the
// front is popped, so every other entry keeps its place in the order;
// the absolute index of each older one grows by one.
func (r *Ring[T]) Remove(i int) T {
	v := *r.At(i)
	for ; i > 0; i-- {
		*r.At(i) = *r.At(i - 1)
	}
	r.Pop()
	return v
}

// FreeList keeps objects for reuse: descriptors, events, carriers,
// buffers. It is a LIFO stack, so a Get returns the object Put last, and
// which object that is depends only on the simulation's own history:
// allocation counts repeat exactly from run to run, and two environments
// share nothing. Get on an empty list reports false and the caller makes
// a fresh object. Either way the object is in use until it is Put back,
// or abandoned: let go to the garbage collector instead, because
// something may still hold it.
type FreeList[T any] struct {
	free  []T
	inUse int
}

// Get takes the object Put last, if there is one.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.inUse++
	k := len(l.free) - 1
	if k < 0 {
		return v, false
	}
	v = l.free[k]
	var zero T
	l.free[k] = zero
	l.free = l.free[:k]
	return v, true
}

// Put returns an object to the list for reuse.
func (l *FreeList[T]) Put(v T) {
	l.inUse--
	l.free = append(l.free, v)
}

// Take returns a record off l, or a new one when l is empty. The caller
// sets every field; buffers it finds there keep their capacity for reuse.
func Take[T any](l *FreeList[*T]) *T {
	if v, ok := l.Get(); ok {
		return v
	}
	return new(T)
}

// Abandon ends the use of an object that must not be reused.
func (l *FreeList[T]) Abandon() { l.inUse-- }

// InUse returns how many objects are taken and neither returned nor
// abandoned.
func (l *FreeList[T]) InUse() int { return l.inUse }

// Len returns how many objects the list holds for reuse.
func (l *FreeList[T]) Len() int { return len(l.free) }
