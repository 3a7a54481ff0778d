package sim

import "fmt"

// Queue is a FIFO message queue between processes. With capacity <= 0
// the queue is unbounded and Send never blocks; with a positive
// capacity Send blocks while the queue is full (useful to model
// bounded hardware queues with back-pressure).
type Queue[T any] struct {
	env      *Env
	name     string
	cap      int
	buf      Ring[T]
	recvWait Ring[recvWaiter]
	sendWait Ring[sendWaiter[T]]
}

// recvWaiter records one waiting receiver, resumed by fn(a, b): a parked
// process's wake-up (p set) or a continuation. A process's record is
// live while gen is its waitGen; ending the wait bumps that, so a sender
// and a timeout at one timestamp can't both win, and push skips the
// record a timed-out receiver left behind.
type recvWaiter struct {
	p    *Proc
	gen  uint64
	fn   func(a, b uint64)
	a, b uint64
}

func (w recvWaiter) live() bool { return w.p == nil || w.gen == w.p.waitGen }

// sendWaiter records one sender waiting for room, with its value:
// the pop that makes room pushes v and schedules fn(a, b), a parked
// process's wake-up or a continuation.
type sendWaiter[T any] struct {
	fn   func(a, b uint64)
	a, b uint64
	v    T
}

// NewQueue returns a queue bound to env. capacity <= 0 means
// unbounded.
func NewQueue[T any](env *Env, name string, capacity int) *Queue[T] {
	return &Queue[T]{env: env, name: name, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.buf.Len() }

func (q *Queue[T]) full() bool { return q.cap > 0 && q.buf.Len() >= q.cap }

func (q *Queue[T]) push(v T) {
	q.buf.Push(v)
	for q.recvWait.Len() > 0 {
		if w := q.recvWait.Pop(); w.live() {
			if w.p != nil {
				w.p.waitGen++
			}
			q.env.AtArg(q.env.now, w.fn, w.a, w.b)
			break
		}
	}
}

// await records a receiver waiting for the next push. Stale records at
// the front are dropped first, so a receiver that keeps timing out on
// an idle queue does not grow the list.
func (q *Queue[T]) await(w recvWaiter) {
	for q.recvWait.Len() > 0 && !q.recvWait.At(0).live() {
		q.recvWait.Pop()
	}
	q.recvWait.Push(w)
}

// Send enqueues v, blocking p while the queue is full.
func (q *Queue[T]) Send(p *Proc, v T) {
	if !q.SendFn(v, p.wakeFn, 0, 0) {
		p.park() // our value was pushed by the receiver that freed space
	}
}

// SendFn is Send for event-driven callers: it enqueues v and reports
// true, or, while the queue is full, queues v with fn(a, b) in line
// with blocked processes and reports false. The receive that makes room
// pushes v and runs fn from the one event a blocked sender's wake-up
// would have been.
func (q *Queue[T]) SendFn(v T, fn func(a, b uint64), a, b uint64) bool {
	if q.full() {
		q.sendWait.Push(sendWaiter[T]{fn: fn, a: a, b: b, v: v})
		return false
	}
	q.push(v)
	return true
}

// Post enqueues from non-process context (an event callback). It
// panics if the queue is bounded and full; bounded queues fed from
// callbacks should check Len first and model the drop.
func (q *Queue[T]) Post(v T) {
	if q.full() {
		panic(fmt.Sprintf("sim: Post to full bounded queue %q", q.name))
	}
	q.push(v)
}

// Recv dequeues the oldest item, blocking p while the queue is empty.
func (q *Queue[T]) Recv(p *Proc) T {
	for q.buf.Len() == 0 {
		q.await(recvWaiter{p: p, gen: p.waitGen, fn: p.wakeFn})
		p.park()
	}
	return q.pop()
}

// RecvFn is Recv for event-driven callers: it dequeues a buffered item,
// or queues fn(a, b) in line with waiting processes and reports false.
// The push that serves it runs fn from the one event a parked
// receiver's wake-up would have been, and fn calls RecvFn again.
func (q *Queue[T]) RecvFn(fn func(a, b uint64), a, b uint64) (T, bool) {
	v, ok := q.TryRecv()
	if !ok {
		q.await(recvWaiter{fn: fn, a: a, b: b})
	}
	return v, ok
}

// TryRecv dequeues if an item is available.
func (q *Queue[T]) TryRecv() (T, bool) {
	if q.buf.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.pop(), true
}

// Peek returns the oldest item without dequeuing it.
func (q *Queue[T]) Peek() (T, bool) {
	if q.buf.Len() == 0 {
		var zero T
		return zero, false
	}
	return *q.buf.At(0), true
}

// RecvTimeout dequeues, giving up after d nanoseconds of virtual time.
// ok reports whether a value was received.
func (q *Queue[T]) RecvTimeout(p *Proc, d Time) (v T, ok bool) {
	deadline := q.env.now + d
	for q.buf.Len() == 0 {
		if q.env.now >= deadline {
			var zero T
			return zero, false
		}
		q.await(recvWaiter{p: p, gen: p.waitGen, fn: p.wakeFn})
		p.armedGen, p.timedOut = p.waitGen, false
		timer := q.env.At(deadline, p.recvTimeoutFn())
		p.park()
		if p.timedOut {
			var zero T
			return zero, false
		}
		timer.Cancel()
		// A sender claimed us; the item is normally in buf, but another
		// receiver may have drained it at the same timestamp — loop.
	}
	return q.pop(), true
}

// recvTimeoutFn returns the callback RecvTimeout schedules at its
// deadline. One closure per process serves every timeout: the process
// stays parked from arming until the timer fires or is cancelled, so
// armedGen cannot be overwritten while a callback is pending.
func (p *Proc) recvTimeoutFn() func() {
	if p.timeoutFn == nil {
		p.timeoutFn = func() {
			if p.armedGen != p.waitGen {
				return // a sender won the race; let its wake proceed
			}
			p.waitGen++
			p.timedOut = true
			p.env.wake(p)
		}
	}
	return p.timeoutFn
}

func (q *Queue[T]) pop() T {
	v := q.buf.Pop()
	if q.sendWait.Len() > 0 {
		w := q.sendWait.Pop()
		q.push(w.v)
		q.env.AtArg(q.env.now, w.fn, w.a, w.b)
	}
	return v
}
