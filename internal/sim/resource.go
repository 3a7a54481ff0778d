package sim

import "fmt"

// Resource is a counted resource with FIFO admission: a CPU, a bus, a
// DMA engine. Acquire blocks the calling process until the requested
// units are available; AcquireFn queues a continuation instead of a
// process. Both kinds of waiter share one queue and are admitted
// strictly in arrival order (head-of-line blocking, like a real bus
// arbiter).
type Resource struct {
	env     *Env
	name    string
	cap     int
	inUse   int
	waiters Ring[resWaiter]

	// Stats.
	acquires  uint64
	waitTotal Time
	busyTotal Time
	lastBusy  Time
}

// resWaiter is one queued request: the continuation fn(a, b) its grant
// schedules, which for a parked process is its wake-up.
type resWaiter struct {
	fn    func(a, b uint64)
	a, b  uint64
	n     int
	since Time
}

// NewResource returns a resource with the given capacity (units).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, name: name, cap: capacity}
}

// InUse returns the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquire blocks p until n units are available and takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	p.Await(func(k func(a, b uint64)) bool { return r.AcquireFn(n, k, 0, 0) })
}

// AcquireFn is Acquire for event-driven callers. If n units are free
// (and nobody is queued ahead) it takes them and reports true: the
// caller carries on inline, as a process returning from Acquire would.
// Otherwise it queues the continuation behind every earlier waiter and
// reports false; when Release admits it, fn(a, b) runs from one event
// scheduled at that instant — the event a parked process's wake-up
// would have been. Pass a long-lived function value and the call
// allocates nothing.
func (r *Resource) AcquireFn(n int, fn func(a, b uint64), a, b uint64) bool {
	if r.TryAcquire(n) {
		return true
	}
	r.waiters.Push(resWaiter{fn: fn, a: a, b: b, n: n, since: r.env.now})
	return false
}

// TryAcquire takes n units if immediately available, reporting whether
// it succeeded. It never blocks and never jumps the waiter queue.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.cap {
		panic(fmt.Sprintf("sim: acquire %d of %q (cap %d)", n, r.name, r.cap))
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.cap {
		r.grant(n, 0)
		return true
	}
	return false
}

func (r *Resource) grant(n int, waited Time) {
	if r.inUse == 0 {
		r.lastBusy = r.env.now
	}
	r.inUse += n
	r.acquires++
	r.waitTotal += waited
}

// Release returns n units and admits as many queued waiters as now
// fit, in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: release %d of %q (in use %d)", n, r.name, r.inUse))
	}
	r.inUse -= n
	if r.inUse == 0 {
		r.busyTotal += r.env.now - r.lastBusy
	}
	for r.waiters.Len() > 0 && r.inUse+r.waiters.At(0).n <= r.cap {
		w := r.waiters.Pop()
		r.grant(w.n, r.env.now-w.since)
		r.env.AtArg(r.env.now, w.fn, w.a, w.b)
	}
}

// Use acquires n units, sleeps for d, and releases: the common pattern
// of occupying a device for a fixed service time.
func (r *Resource) Use(p *Proc, n int, d Time) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Stats returns (acquisitions, total wait time, total busy time).
// Busy time counts intervals during which at least one unit was held.
func (r *Resource) Stats() (acquires uint64, waitTotal, busyTotal Time) {
	busy := r.busyTotal
	if r.inUse > 0 {
		busy += r.env.now - r.lastBusy
	}
	return r.acquires, r.waitTotal, busy
}
