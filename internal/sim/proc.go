package sim

import (
	"fmt"
	"iter"
	"runtime"
	"time"
)

// The simulation never runs two goroutines at once (a process is a
// coroutine), so a second P would host only the garbage collector's
// mark workers, and a mark phase would last until the host next ran
// that thread. Objects allocated during a mark survive it, so the heap
// then followed the host's load: on a 2-CPU host, bulk_stream's 128 KB
// buffers kept a 7 MB heap beside an idle CPU and a 16 MB one beside a
// busy CPU. The simulator therefore takes one P, and drive hands it to
// the collector every yieldEvery events: coroutine switches never enter
// the Go scheduler, so without the yield only allocation assists would
// mark, and a mark phase took 10x longer.
//
// A program's first garbage collection starts the Go runtime's mark
// workers, which allocates or not as the scheduler happens to run them.
// Collecting before anything is simulated makes allocation counts repeat.
// So does one sleep: the P's timer heap is allocated by its first timer,
// which would otherwise be the background scavenger's first sleep, at
// whatever collection first leaves it memory to return (16 B that landed
// in half of eager_pingpong's timed regions once one 8 KB table less was
// allocated before them).
func init() {
	runtime.GOMAXPROCS(1)
	runtime.GC()
	time.Sleep(time.Microsecond)
}

// yieldEvery is how many events drive runs between two runtime.Gosched
// calls, about 100 µs of host time.
const yieldEvery = 1024

// killedError is the sentinel panic value used to unwind parked
// processes when the environment is closed.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: process " + k.name + " killed" }

// Proc is a simulated process: a body whose blocking operations are
// mediated by the simulation kernel. A Proc may only call kernel
// primitives from its own body, and only while it is the running
// process (which is guaranteed if it sticks to kernel primitives for
// all blocking).
type Proc struct {
	env  *Env
	name string
	fn   func(p *Proc) // the body; nil once it has returned
	c    *carrier      // held from the first wake until the body returns
	done Signal

	// driving is set while the process is parked inside Env.drive, that
	// is, while it is on the driving stack: a wake-up that finds it set
	// needs no switch.
	driving bool
	// timedOut is RecvTimeout's verdict (below).
	timedOut bool

	// wakeFn is the one closure allocated per process; every wake-up
	// (Sleep, the start event, a Queue, Cond, Resource or Await
	// continuation) schedules it through the pooled event queue, so
	// process handoffs allocate nothing.
	wakeFn func(a, b uint64)

	// Wait state. A process blocks on one primitive at a time, so the
	// record of that wait lives here instead of in a per-wait
	// allocation. waitGen numbers Queue receive waits: whoever ends one
	// (a sender or the timeout) bumps it, which both claims the wake-up
	// and turns the queue's record of the wait stale.
	// timeoutFn is RecvTimeout's timer callback, built on first use;
	// armedGen is the wait it guards and timedOut its verdict.
	waitGen   uint64
	timeoutFn func()
	armedGen  uint64
}

// carrier is a coroutine that runs process bodies, one after another.
// Creating one costs a goroutine and a dozen allocations, so a carrier
// whose body has returned waits on the environment's free list for the
// next process to start: short-lived processes (one per interrupt, per
// job, per request) reuse the same few carriers and their grown stacks
// for a whole run.
type carrier struct {
	p     *Proc // the process whose body is running; nil while free
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// start gives p a carrier, a recycled one if any is free.
func (e *Env) start(p *Proc) {
	if p.fn == nil {
		panic("sim: wake of finished process " + p.name)
	}
	c, ok := e.idle.Get()
	if !ok {
		c = &carrier{}
		c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for {
				c.p.run()
				c.p.c, c.p = nil, nil
				e.idle.Put(c)
				e.switches++
				if !yield(struct{}{}) {
					return // Close stopped the carrier
				}
			}
		})
		e.carriers = append(e.carriers, c)
	}
	c.p, p.c = p, c
}

// Go creates a process named name running fn and schedules it to start
// at the current virtual time. It returns immediately; the process
// body runs when the scheduler reaches its start event.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt is Go with an explicit absolute start time.
func (e *Env) GoAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn}
	p.wakeFn = func(uint64, uint64) { e.wake(p) }
	e.AtArg(t, p.wakeFn, 0, 0)
	return p
}

// run is the process trampoline: it executes the body on the carrier
// and fires Done when the body returns. Nothing a body throws may leave
// the carrier, because the level below on the driving stack is usually
// another process: a process killed by Close unwinds to here and stops
// silently; any other panic is handed to the environment, which halts
// the run and raises it again from Run/RunUntil. runtime.Goexit
// (t.FailNow) cannot be stopped, so it fires Done and closes the
// environment: while iter.Pull carries it down the stack to the
// goroutine that called Run, unwinding each body on the way, no event
// runs for their deferred functions.
func (p *Proc) run() {
	returned := false
	defer func() {
		p.fn = nil
		switch r := recover().(type) {
		case nil:
			p.done.Fire()
			if !returned {
				p.env.Close()
			}
		case killedError:
		default:
			p.env.fail(r)
		}
	}()
	p.fn(p)
	returned = true
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done returns a signal fired when the process body returns; other
// processes can Join on it.
func (p *Proc) Done() *Signal { return &p.done }

// park blocks the process until something wakes it. Whatever parks the
// process is responsible for arranging the wake-up (booking p.wakeFn,
// or env.wake from an event callback). A parked process drives the
// event loop itself; it yields only when the next thing to happen
// belongs to a lower level of the driving stack, and is then switched
// into again by its wake-up and nothing else.
func (p *Proc) park() {
	e := p.env
	if e.drive(p) {
		return
	}
	if e.closed { // Close, or a Goexit passing through: unwind, run nothing
		panic(killedError{p.name})
	}
	e.switches++
	if !p.c.yield(struct{}{}) { // Close stopped the carrier
		panic(killedError{p.name})
	}
}

// Sleep advances the process by d nanoseconds of virtual time. Even a
// zero-length sleep is an event, so that other ready events at the same
// timestamp (scheduled earlier) run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s sleeping negative duration %d", p.name, d))
	}
	e := p.env
	if t, ok := e.q.peek(e.now); !e.closed && d <= e.deadline-e.now && (!ok || t > e.now+d) {
		// The wake-up would be the very next event executed: take it in
		// place. This is what scheduling and popping it would have done
		// to the sequence, the step count, the fingerprint and the clock.
		e.seq++
		e.now += d
		e.step(e.now, e.seq)
		return
	}
	e.AtArg(e.now+d, p.wakeFn, 0, 0)
	p.park()
}

// Await runs an event-driven operation from a process body: start
// begins it with p's continuation k and reports whether it finished at
// once (then k is never called); otherwise p parks until the operation
// calls k, last, in the event that would have been p's wake-up.
func (p *Proc) Await(start func(k func(a, b uint64)) bool) {
	if !start(p.wakeFn) {
		p.park()
	}
}

// Join blocks until the given signal fires. It returns immediately if
// the signal has already fired.
func (p *Proc) Join(s *Signal) { s.Wait(p) }

// Cond parks processes until a broadcast, like sync.Cond without the
// lock (the simulation is single-threaded); WaitFn queues a
// continuation instead of a process. Both kinds of waiter share one
// FIFO and are woken in the order they joined it. Waiters must
// re-check their predicate in a loop.
type Cond struct {
	env     *Env
	waiters Ring[condWaiter]
}

// condWaiter is one queued waiter: the continuation fn(a, b) the next
// Broadcast books, which for a parked process is its wake-up.
type condWaiter struct {
	fn   func(a, b uint64)
	a, b uint64
}

// NewCond returns a condition bound to env.
func NewCond(env *Env) *Cond { return &Cond{env: env} }

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.WaitFn(p.wakeFn, 0, 0)
	p.park()
}

// WaitFn is Wait for event-driven callers: fn(a, b) runs from the one
// event the next Broadcast books for it, where a parked process's
// wake-up would be. Pass a long-lived function value and, once the
// waiter ring has grown to its working size, the call allocates
// nothing.
func (c *Cond) WaitFn(fn func(a, b uint64), a, b uint64) {
	c.waiters.Push(condWaiter{fn: fn, a: a, b: b})
}

// Broadcast wakes every current waiter, in the order they joined.
func (c *Cond) Broadcast() {
	for c.waiters.Len() > 0 {
		w := c.waiters.Pop()
		c.env.AtArg(c.env.now, w.fn, w.a, w.b)
	}
}

// Signal is a one-shot broadcast event: processes Wait on it, Fire
// releases all current and future waiters. The zero value is an unfired
// signal. Its waiters queue on a Cond it borrows from the environment
// for as long as it has any, so a fresh signal allocates nothing.
type Signal struct {
	waiters *Cond
	fired   bool
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all waiters, booking their wake-ups in the order they
// joined. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if c := s.waiters; c != nil {
		s.waiters = nil
		c.Broadcast()
		c.env.signalConds.Put(c)
	}
}

// Wait blocks p until the signal fires.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	if s.waiters == nil {
		s.waiters = Take(&p.env.signalConds)
		s.waiters.env = p.env
	}
	s.waiters.Wait(p)
}
