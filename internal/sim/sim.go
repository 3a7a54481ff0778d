// Package sim implements a deterministic discrete-event simulation
// kernel with a process model, in the style of SimPy or OMNeT++.
//
// The kernel maintains a virtual clock in integer nanoseconds and an
// event queue ordered by (time, insertion sequence). Simulated
// activities are either plain callbacks (Env.At / Env.After) or
// processes: sequential bodies started with Env.Go that may block on
// the kernel's synchronization primitives (Proc.Sleep, Queue.Recv,
// Resource.Acquire, Signal.Wait, ...).
//
// A process is a coroutine, not a scheduled goroutine. Its body runs on
// a carrier (an iter.Pull coroutine) and there is no scheduler
// goroutine to switch back to: whoever parks, drives. One function pops
// and runs events (Env.drive). RunUntil calls it, and so does every
// blocking call, on the blocked process's own carrier. The processes
// doing so form the driving stack: RunUntil's caller at the bottom, each
// process above it switched into from the loop of the one below, the
// one on top popping events. What it does with a wake-up depends on
// whose it is:
//
//   - its own: the blocking call returns. No switch at all.
//   - a process not on the stack: the driver switches into that carrier
//     (one switch), and the woken process, when it blocks, drives in
//     turn, one level higher.
//   - a process lower on the stack — or there is nothing to run: the
//     deadline, an empty queue, Close, a failure: the driver leaves a
//     note on the Env and yields to the level below, which reads the
//     note and yields in turn, until the woken process returns from its
//     blocking call (or RunUntil returns). Whoever yielded is off the
//     stack, still blocked, and is switched into again by its own
//     wake-up and nothing else.
//
// Every switch in is matched by one switch out, and a wake-up that
// finds its process on the stack makes neither: a run costs 2 x
// (off-stack wake-ups) switches, never more than the two per wake-up a
// scheduler goroutine needs (Env.Switches counts them). A Sleep whose
// wake-up would be the very next event does not even book it: it steps
// the sequence, the step count and the clock as the event would have
// and returns. Exactly one goroutine runs at any instant and a switch
// is not an event: the event queue alone decides what happens next, so
// every run with the same inputs produces the identical event order,
// whichever goroutine pops it. It follows that event callbacks run on
// carrier stacks as well as on the goroutine that called RunUntil.
//
// Not everything that waits is a process. A state machine leaves a
// long-lived continuation func(a, b uint64) with Resource.AcquireFn,
// Queue.RecvFn, Queue.SendFn or Cond.WaitFn, in line with parked
// processes, or books it with Env.AtArg; it runs from the one event a
// parked process's wake-up would have been, so it moves no event and
// switches nothing. The fabric moves every packet this way, and three
// NIC firmware engines run so: the receive MCP, and the send MCP's
// fetch and inject engines. Processes reach the same operations through
// Proc.Await.
//
// Carriers are recycled: a process takes one at its first wake and
// returns it when its body ends, so an environment holds as many
// goroutines as it ever had processes alive at once, however many it
// starts. Nothing thrown inside the simulation travels down the driving
// stack through other processes' frames. A panic in a process body, or
// in a callback that happened to run on a carrier, is caught on that
// carrier, halts the run like a deadline, and is raised again with its
// original value by Run/RunUntil on the goroutine that called it (the
// stack that raised it is not kept); every other process stays parked
// where it was. runtime.Goexit in a body (t.FailNow) closes the
// environment and ends that goroutine too, unwinding the bodies it is
// nested in on the way. Wall-clock time plays no role: a simulated
// microsecond costs whatever the host needs to execute the model code.
//
// The hot path is allocation-free in steady state: executed events are
// recycled through a per-environment pool (Timers detect recycled
// events through a generation counter), the event queue is a FIFO ring
// for events booked at the current instant beside a hand-rolled 4-ary
// heap of (time, seq, *event) entries that a cancelled timer leaves at
// once (eventQueue; no container/heap interface boxing), arg-carrying
// events (Env.AtArg) let callers dispatch through a long-lived function
// value instead of a fresh closure per event, and the blocking
// primitives keep their buffers and waiter lists in rings or in the
// waiting Proc itself.
package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Time is a point on the virtual clock, in nanoseconds.
type Time = int64

// Handy duration units, all in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Forever is a time later than any schedulable event; waiting until
// Forever blocks a process for the rest of the simulation.
const Forever Time = 1<<63 - 1

// event is a scheduled callback. Events are pooled: after execution
// (or cancellation) the object returns to the environment's freelist
// with its generation bumped, so outstanding Timers can tell a live
// lease from a recycled one without keeping the event alive.
type event struct {
	env *Env // set once, when the object is first allocated
	t   Time
	seq uint64
	gen uint64 // bumped on every recycle; Timers snapshot it

	// Exactly one of fn / argFn is set. argFn events carry two uint64
	// words and dispatch through a long-lived function value, so the
	// scheduling site allocates nothing (no per-event closure).
	fn    func()
	argFn func(a, b uint64)
	a, b  uint64

	index int  // position in the queue's heap; -1 in its ring or in neither
	dead  bool // cancelled while in the ring (eventQueue)
}

// Env is a simulation environment: one virtual clock, one event queue,
// and the set of processes and primitives attached to it. An Env is
// not safe for concurrent use from goroutines outside its control; all
// interaction must happen from process bodies it scheduled or from the
// goroutine that calls Run.
type Env struct {
	now    Time
	seq    uint64
	q      eventQueue
	closed bool
	steps  uint64
	fp     uint64 // Fingerprint
	rng    *Rand

	// The driving stack (package comment). deadline is the current
	// RunUntil's; running says one is in progress. woken and halt are
	// the note a driver leaves before yielding to the level below: the
	// on-stack process whose wake-up was just executed, or that there is
	// nothing more to execute (deadline, empty queue, Close, failure).
	// halt stays set once the environment is closed. failure is the
	// panic value RunUntil owes its caller. switches counts next and
	// yield calls.
	deadline Time
	running  bool
	woken    *Proc
	halt     bool
	failure  any
	switches uint64

	// carriers is every coroutine this environment created, idle the
	// ones whose last body has returned (see carrier).
	carriers []*carrier
	idle     FreeList[*carrier]

	// signalConds are the Conds signals with waiters borrow (Signal).
	signalConds FreeList[*Cond]

	// Event pool. poolHits counts allocations served from the free
	// list, poolMisses counts fresh heap allocations (PoolStats).
	events     FreeList[*event]
	poolHits   uint64
	poolMisses uint64
}

// NewEnv returns an environment with the clock at zero and the given
// RNG seed (the seed fully determines any randomized model behaviour).
//
// After a Close, NewEnv first collects garbage if the heap holds at
// least the runtime's smallest goal. Otherwise a program that builds
// one machine after another peaked by the collector's timing: a mark
// just before the closed machine went out of use carried it into the
// next cycle, doubling that goal (svc_observed read 28 or 39 MB).
func NewEnv(seed uint64) *Env {
	if closedSinceNewEnv.Swap(false) {
		var m runtime.MemStats
		if runtime.ReadMemStats(&m); m.HeapAlloc >= minCollect {
			runtime.GC()
		}
	}
	return &Env{rng: NewRand(seed), fp: fpBasis}
}

var closedSinceNewEnv atomic.Bool // set by Close, cleared by NewEnv

const minCollect = 4 << 20 // the Go runtime's smallest heap goal

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *Rand { return e.rng }

// Steps reports how many events have been executed so far.
func (e *Env) Steps() uint64 { return e.steps }

// Fingerprint folds the ordering key (time, sequence number) of every
// event executed so far into 64 bits, in order: runs with one
// fingerprint executed the same events in the same order, up to a hash
// collision.
func (e *Env) Fingerprint() uint64 { return e.fp }

const fpBasis, fpPrime = 0xcbf29ce484222325, 0x100000001b3 // FNV-1a, 64-bit

// step counts one executed event and folds its ordering key.
func (e *Env) step(t Time, seq uint64) {
	e.steps++
	e.fp = ((e.fp^uint64(t))*fpPrime ^ seq) * fpPrime
}

// FPBasis is the value a fingerprint folded with Mix starts from.
const FPBasis uint64 = fpBasis

// Mix folds one word into a fingerprint: an xor and a multiply by the
// 64-bit FNV prime, as the event fingerprint does, then a rotation, so
// that a change in a word's high bits reaches the low bits of the
// result too (a product's high bits never reach its low ones). Each
// step is a bijection in h and in w: one changed word always changes
// the result, and two words swapped change it but for a collision.
// The model logs (fabric.Endpoint, nic.NIC) and everything folding
// them fold with it.
func Mix(h, w uint64) uint64 { return bits.RotateLeft64((h^w)*fpPrime, 29) }

// Switches reports how many coroutine switches (into a carrier or back
// out of one) the environment has made so far. It is at most twice the
// number of process wake-ups; see the package comment.
func (e *Env) Switches() uint64 { return e.switches }

// PoolStats reports how many event allocations were served from the
// recycle pool (hits) versus fresh allocations (misses). In steady
// state hits dominate: the pool high-water mark is the peak number of
// simultaneously pending events.
func (e *Env) PoolStats() (hits, misses uint64) { return e.poolHits, e.poolMisses }

// ---------------------------------------------------------- event pool

// alloc returns a clean event, recycling from the pool when possible.
func (e *Env) alloc() *event {
	if ev, ok := e.events.Get(); ok {
		e.poolHits++
		return ev
	}
	e.poolMisses++
	return &event{env: e, index: -1}
}

// recycle returns an executed or cancelled event to the pool. The
// generation bump invalidates every Timer still holding this event.
func (e *Env) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.argFn = nil, nil
	ev.a, ev.b = 0, 0
	ev.dead = false
	ev.index = -1
	e.events.Put(ev)
}

// ---------------------------------------------------------- scheduling

// Timer is a handle to a scheduled callback; it can be cancelled
// before it fires. Timers snapshot the event's generation, so holding
// a Timer past its firing is safe even though the underlying event
// object is recycled for later schedules. The zero Timer is a timer
// that was never armed: Cancel reports false.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from running. It reports
// whether the callback was still pending (false if it already ran,
// was already cancelled, or the environment was closed when the timer
// was created). A cancelled timer leaves the event queue at once (see
// eventQueue for the one exception, which is gone before the clock
// moves): it does not count against Idle and holds no pooled event.
func (t Timer) Cancel() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return false
	}
	e := ev.env
	if e.closed {
		// Close dropped the queue with this event in it: there is nothing
		// to take out, only the answer to keep straight.
		pending := !ev.dead
		ev.dead = true
		return pending
	}
	removed, recycle := e.q.remove(ev)
	if recycle {
		e.recycle(ev)
	}
	return removed
}

// schedule books a pooled event at absolute time t. Callers have
// already handled the closed and in-the-past checks.
func (e *Env) schedule(t Time) *event {
	e.seq++
	ev := e.alloc()
	ev.t = t
	ev.seq = e.seq
	e.q.push(ev, e.now)
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: the model has a bug. Scheduling on a closed environment is
// an explicit no-op — the callback is dropped and the returned
// Timer's Cancel reports false —
// mirroring how After still panics on a negative delay even when the
// environment is closed (a bad duration is a model bug regardless of
// lifecycle; a late schedule during teardown is not).
func (e *Env) At(t Time, fn func()) Timer {
	if e.closed {
		return Timer{}
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := e.schedule(t)
	ev.fn = fn
	return Timer{ev: ev, gen: ev.gen}
}

// AtArg schedules an arg-carrying event: at time t, fn(a, b) runs.
// Passing a long-lived function value (a field initialized once, not a
// fresh closure) makes the call allocation-free — the two words ride
// in the pooled event itself. This is the scheduling form for hot
// paths that are run-to-completion state machines rather than
// sequential programs: the fabric moves every packet as a chain of
// AtArg events (fabric.Network), and Resource.AcquireFn, Queue.RecvFn,
// Queue.SendFn and Cond.WaitFn resume a queued continuation the same
// way. Closed environments drop the event exactly like At.
func (e *Env) AtArg(t Time, fn func(a, b uint64), a, b uint64) {
	if e.closed {
		return
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := e.schedule(t)
	ev.argFn = fn
	ev.a, ev.b = a, b
}

// After schedules fn to run d nanoseconds from now. A negative delay
// panics even on a closed environment (see At).
func (e *Env) After(d Time, fn func()) Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now+d, fn)
}

// Run executes events until the queue is empty and returns the final
// virtual time.
func (e *Env) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps <= deadline and returns the
// virtual time after the last executed event (or deadline if events
// remain; cancelled timers do not). Events at exactly the deadline do
// run. A deadline at or before the current time never moves the clock
// backwards: repeated calls with a non-advancing deadline execute any
// events at the deadline instant and are otherwise no-ops. A process
// that is blocked when the deadline is reached resumes, at a later
// call, exactly where it stopped. RunUntil may not be called from inside
// the simulation.
func (e *Env) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: RunUntil called from a process body or an event callback")
	}
	e.running, e.deadline = true, deadline
	defer e.settle()
	e.drive(nil)
	return e.now
}

// settle ends a RunUntil once the driving stack has unwound to its
// caller: it finishes a Close issued inside the run and re-raises a
// panic caught on a carrier. Deferred, so that it also runs when the
// caller's goroutine is ended by a body's runtime.Goexit.
func (e *Env) settle() {
	e.running = false
	if e.closed {
		e.Close()
	} else {
		e.halt = false
	}
	if r := e.failure; r != nil {
		e.failure = nil
		panic(r)
	}
}

// fail records a panic that left a process body or an event callback on
// a carrier and halts the run, so that the stack unwinds to RunUntil by
// ordinary yields instead of through other processes' frames.
func (e *Env) fail(r any) {
	if e.failure == nil {
		e.failure = r
	}
	e.halt = true
}

// undrive is deferred by drive on a carrier. A callback that panics
// there is not the driving body's to unwind (or to recover): it goes to
// RunUntil like a body's own panic, and the driver yields, still parked.
func (e *Env) undrive(self *Proc) {
	self.driving = false
	if r := recover(); r != nil {
		e.fail(r)
	}
}

// drive is the event loop: it pops and runs events on the calling
// goroutine until the next thing to happen belongs to a lower level of
// the driving stack. RunUntil calls it with self == nil; a process that
// blocks calls it from park and so keeps the simulation going on its
// own carrier. It reports whether it executed self's own wake-up. On
// false a process must yield: woken names a process lower on the stack
// or halt is set, and the level below, back from next, re-checks both.
func (e *Env) drive(self *Proc) (woken bool) {
	if self != nil {
		self.driving = true
		defer e.undrive(self)
	}
	for e.woken == nil && !e.halt {
		t, ok := e.q.peek(e.now)
		if !ok {
			e.halt = true
			break
		}
		if t > e.deadline {
			if e.deadline > e.now {
				e.now = e.deadline
			}
			e.halt = true
			break
		}
		ev := e.q.pop(e.now)
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.now = t
		e.step(t, ev.seq)
		if e.steps%yieldEvery == 0 {
			runtime.Gosched() // let a mark worker run: see yieldEvery
		}
		// Copy the dispatch fields and recycle before running: the
		// callback may schedule new events and immediately reuse this
		// object. Outstanding Timers see the generation bump.
		if ev.argFn != nil {
			fn, a, b := ev.argFn, ev.a, ev.b
			e.recycle(ev)
			fn(a, b)
		} else {
			fn := ev.fn
			e.recycle(ev)
			fn()
		}
	}
	if self != nil && e.woken == self {
		e.woken = nil
		return true
	}
	return false
}

// Idle reports whether no events are pending. A cancelled timer is not
// pending: it left the queue when it was cancelled.
func (e *Env) Idle() bool { return e.q.len() == 0 }

// Close terminates the simulation: pending events are dropped, every
// process parked in a blocking call is unwound (the call panics with a
// private sentinel that the process trampoline recovers, so the body's
// deferred functions run) and every carrier goroutine exits. A process
// that never started holds no carrier and needs no unwinding. After
// Close, scheduling calls are counted no-ops (see At) and the
// environment must not otherwise be used.
//
// Close may be called from an event callback or a process body. The
// caller may then be standing on one of the carriers Close has to stop,
// so inside a run Close only drops the events and halts: nothing
// further executes, the driving stack unwinds to RunUntil, and the
// carriers are torn down there, before RunUntil returns.
func (e *Env) Close() {
	e.closed, e.halt = true, true
	closedSinceNewEnv.Store(true)
	e.q, e.events = eventQueue{}, FreeList[*event]{}
	if e.running {
		return // settle calls again from the bottom of the stack
	}
	for _, c := range e.carriers {
		c.stop() // a parked process sees its yield fail and unwinds
	}
	e.carriers, e.idle = nil, FreeList[*carrier]{}
}

// wake gives the CPU to p, whose wake-up event is executing. If p is on
// the driving stack (the driver itself, or lower) that is a note for
// drive and no switch; otherwise control transfers into p's carrier and
// comes back when p, having blocked and driven in its turn, yields or
// its body ends. An event callback wakes at most one process, as its
// last act.
func (e *Env) wake(p *Proc) {
	if p.driving {
		e.woken = p
		return
	}
	if p.c == nil {
		e.start(p)
	}
	e.switches++
	p.c.next()
}
