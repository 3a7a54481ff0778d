package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestRecvFnSharesTheLineWithProcesses: continuations and parked
// processes wait in one line and are served in arrival order; an item
// already buffered is taken inline; and serving a continuation costs the
// one event a process wake-up costs.
func TestRecvFnSharesTheLineWithProcesses(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q", 0)
	var got []string
	var fn func(a, b uint64)
	fn = func(a, _ uint64) {
		v, ok := q.RecvFn(fn, a, 0)
		if !ok {
			t.Errorf("fn%d woken with nothing to take", a)
			return
		}
		got = append(got, fmt.Sprintf("fn%d:%d@%d", a, v, env.Now()))
	}
	for i := 1; i <= 4; i++ {
		if i%2 == 1 {
			env.GoAt(Time(i), fmt.Sprintf("p%d", i), func(p *Proc) {
				v := q.Recv(p)
				got = append(got, fmt.Sprintf("p%d:%d@%d", i, v, p.Now()))
			})
		} else {
			env.At(Time(i), func() {
				if _, ok := q.RecvFn(fn, uint64(i), 0); ok {
					t.Errorf("fn%d took from an empty queue", i)
				}
			})
		}
	}
	env.RunUntil(10)
	before := env.Steps()
	for v := 1; v <= 4; v++ {
		q.Post(v * 10)
	}
	env.RunUntil(20)
	if want := "[p1:10@4 fn2:20@4 p3:30@4 fn4:40@4]"; fmt.Sprint(got) != want {
		t.Fatalf("served %v, want %s", got, want)
	}
	if n := env.Steps() - before; n != 4 {
		t.Fatalf("%d events to serve four receivers, want 4", n)
	}
	q.Post(50)
	if v, ok := q.RecvFn(fn, 9, 0); !ok || v != 50 {
		t.Fatalf("RecvFn on a buffered item = %d, %v; want 50 inline", v, ok)
	}
}

// TestSendFnSharesTheLineWithProcesses: on a full bounded queue,
// blocked senders and queued continuations are one FIFO; each receive
// that makes room pushes the next waiter's value and resumes that
// waiter from one event.
func TestSendFnSharesTheLineWithProcesses(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q", 1)
	q.Post(0)
	var got []string
	fn := func(a, _ uint64) { got = append(got, fmt.Sprintf("fn%d@%d", a, env.Now())) }
	for i := 1; i <= 4; i++ {
		if i%2 == 1 {
			env.GoAt(Time(i), fmt.Sprintf("p%d", i), func(p *Proc) {
				q.Send(p, i*10)
				got = append(got, fmt.Sprintf("p%d@%d", i, p.Now()))
			})
		} else {
			env.At(Time(i), func() {
				if q.SendFn(i*10, fn, uint64(i), 0) {
					t.Errorf("fn%d sent into a full queue", i)
				}
			})
		}
	}
	env.RunUntil(10)
	var vals []int
	env.GoAt(15, "receiver", func(p *Proc) {
		for range 5 {
			vals = append(vals, q.Recv(p))
		}
	})
	before := env.Steps()
	env.RunUntil(20)
	if fmt.Sprint(vals) != "[0 10 20 30 40]" {
		t.Fatalf("received %v, want [0 10 20 30 40]", vals)
	}
	if want := "[p1@15 fn2@15 p3@15 fn4@15]"; fmt.Sprint(got) != want {
		t.Fatalf("resumed %v, want %s", got, want)
	}
	if n := env.Steps() - before; n != 5 {
		t.Fatalf("%d events to receive and resume four senders, want 5", n)
	}
	if !q.SendFn(50, fn, 9, 0) || q.Len() != 1 {
		t.Fatal("SendFn into an empty queue did not enqueue inline")
	}
}

// TestCondWaitFnSharesTheLineWithProcesses: parked processes and
// continuations wait on one Cond in one FIFO. A Broadcast wakes each
// from one event, in the order they joined, and only those that were
// waiting when it was called.
func TestCondWaitFnSharesTheLineWithProcesses(t *testing.T) {
	env := NewEnv(1)
	c := NewCond(env)
	var got []string
	fn := func(a, _ uint64) { got = append(got, fmt.Sprintf("fn%d@%d", a, env.Now())) }
	for i := 1; i <= 4; i++ {
		if i%2 == 1 {
			env.GoAt(Time(i), fmt.Sprintf("p%d", i), func(p *Proc) {
				c.Wait(p)
				got = append(got, fmt.Sprintf("p%d@%d", i, p.Now()))
			})
		} else {
			env.At(Time(i), func() { c.WaitFn(fn, uint64(i), 0) })
		}
	}
	env.RunUntil(10)
	before := env.Steps()
	env.At(15, func() {
		c.Broadcast()
		c.WaitFn(fn, 9, 0) // joins after the broadcast: stays queued
	})
	env.RunUntil(20)
	if want := "[p1@15 fn2@15 p3@15 fn4@15]"; fmt.Sprint(got) != want {
		t.Fatalf("woke %v, want %s", got, want)
	}
	if n := env.Steps() - before; n != 5 {
		t.Fatalf("%d events to broadcast to four waiters, want 5", n)
	}
	if c.waiters.Len() != 1 {
		t.Fatalf("%d waiters left, want the one that joined after the broadcast", c.waiters.Len())
	}
}

// TestRecvFnSkipsStaleTimeoutRecords: a receiver that timed out leaves
// its record in the line; the next item goes past it to the
// continuation behind it.
func TestRecvFnSkipsStaleTimeoutRecords(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q", 0)
	timedOut := false
	env.Go("impatient", func(p *Proc) {
		_, ok := q.RecvTimeout(p, 5)
		timedOut = !ok
	})
	env.RunUntil(1)
	var got []int
	var fn func(a, b uint64)
	fn = func(uint64, uint64) {
		if v, ok := q.RecvFn(fn, 0, 0); ok {
			got = append(got, v)
		}
	}
	fn(0, 0)
	env.RunUntil(10)
	if !timedOut || q.recvWait.Len() != 2 {
		t.Fatalf("timed out %v, %d records in line; want true and 2 (one stale)", timedOut, q.recvWait.Len())
	}
	q.Post(7)
	env.Run()
	if !slices.Equal(got, []int{7}) || q.recvWait.Len() != 0 {
		t.Fatalf("continuation got %v, %d records left; want [7] and 0", got, q.recvWait.Len())
	}
}

// TestCloseDropsPendingContinuation: a continuation a push has already
// scheduled does not run once the environment is closed, nor does one
// still waiting in line.
func TestCloseDropsPendingContinuation(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q", 0)
	ran := 0
	fn := func(uint64, uint64) { ran++ }
	q.RecvFn(fn, 0, 0)
	q.RecvFn(fn, 1, 0)
	q.Post(1) // schedules the first continuation
	env.Close()
	q.Post(2) // would schedule the second
	env.Run()
	if ran != 0 {
		t.Fatalf("%d continuations ran after Close", ran)
	}
}

// TestAwaitTakesTheWakeUpsPlace: a process waiting on an event-driven
// operation is resumed by the event that finishes it, the one its own
// wake-up would have been, so a Sleep and an Await on one AtArg execute
// the same events in the same order. An operation finished inline costs
// nothing.
func TestAwaitTakesTheWakeUpsPlace(t *testing.T) {
	run := func(wait func(p *Proc, d Time)) (uint64, uint64, string) {
		env := NewEnv(1)
		var log []string
		for i := 0; i < 3; i++ {
			env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 1; j <= 3; j++ {
					wait(p, Time(i+j))
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
			})
		}
		env.Run()
		return env.Steps(), env.Fingerprint(), fmt.Sprint(log)
	}
	s1, f1, l1 := run(func(p *Proc, d Time) { p.Sleep(d) })
	s2, f2, l2 := run(func(p *Proc, d Time) {
		p.Await(func(k func(a, b uint64)) bool {
			p.env.AtArg(p.Now()+d, k, 0, 0)
			return false
		})
	})
	if s1 != s2 || f1 != f2 || l1 != l2 {
		t.Fatalf("Sleep: %d events, fingerprint %x, %s\nAwait: %d events, fingerprint %x, %s", s1, f1, l1, s2, f2, l2)
	}
	env := NewEnv(1)
	env.Go("inline", func(p *Proc) {
		p.Await(func(func(a, b uint64)) bool { return true })
	})
	env.Run()
	if env.Steps() != 1 {
		t.Fatalf("%d events for an inline Await, want 1 (the start)", env.Steps())
	}
}

// TestFingerprintFoldsEveryEvent: an in-place Sleep folds the key its
// event would have had; the same events in another order, or at other
// times, fold to another fingerprint.
func TestFingerprintFoldsEveryEvent(t *testing.T) {
	sleeper := NewEnv(1)
	sleeper.Go("s", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(5) // nothing else pending: taken in place
		}
	})
	sleeper.Run()
	booked := NewEnv(1)
	booked.AtArg(0, func(uint64, uint64) {
		var next func(a, b uint64)
		next = func(a, _ uint64) {
			if a < 3 {
				booked.AtArg(booked.Now()+5, next, a+1, 0)
			}
		}
		next(0, 0)
	}, 0, 0)
	booked.Run()
	if sleeper.Steps() != 4 || sleeper.Fingerprint() != booked.Fingerprint() {
		t.Fatalf("in-place sleeps: %d steps, fingerprint %x; booked events: %d, %x",
			sleeper.Steps(), sleeper.Fingerprint(), booked.Steps(), booked.Fingerprint())
	}
	order := func(first, second Time) uint64 {
		env := NewEnv(1)
		env.At(first, func() {})
		env.At(second, func() {})
		env.Run()
		return env.Fingerprint()
	}
	if order(1, 2) == order(2, 1) || order(1, 2) == order(1, 3) {
		t.Fatal("fingerprint blind to event order or time")
	}
}

// Queue program opcodes (checkQueueModel). Each op is followed by a run
// of every event at the current instant, except qAdvance, which moves
// the clock.
const (
	qProc      = iota // a process receiving up to count items, each with RecvTimeout(wait) if wait > 0
	qCallback         // a continuation receiving up to count items
	qPost             // the test itself posts count items
	qSender           // a process sends count items
	qAdvance          // run for wait ticks
	qPostClose        // post one item and close at once
	qOps
)

// queueModel is the receive discipline the Queue and its receivers must
// follow, with no events in it: items in a FIFO, receivers in one line,
// each push claiming the oldest receiver still waiting; claimed
// receivers run in claim order and take the oldest item there is then,
// or get back in line behind everyone if another took it first.
type queueModel struct {
	now     Time
	buf     []int
	recvs   []*modelRecv
	line    []*modelRecv
	claimed []*modelRecv
	log     []string
	closed  bool
}

type modelRecv struct {
	id       int
	left     int
	wait     Time // a process's RecvTimeout, 0 for none
	deadline Time
	timedOut bool
}

// want runs receiver r until it has what it came for or must wait.
func (m *queueModel) want(r *modelRecv) {
	for r.left > 0 {
		if len(m.buf) > 0 {
			m.log = append(m.log, fmt.Sprintf("r%d:%d@%d", r.id, m.buf[0], m.now))
			m.buf = m.buf[1:]
			r.left--
			r.deadline = m.now + r.wait
			continue
		}
		if r.wait > 0 && m.now >= r.deadline {
			r.timedOut = true
			return
		}
		m.line = append(m.line, r)
		return
	}
}

func (m *queueModel) push(v int) {
	m.buf = append(m.buf, v)
	if len(m.line) > 0 {
		m.claimed = append(m.claimed, m.line[0])
		m.line = m.line[1:]
	}
}

func (m *queueModel) settle() {
	for len(m.claimed) > 0 {
		r := m.claimed[0]
		m.claimed = m.claimed[1:]
		m.want(r)
	}
}

func (m *queueModel) advance(to Time) {
	m.now = to
	m.line = slices.DeleteFunc(m.line, func(r *modelRecv) bool {
		r.timedOut = r.wait > 0 && r.deadline <= to
		return r.timedOut
	})
}

// checkQueueModel replays a program, two bytes an op (opcode, then an
// argument giving a count of 1–3 and a wait of 0–15 ticks), against a
// Queue with process and continuation receivers, and against
// queueModel: the items each receiver got, in serving order, which
// receivers timed out, and what is left buffered must agree.
func checkQueueModel(t *testing.T, prog []byte) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env, "q", 0)
	m := &queueModel{}
	var log []string
	var left []int
	timedOut := map[int]bool{}
	next := 0
	item := func() int { next++; return next }
	var fn func(a, b uint64)
	fn = func(a, _ uint64) {
		for ; left[a] > 0; left[a]-- {
			v, ok := q.RecvFn(fn, a, 0)
			if !ok {
				return
			}
			log = append(log, fmt.Sprintf("r%d:%d@%d", a, v, env.Now()))
		}
	}
	for step := 0; step+1 < len(prog) && !m.closed; step += 2 {
		op, count, wait := int(prog[step])%qOps, 1+int(prog[step+1])%3, Time(prog[step+1]/3%16)
		switch op {
		case qProc, qCallback:
			id := len(m.recvs)
			r := &modelRecv{id: id, left: count}
			if op == qProc {
				r.wait, r.deadline = wait, env.Now()+wait
			}
			m.recvs = append(m.recvs, r)
			left = append(left, count)
			m.want(r)
			if op == qCallback {
				fn(uint64(id), 0)
				continue // nothing new to run
			}
			env.Go(fmt.Sprintf("r%d", id), func(p *Proc) {
				for i := 0; i < count; i++ {
					v, ok := 0, true
					if wait > 0 {
						v, ok = q.RecvTimeout(p, wait)
					} else {
						v = q.Recv(p)
					}
					if !ok {
						timedOut[id] = true
						return
					}
					log = append(log, fmt.Sprintf("r%d:%d@%d", id, v, p.Now()))
				}
			})
		case qPost, qSender:
			vs := make([]int, count)
			for i := range vs {
				vs[i] = item()
				m.push(vs[i])
			}
			if op == qSender {
				env.Go("sender", func(p *Proc) {
					for _, v := range vs {
						q.Send(p, v)
					}
				})
				break
			}
			for _, v := range vs {
				q.Post(v)
			}
		case qAdvance:
			env.RunUntil(env.Now() + wait)
			m.advance(env.Now())
			continue
		case qPostClose:
			v := item()
			m.push(v)
			q.Post(v)
			env.Close()
			m.closed = true
			continue
		}
		env.RunUntil(env.Now())
		m.settle()
	}
	if got, want := fmt.Sprint(log), fmt.Sprint(m.log); got != want {
		t.Fatalf("program %v served\n  %s\nmodel\n  %s", prog, got, want)
	}
	for _, r := range m.recvs {
		if timedOut[r.id] != r.timedOut {
			t.Fatalf("program %v: receiver %d timed out %v, model %v", prog, r.id, timedOut[r.id], r.timedOut)
		}
	}
	if q.Len() != len(m.buf) {
		t.Fatalf("program %v leaves %d items buffered, model %d", prog, q.Len(), len(m.buf))
	}
}

// queueCases exercise the line: steals by a receiver that loops back
// for more, timeouts leaving stale records, a sender process, and a
// close with a continuation scheduled.
var queueCases = [][]byte{
	{qCallback, 2, qProc, 0, qPost, 1},                      // two receivers, two items: served in line order
	{qCallback, 1, qProc, 1, qPost, 2},                      // the looping continuation takes the second item first
	{qProc, 3 * 5, qAdvance, 3 * 9, qCallback, 0, qPost, 0}, // a timed-out record is skipped
	{qProc, 3*4 + 2, qPost, 0, qAdvance, 3 * 2, qAdvance, 3 * 5, qPost, 0},
	{qSender, 2, qProc, 2, qCallback, 2, qSender, 1},
	{qCallback, 0, qProc, 0, qPostClose, 0, qPost, 0},
}

// TestQueueMatchesModel replays the cases and 2 000 random programs.
func TestQueueMatchesModel(t *testing.T) {
	for _, prog := range queueCases {
		checkQueueModel(t, prog)
	}
	rng := NewRand(32)
	for i := 0; i < 2000; i++ {
		prog := make([]byte, 2*(1+rng.Intn(24)))
		rng.Fill(prog)
		checkQueueModel(t, prog)
	}
}

func FuzzQueue(f *testing.F) {
	for _, prog := range queueCases {
		f.Add(prog)
	}
	f.Fuzz(checkQueueModel)
}
