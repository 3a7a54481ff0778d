package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// orderScenario runs a fixed mix of the blocking primitives and logs
// (time, proc, step) every time a process gets the CPU back. The log is
// the kernel's event-order contract in miniature: zero-length sleeps
// interleaving at one timestamp, a RecvTimeout racing a Post at its
// deadline (once with the Post scheduled first, once with the timer
// first), a bounded queue pushing back on two producers, and FIFO
// admission to a two-unit resource with a head-of-line blocker.
func orderScenario() string {
	env := NewEnv(7)
	var log strings.Builder
	mark := func(p *Proc, step string) {
		fmt.Fprintf(&log, "%d %s %s\n", p.Now(), p.name, step)
	}

	// Zero-length sleeps: three procs at t=0, each yielding twice.
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("zero%d", i), func(p *Proc) {
			mark(p, "start")
			p.Sleep(0)
			mark(p, "yield1")
			p.Sleep(0)
			mark(p, "yield2")
		})
	}

	// Timeout races. postFirst's Post event is booked before its
	// receiver arms the timer, so the sender wins the tie at t=50;
	// timerFirst's receiver arms at t=0 and the Post is booked later
	// (from an event at t=10), so the timer wins and the item stays.
	postFirst := NewQueue[int](env, "postFirst", 0)
	env.At(50, func() { postFirst.Post(1) })
	env.Go("racePost", func(p *Proc) {
		v, ok := postFirst.RecvTimeout(p, 50)
		mark(p, fmt.Sprintf("recv %d %v", v, ok))
	})
	timerFirst := NewQueue[int](env, "timerFirst", 0)
	env.Go("raceTimer", func(p *Proc) {
		v, ok := timerFirst.RecvTimeout(p, 50)
		mark(p, fmt.Sprintf("recv %d %v", v, ok))
		v, ok = timerFirst.RecvTimeout(p, 50) // the item the timer beat
		mark(p, fmt.Sprintf("recv %d %v", v, ok))
		// A second timeout leaves a stale waiter record ahead of the
		// live one; the next Post must skip it and still wake us.
		v, ok = timerFirst.RecvTimeout(p, 20)
		mark(p, fmt.Sprintf("recv %d %v", v, ok))
		v = timerFirst.Recv(p)
		mark(p, fmt.Sprintf("recv %d", v))
	})
	env.At(10, func() { env.At(50, func() { timerFirst.Post(2) }) })
	env.At(120, func() { timerFirst.Post(3) })

	// Two receivers on one queue, one item: the first waiter gets it,
	// the second times out.
	shared := NewQueue[int](env, "shared", 0)
	for i := 0; i < 2; i++ {
		env.Go(fmt.Sprintf("shared%d", i), func(p *Proc) {
			v, ok := shared.RecvTimeout(p, 30)
			mark(p, fmt.Sprintf("recv %d %v", v, ok))
		})
	}
	env.At(20, func() { shared.Post(9) })

	// Back-pressure: two producers into a 2-slot queue, a slow consumer.
	bounded := NewQueue[int](env, "bounded", 2)
	for i := 0; i < 2; i++ {
		env.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				bounded.Send(p, i*10+j)
				mark(p, fmt.Sprintf("sent %d", i*10+j))
			}
		})
	}
	env.Go("cons", func(p *Proc) {
		for j := 0; j < 8; j++ {
			p.Sleep(7)
			mark(p, fmt.Sprintf("got %d", bounded.Recv(p)))
		}
	})

	// Resource FIFO: u1 wants both units and blocks u2 behind it even
	// though one unit is free.
	res := NewResource(env, "res", 2)
	for i, want := range []int{1, 2, 1, 1} {
		env.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
			p.Sleep(Time(i))
			res.Acquire(p, want)
			mark(p, fmt.Sprintf("acquired %d", want))
			p.Sleep(10)
			res.Release(want)
		})
	}

	// Join and Cond ride along: a waiter released by a finished proc,
	// two cond waiters released by one broadcast.
	worker := env.Go("worker", func(p *Proc) { p.Sleep(33) })
	env.Go("joiner", func(p *Proc) {
		p.Join(worker.Done())
		mark(p, "joined")
	})
	cond := NewCond(env)
	for i := 0; i < 2; i++ {
		env.Go(fmt.Sprintf("cw%d", i), func(p *Proc) {
			cond.Wait(p)
			mark(p, "released")
		})
	}
	env.At(40, cond.Broadcast)

	env.Run()
	fmt.Fprintf(&log, "end %d steps %d\n", env.Now(), env.Steps())
	env.Close()
	return log.String()
}

// TestGoldenWakeOrder compares the scenario's wake log with the one the
// channel-handoff kernel produced (testdata/wake_order.golden was
// generated on the commit before processes became coroutines). Any
// difference means a primitive books its wake-ups in a different order,
// which every baseline and model digest would feel.
func TestGoldenWakeOrder(t *testing.T) {
	want, err := os.ReadFile("testdata/wake_order.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := orderScenario(); got != string(want) {
		t.Fatalf("wake order changed.\n--- got\n%s--- want\n%s", got, want)
	}
}
