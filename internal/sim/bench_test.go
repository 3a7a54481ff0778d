package sim

import (
	"fmt"
	"testing"
)

// BenchmarkHeapPushPop measures one event through the heap, schedule to
// dispatch, with a fixed number of others pending: each of `pending`
// callbacks books itself again at a scattered later time, so every pop
// is followed by one push and the depth never changes (the "hold"
// model). The simulator's own depths run from 2 (a ping-pong) to 60 (70
// MPI ranks) once cancelled timers no longer sit in the heap.
// Allocation-free in steady state.
func BenchmarkHeapPushPop(b *testing.B) {
	for _, pending := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			holdBench(b, pending, func(chain, n uint64) Time { return 1 + Time((chain*37+n*17)%uint64(2*pending)) })
		})
	}
}

// BenchmarkZeroDelayEvent is the same with every event booked for the
// current instant, as wake-ups and continuations are: four chains, so
// the FIFO ring holds three entries at each pop.
func BenchmarkZeroDelayEvent(b *testing.B) {
	holdBench(b, 4, func(chain, n uint64) Time { return 0 })
}

// holdBench runs b.N events, chains of them pending at any time; after
// is how far ahead the n-th event of the run books its chain's next.
func holdBench(b *testing.B, chains int, after func(chain, n uint64) Time) {
	e := NewEnv(1)
	var n uint64
	var fn func(chain, _ uint64)
	fn = func(chain, _ uint64) {
		if n++; n+uint64(chains) <= uint64(b.N) {
			e.AtArg(e.Now()+after(chain, n), fn, chain, 0)
		}
	}
	for c := 0; c < min(chains, b.N); c++ {
		e.AtArg(after(uint64(c), 0), fn, uint64(c), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if n != uint64(b.N) {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
	hits, misses := e.PoolStats()
	b.ReportMetric(float64(hits)/float64(hits+misses)*100, "pool-hit-%")
}

// sleepBench runs b.N iterations of step inside one process.
func sleepBench(b *testing.B, step func(e *Env, p *Proc)) {
	e := NewEnv(1)
	b.ReportAllocs()
	e.Go("bench", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(e, p)
		}
		b.StopTimer()
	})
	e.Run()
	b.ReportMetric(float64(e.Switches())/float64(b.N), "switches/op")
	e.Close()
}

// BenchmarkWakeSoonHandoff is one zero-length sleep per iteration with
// nothing else pending. It used to be the price of a handoff (a
// wakeSoon event and a coroutine switch each way); the sleeper now
// takes its own wake-up in place, so this is the floor a handoff can
// fall to.
func BenchmarkWakeSoonHandoff(b *testing.B) {
	sleepBench(b, func(e *Env, p *Proc) { p.Sleep(0) })
}

// BenchmarkSleepAlone: a timed sleep with nothing due before its
// wake-up, the in-place path.
func BenchmarkSleepAlone(b *testing.B) {
	sleepBench(b, func(e *Env, p *Proc) { p.Sleep(10) })
}

// BenchmarkSleepBehindTimer: an earlier event is pending, so the sleep
// takes the ordinary path — schedule, park, and the sleeper pops both
// events on its own carrier: two events, no switch.
func BenchmarkSleepBehindTimer(b *testing.B) {
	nop := func(a, b uint64) {}
	sleepBench(b, func(e *Env, p *Proc) {
		e.AtArg(e.Now()+5, nop, 0, 0)
		p.Sleep(10)
	})
}

// BenchmarkProcPingPong is one item across a queue and one back between
// two processes: four events and two wake-ups of a process that is not
// the one driving, one switch each.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEnv(1)
	ping, pong := NewQueue[int](e, "ping", 1), NewQueue[int](e, "pong", 1)
	b.ReportAllocs()
	e.Go("a", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
		b.StopTimer()
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Send(p, ping.Recv(p))
		}
	})
	e.Run()
	b.ReportMetric(float64(e.Switches())/float64(b.N), "switches/op")
	e.Close()
}

// BenchmarkGoAndFinish measures a short-lived process from Go to the
// end of its body, the life of a per-interrupt or per-job process: one
// start event, one sleep, and (after the first iteration) a recycled
// carrier.
func BenchmarkGoAndFinish(b *testing.B) {
	e := NewEnv(1)
	body := func(p *Proc) { p.Sleep(1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Go("short", body)
		e.Run()
	}
}

// BenchmarkTimerCancelChurn measures the schedule-then-cancel pattern
// that timeout guards produce (Queue.RecvTimeout, retransmit timers):
// most timers are cancelled before firing and their dead events must be
// skipped and recycled cheaply.
func BenchmarkTimerCancelChurn(b *testing.B) {
	e := NewEnv(1)
	nop := func() {}
	const batch = 64
	b.ReportAllocs()
	var timers [batch]Timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := range timers {
			timers[j] = e.At(base+Time(j)+1, nop)
		}
		// Cancel three quarters; the rest fire.
		for j := range timers {
			if j%4 != 0 {
				timers[j].Cancel()
			}
		}
		e.RunUntil(base + batch)
	}
}
