package sim

import "testing"

// BenchmarkHeapPushPop measures raw event-queue churn: schedule and
// drain batches of events with scattered timestamps. With the pooled
// hand-rolled heap this is allocation-free in steady state.
func BenchmarkHeapPushPop(b *testing.B) {
	e := NewEnv(1)
	nop := func() {}
	const batch = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := Time(0); j < batch; j++ {
			// Scattered offsets exercise sift-up/down, not just FIFO.
			e.at(base+(j*37)%batch+1, nop)
		}
		e.RunUntil(base + batch)
	}
	b.StopTimer()
	hits, misses := e.PoolStats()
	b.ReportMetric(float64(hits)/float64(hits+misses)*100, "pool-hit-%")
}

// BenchmarkWakeSoonHandoff measures the scheduler<->process handoff:
// each iteration is one zero-length sleep, i.e. one wakeSoon event plus
// a coroutine switch each way.
func BenchmarkWakeSoonHandoff(b *testing.B) {
	e := NewEnv(1)
	b.ReportAllocs()
	done := make(chan struct{})
	e.Go("bench", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(0)
		}
		b.StopTimer()
		close(done)
	})
	e.Run()
	<-done
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
