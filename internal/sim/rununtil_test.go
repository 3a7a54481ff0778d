package sim

import "testing"

// Events stamped exactly at the deadline run; events one tick past it
// stay queued and the clock parks at the deadline.
func TestRunUntilDeadlineExactEventsRun(t *testing.T) {
	e := NewEnv(1)
	var fired []Time
	for _, at := range []Time{50, 100, 101} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if got := e.RunUntil(100); got != 100 {
		t.Fatalf("RunUntil(100) = %d, want 100", got)
	}
	if len(fired) != 2 || fired[0] != 50 || fired[1] != 100 {
		t.Fatalf("fired = %v, want [50 100]", fired)
	}
	if e.Idle() {
		t.Fatalf("event at 101 must remain queued")
	}
	e.Run()
	if len(fired) != 3 || fired[2] != 101 {
		t.Fatalf("fired = %v after Run, want [50 100 101]", fired)
	}
}

// Repeated RunUntil calls with a non-advancing (or smaller) deadline
// are no-ops that never move the clock backwards.
func TestRunUntilNonAdvancingDeadline(t *testing.T) {
	e := NewEnv(1)
	e.At(10, func() {})
	e.At(500, func() {})
	if got := e.RunUntil(200); got != 200 {
		t.Fatalf("RunUntil(200) = %d, want 200", got)
	}
	// Same deadline again: nothing to do, clock holds.
	if got := e.RunUntil(200); got != 200 {
		t.Fatalf("repeated RunUntil(200) = %d, want 200", got)
	}
	// A smaller deadline must not rewind the clock.
	if got := e.RunUntil(100); got != 200 {
		t.Fatalf("RunUntil(100) after reaching 200 = %d, want 200 (no rewind)", got)
	}
	if e.Now() != 200 {
		t.Fatalf("Now = %d, want 200", e.Now())
	}
	e.Run()
	if e.Now() != 500 {
		t.Fatalf("Now = %d after Run, want 500", e.Now())
	}
}

// RunUntil on an empty queue leaves the clock where the last event put
// it: time does not flow past the final event just because a deadline
// was named.
func TestRunUntilEmptyQueueHoldsClock(t *testing.T) {
	e := NewEnv(1)
	e.At(30, func() {})
	if got := e.RunUntil(1000); got != 30 {
		t.Fatalf("RunUntil(1000) with last event at 30 = %d, want 30", got)
	}
}

// Steps counts executed events only: cancelled events and dead pops
// must not inflate it, across interleaved RunUntil windows.
func TestStepsExcludesCancelledAcrossWindows(t *testing.T) {
	e := NewEnv(1)
	var timers []Timer
	for i := Time(1); i <= 10; i++ {
		timers = append(timers, e.At(i*10, func() {}))
	}
	// Cancel the odd-indexed half: some before the first window, some
	// between windows.
	timers[1].Cancel()
	timers[3].Cancel()
	e.RunUntil(50) // events at 10,20,30,40,50; 20 and 40 cancelled
	if got := e.Steps(); got != 3 {
		t.Fatalf("Steps = %d after first window, want 3", got)
	}
	timers[5].Cancel() // event at 60, not yet run
	timers[7].Cancel() // event at 80
	e.Run()
	if got := e.Steps(); got != 6 {
		t.Fatalf("Steps = %d after full run, want 6 (10 scheduled - 4 cancelled)", got)
	}
	// Cancelling after the run reports false and changes nothing.
	if timers[0].Cancel() {
		t.Fatalf("Cancel after firing must report false")
	}
	if got := e.Steps(); got != 6 {
		t.Fatalf("Steps = %d after late Cancel, want 6", got)
	}
}

// The event pool reaches steady state: a long event chain keeps
// exactly one live event, so misses stay tiny while hits grow.
func TestEventPoolSteadyState(t *testing.T) {
	e := NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	hits, misses := e.PoolStats()
	if hits+misses < 1000 {
		t.Fatalf("pool accounting lost events: hits=%d misses=%d", hits, misses)
	}
	if misses > 4 {
		t.Fatalf("misses = %d for a single-event chain, want <= 4", misses)
	}
	if hits < 990 {
		t.Fatalf("hits = %d, want steady-state recycling", hits)
	}
}
