package sim

import (
	"fmt"
	"testing"
)

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

// The cases above again, with a driving stack in flight across each
// window edge: a, b and c park nested in one another (c on top, popping
// events on its own carrier), the deadline falls on a's wake-up exactly
// and one tick before b's, and a cancelled timer sits inside the window.
// Whatever was on the stack at the deadline resumes, windows later, at
// its own wake-up time and in heap order, as if one Run had done it all.
func TestRunUntilBoundaryWithNestedStack(t *testing.T) {
	e := NewEnv(1)
	var log []string
	mark := func(who, what string) { log = append(log, fmt.Sprintf("%d %s %s", e.Now(), who, what)) }
	var procs []*Proc
	for i, d := range []Time{100, 101, 250} {
		procs = append(procs, e.Go(string(rune('a'+i)), func(p *Proc) {
			p.Sleep(d)
			mark(p.name, "woke")
			p.Sleep(10)
			mark(p.name, "done")
		}))
	}
	e.At(50, func() {
		for _, p := range procs {
			if !p.driving {
				t.Errorf("%s is not on the driving stack at t=50", p.name)
			}
		}
		mark("event", "ran")
	})
	e.At(90, func() { mark("cancelled", "ran") }).Cancel()

	// Events (and wake-ups) stamped exactly at the deadline run, the one
	// a tick past it stays queued, the clock parks at the deadline.
	if got := e.RunUntil(100); got != 100 {
		t.Fatalf("RunUntil(100) = %d, want 100", got)
	}
	if want := "[50 event ran 100 a woke]"; fmt.Sprint(log) != want {
		t.Fatalf("first window: %v, want %s", log, want)
	}
	// Three starts, the event at 50 and a's wake-up; three switches in
	// and, at the deadline, three back out (a scheduler goroutine would
	// have made eight).
	if e.Steps() != 5 || e.Switches() != 6 || e.Idle() {
		t.Fatalf("first window: Steps %d, Switches %d, Idle %v; want 5, 6, false", e.Steps(), e.Switches(), e.Idle())
	}
	for _, p := range procs {
		if p.driving {
			t.Fatalf("%s is still on the driving stack after RunUntil returned", p.name)
		}
	}
	// A repeated, a smaller and a zero-length deadline change nothing.
	for _, deadline := range []Time{100, 60, 100} {
		if got := e.RunUntil(deadline); got != 100 || e.Steps() != 5 || e.Switches() != 6 {
			t.Fatalf("RunUntil(%d) again = %d with Steps %d, Switches %d; want a no-op at 100", deadline, got, e.Steps(), e.Switches())
		}
	}
	// b resumes from exactly where it parked.
	if got := e.RunUntil(101); got != 101 || log[len(log)-1] != "101 b woke" || e.Steps() != 6 {
		t.Fatalf("RunUntil(101) = %d, log %v, Steps %d; want 101, ... 101 b woke, 6", got, log, e.Steps())
	}
	// An empty queue holds the clock at the last event, and Steps never
	// counted the cancelled timer.
	if got := e.RunUntil(1000); got != 260 || e.Steps() != 10 {
		t.Fatalf("RunUntil(1000) = %d with Steps %d, want 260 and 10", got, e.Steps())
	}
	if want := "[50 event ran 100 a woke 101 b woke 110 a done 111 b done 250 c woke 260 c done]"; fmt.Sprint(log) != want {
		t.Fatalf("log %v, want %s", log, want)
	}
	e.Close()
}
