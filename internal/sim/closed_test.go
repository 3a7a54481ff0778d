package sim

import (
	"runtime"
	"testing"
)

// Scheduling on a closed environment is a documented no-op: the
// callback never runs, and the returned Timer's Cancel reports false
// (there is nothing pending to cancel).
func TestAtOnClosedEnvIsCountedNoop(t *testing.T) {
	e := NewEnv(1)
	e.Close()

	ran := false
	tm := e.At(100, func() { ran = true })
	if tm != (Timer{}) {
		t.Fatalf("At on closed env must return the zero Timer")
	}
	if tm.Cancel() {
		t.Fatalf("Cancel on a closed-env timer must report false")
	}
	e.AtArg(200, func(a, b uint64) { ran = true }, 1, 2)
	e.After(50, func() { ran = true })

	if e.Run(); ran {
		t.Fatalf("callbacks scheduled after Close must never run")
	}
	if e.Steps() != 0 {
		t.Fatalf("Steps = %d after closed-env schedules, want 0", e.Steps())
	}
}

// After keeps its panic-on-negative-delay behavior even when the
// environment is closed: a bad duration is a model bug regardless of
// lifecycle, while a late schedule during teardown is tolerated.
func TestAfterNegativePanicsEvenWhenClosed(t *testing.T) {
	e := NewEnv(1)
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("After(-1) on a closed env must still panic")
		}
	}()
	e.After(-1, func() {})
}

// A Timer held past its firing must stay inert even after the
// underlying pooled event object is recycled into a new schedule:
// Cancel must neither report true nor kill the recycled event.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	e := NewEnv(1)
	tm := e.At(10, func() {})
	e.Run() // fires and recycles the event

	// This schedule reuses the pooled object the stale Timer points at.
	ran := false
	e.At(20, func() { ran = true })
	if tm.Cancel() {
		t.Fatalf("stale Timer.Cancel must report false after its event fired")
	}
	e.Run()
	if !ran {
		t.Fatalf("stale Timer.Cancel must not kill the recycled event")
	}
}

// NewEnv collects once after a Close when the heap is big enough to
// matter, and not again until the next Close.
func TestNewEnvCollectsAfterClose(t *testing.T) {
	cycles := func() uint32 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.NumGC
	}
	ballast := make([]byte, 2*minCollect)
	runtime.GC() // no cycle in progress below
	NewEnv(1).Close()
	n := cycles()
	NewEnv(1)
	if got := cycles(); got != n+1 {
		t.Fatalf("NewEnv after Close ran %d collections, want 1", got-n)
	}
	NewEnv(1)
	if got := cycles(); got != n+1 {
		t.Fatalf("NewEnv with no Close since ran %d collections, want 0", got-n-1)
	}
	runtime.KeepAlive(ballast)
}
