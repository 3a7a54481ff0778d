package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Edge-case coverage for the simulation kernel beyond the basics in
// sim_test.go.

func TestResourceUsePattern(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "dev", 1)
	var order []string
	env.GoAt(0, "a", func(p *Proc) {
		r.Use(p, 1, 50)
		order = append(order, "a")
	})
	env.GoAt(10, "b", func(p *Proc) {
		r.Use(p, 1, 50)
		order = append(order, "b")
	})
	end := env.Run()
	if fmt.Sprint(order) != "[a b]" || end != 100 {
		t.Fatalf("order=%v end=%d", order, end)
	}
}

func TestResourcePanicsOnBadArgs(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "r", 2)
	cases := []func(){
		func() { r.Release(1) },               // release without acquire
		func() { r.TryAcquire(3) },            // over capacity
		func() { r.TryAcquire(0) },            // zero units
		func() { NewResource(env, "bad", 0) }, // zero capacity
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestQueuePostPanicsWhenBoundedFull(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q", 1)
	q.Post(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Post to full bounded queue did not panic")
		}
	}()
	q.Post(2)
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv(1)
	panicked := false
	env.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				// Re-park cleanly so the scheduler continues: a proc
				// must not return normally after recovering here in
				// real code; in this test we just stop.
			}
		}()
		p.Sleep(-1)
	})
	env.Run()
	if !panicked {
		t.Fatal("negative sleep accepted")
	}
}

func TestEnvAfterNegativePanics(t *testing.T) {
	env := NewEnv(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative After accepted")
		}
	}()
	env.After(-5, func() {})
}

func TestSignalFireFromCallback(t *testing.T) {
	env := NewEnv(1)
	sig := new(Signal)
	var woke Time
	env.Go("waiter", func(p *Proc) {
		sig.Wait(p)
		woke = p.Now()
	})
	env.At(123, func() { sig.Fire() })
	env.Run()
	if woke != 123 {
		t.Fatalf("woke at %d", woke)
	}
	if !sig.Fired() {
		t.Fatal("Fired() false after fire")
	}
}

func TestStepsCounter(t *testing.T) {
	env := NewEnv(1)
	for i := 0; i < 5; i++ {
		env.After(Time(i+1), func() {})
	}
	env.Run()
	if env.Steps() != 5 {
		t.Fatalf("steps = %d", env.Steps())
	}
}

func TestIdle(t *testing.T) {
	env := NewEnv(1)
	if !env.Idle() {
		t.Fatal("fresh env not idle")
	}
	env.After(10, func() {})
	if env.Idle() {
		t.Fatal("env with pending event reports idle")
	}
	env.Run()
	if !env.Idle() {
		t.Fatal("drained env not idle")
	}
}

func TestCancelledTimerSkipsExecution(t *testing.T) {
	env := NewEnv(1)
	fired := []string{}
	t1 := env.After(10, func() { fired = append(fired, "t1") })
	env.After(5, func() { t1.Cancel() })
	env.After(20, func() { fired = append(fired, "t2") })
	env.Run()
	if fmt.Sprint(fired) != "[t2]" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestGoAtFuture(t *testing.T) {
	env := NewEnv(1)
	var started Time
	env.GoAt(777, "late", func(p *Proc) { started = p.Now() })
	env.Run()
	if started != 777 {
		t.Fatalf("started at %d", started)
	}
}

// Property: with arbitrary interleavings of Use() on a capacity-k
// resource, busy time never exceeds wall time and total wait is
// non-negative; everything completes.
func TestQuickResourceInvariants(t *testing.T) {
	f := func(capRaw uint8, durs []uint8) bool {
		capacity := int(capRaw%4) + 1
		if len(durs) > 20 {
			durs = durs[:20]
		}
		env := NewEnv(uint64(capRaw) + 1)
		r := NewResource(env, "r", capacity)
		completed := 0
		for i, d := range durs {
			dur := Time(d%50) + 1
			env.GoAt(Time(i%7), fmt.Sprintf("p%d", i), func(p *Proc) {
				r.Use(p, 1, dur)
				completed++
			})
		}
		end := env.Run()
		if completed != len(durs) {
			return false
		}
		acq, wait, busy := r.Stats()
		return acq == uint64(len(durs)) && wait >= 0 && busy <= end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
