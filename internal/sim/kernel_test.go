package sim

import (
	"errors"
	"runtime"
	"testing"
)

// Short-lived processes borrow carriers and hand them back: however
// many run one after another, the environment never holds more
// goroutines than it had processes alive at once.
func TestCarriersAreRecycled(t *testing.T) {
	const chains, total = 4, 100_000
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	started, peak := 0, 0
	var body func(p *Proc)
	body = func(p *Proc) {
		p.Sleep(1)
		if started%1000 == 0 {
			peak = max(peak, runtime.NumGoroutine()-base)
		}
		if started < total {
			started++
			env.Go("short", body) // starts after this body has returned
		}
	}
	for i := 0; i < chains; i++ {
		started++
		env.Go("short", body)
	}
	env.Run()
	if started != total {
		t.Fatalf("started %d processes, want %d", started, total)
	}
	if peak > chains || len(env.carriers) > chains {
		t.Fatalf("%d goroutines, %d carriers for %d processes alive at once", peak, len(env.carriers), chains)
	}
	env.Close()
}

// Close unwinds parked processes (their deferred functions run), needs
// nothing for processes that never started or already finished, and
// leaves no goroutine behind.
func TestCloseReleasesEveryGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	q := NewQueue[int](env, "never", 0)
	unwound := 0
	for i := 0; i < 3; i++ {
		env.Go("parked", func(p *Proc) {
			defer func() { unwound++ }()
			q.Recv(p)
			t.Error("parked process resumed past its blocking call")
		})
	}
	finished := env.Go("finished", func(p *Proc) { p.Sleep(5) })
	neverRan := false
	env.GoAt(1000, "never-started", func(p *Proc) { neverRan = true })
	env.RunUntil(100)
	if !finished.Done().Fired() {
		t.Fatal("short process did not finish")
	}
	if g := runtime.NumGoroutine() - base; g != 4 {
		t.Fatalf("%d goroutines before Close, want 4 (3 parked + 1 free carrier)", g)
	}
	env.Close()
	if unwound != 3 {
		t.Fatalf("%d parked processes ran their deferred functions, want 3", unwound)
	}
	if g := runtime.NumGoroutine() - base; g != 0 {
		t.Fatalf("%d goroutines left after Close", g)
	}
	if env.Run(); neverRan {
		t.Fatal("a process started after Close")
	}
}

// goroutinesSettleAt polls until the process holds n goroutines more
// than base: a goroutine that has just run its last deferred function
// is still counted for an instant.
func goroutinesSettleAt(base, n int) bool {
	for i := 0; i < 1000; i++ {
		if runtime.NumGoroutine()-base == n {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// A panic in a process body comes out of Run on the caller's goroutine
// carrying the value the body panicked with — and out of nothing else.
// When it blows, bad is running three carriers deep (the bystanders
// parked first, so they drive the loop that started it, one nested in
// the other); both would swallow a panic that unwound through them.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	env := NewEnv(1)
	swallowed := 0
	var bystanders []*Proc
	for i := 0; i < 2; i++ {
		bystanders = append(bystanders, env.Go("bystander", func(p *Proc) {
			defer func() {
				if recover() != nil {
					swallowed++
				}
			}()
			p.Sleep(1000)
		}))
	}
	env.Go("bad", func(p *Proc) {
		p.Sleep(10)
		if !bystanders[0].driving || !bystanders[1].driving {
			t.Error("bad is not nested under the bystanders; the test is not testing the nested case")
		}
		panic(boom)
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want the body's own panic value", r)
			}
		}()
		env.Run()
		t.Fatal("Run returned normally")
	}()
	if env.Now() != 10 || swallowed != 0 {
		t.Fatalf("panic surfaced at t=%d having unwound %d bystanders, want 10 and 0", env.Now(), swallowed)
	}
	// The bystanders are parked where they were, not unwound: the run
	// picks up again and they finish on their own wake-ups.
	if end := env.Run(); end != 1000 || !bystanders[0].Done().Fired() || !bystanders[1].Done().Fired() {
		t.Fatalf("second Run ended at %d with bystanders done = %v, %v; want 1000, true, true",
			end, bystanders[0].Done().Fired(), bystanders[1].Done().Fired())
	}
	env.Close()
}

// A callback that panics while a process carrier happens to be driving
// the loop is no more that process's business than another body's
// panic: Run's caller gets the value, the driver stays parked.
func TestCallbackPanicReachesRunCaller(t *testing.T) {
	env := NewEnv(1)
	swallowed := false
	driver := env.Go("driver", func(p *Proc) {
		defer func() { swallowed = recover() != nil }()
		p.Sleep(1000)
	})
	env.At(10, func() {
		if !driver.driving {
			t.Error("the callback is not running on the driver's carrier")
		}
		panic("callback")
	})
	func() {
		defer func() {
			if r := recover(); r != "callback" {
				t.Fatalf("recovered %v, want the callback's panic value", r)
			}
		}()
		env.Run()
		t.Fatal("Run returned normally")
	}()
	if env.Now() != 10 || swallowed || driver.Done().Fired() {
		t.Fatalf("t=%d, driver unwound = %v, finished = %v; want 10, false, false", env.Now(), swallowed, driver.Done().Fired())
	}
	if end := env.Run(); end != 1000 || !driver.Done().Fired() {
		t.Fatalf("second Run ended at %d, driver done = %v", end, driver.Done().Fired())
	}
	env.Close()
}

// Close from an event callback runs on whichever carrier is driving,
// three deep here: it must not stop the coroutine it stands on. Nothing
// executes after it, the stack unwinds to Run, and Run returns with
// every process unwound and every goroutine gone.
func TestCloseFromCallback(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	unwound, later := 0, false
	var sleepers []*Proc
	for i := 0; i < 3; i++ {
		sleepers = append(sleepers, env.Go("sleeper", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(Time(1000 + i))
			t.Error("a sleeper resumed after Close")
		}))
	}
	env.At(500, func() {
		for _, p := range sleepers {
			if !p.driving {
				t.Error("Close is not being called from a nested carrier; the test is not testing that")
			}
		}
		env.Close()
		env.At(500, func() { later = true }) // dropped, like any schedule after Close
	})
	env.At(500, func() { later = true })
	if end := env.Run(); end != 500 {
		t.Fatalf("Run returned %d, want 500", end)
	}
	if later || env.Steps() != 4 {
		t.Fatalf("after Close: later event ran = %v, Steps = %d; want false, 4", later, env.Steps())
	}
	if unwound != 3 {
		t.Fatalf("%d sleepers ran their deferred functions, want 3", unwound)
	}
	if g := runtime.NumGoroutine() - base; g != 0 {
		t.Fatalf("%d goroutines left when Run returned", g)
	}
	env.Close() // a second Close is a no-op
}

// runtime.Goexit in a body (what t.FailNow does) ends the goroutine
// that called Run, deferred functions included, instead of leaving the
// scheduler waiting for a process that will never yield.
func TestBodyGoexitEndsRunCaller(t *testing.T) {
	env := NewEnv(1)
	var bodyDeferred, afterRun bool
	worker := env.Go("quitter", func(p *Proc) {
		defer func() { bodyDeferred = true }()
		p.Sleep(10)
		runtime.Goexit()
	})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		env.Run()
		afterRun = true
	}()
	<-exited
	if !bodyDeferred || afterRun {
		t.Fatalf("body deferred ran = %v, code after Run ran = %v; want true, false", bodyDeferred, afterRun)
	}
	if !worker.Done().Fired() {
		t.Fatal("Done did not fire for a body that called Goexit")
	}
	env.Close()
}

// The same three carriers down: the Goexit passes through the bodies
// the quitter is nested in, on its way to the goroutine that called
// Run. Their deferred functions run, but the simulation is over — a
// Sleep or Recv in one of them executes no event — and Close afterwards
// finds nothing it has to wait for.
func TestNestedGoexitFreezesTheRun(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	q := NewQueue[int](env, "never", 0)
	deferred, pastBlocking := 0, 0
	var outer []*Proc
	for i := 0; i < 2; i++ {
		outer = append(outer, env.Go("outer", func(p *Proc) {
			defer func() {
				deferred++
				if i == 0 {
					p.Sleep(5)
				} else {
					q.Recv(p)
				}
				pastBlocking++
			}()
			p.Sleep(1000)
		}))
	}
	var frozen uint64
	later := false
	quitter := env.Go("quitter", func(p *Proc) {
		defer func() { deferred++ }()
		p.Sleep(10)
		if !outer[0].driving || !outer[1].driving {
			t.Error("quitter is not nested under the outer processes")
		}
		env.At(p.Now(), func() { later = true }) // due this very instant
		frozen = env.Steps()
		runtime.Goexit()
	})
	env.Go("later", func(p *Proc) {
		p.Sleep(20)
		later = true
	})
	exited, afterRun := make(chan struct{}), false
	go func() {
		defer close(exited)
		env.Run()
		afterRun = true
	}()
	<-exited
	if deferred != 3 || pastBlocking != 0 || afterRun {
		t.Fatalf("%d bodies ran deferred functions, %d got past a blocking call in one, code after Run ran = %v; want 3, 0, false",
			deferred, pastBlocking, afterRun)
	}
	if !quitter.Done().Fired() {
		t.Fatal("Done did not fire for the body that called Goexit")
	}
	if later || env.Steps() != frozen || env.Now() != 10 {
		t.Fatalf("after Goexit: later event ran = %v, Steps %d (was %d), Now %d; want nothing further", later, env.Steps(), frozen, env.Now())
	}
	env.Close()
	if !goroutinesSettleAt(base, 0) {
		t.Fatalf("%d goroutines left after Close", runtime.NumGoroutine()-base)
	}
}

// An in-place Sleep — nothing else is due before the wake-up — is a
// step of the clock and nothing more; a Sleep with an earlier event
// pending takes the ordinary path and, alone on the stack, still comes
// back without a switch; two processes handing items to each other
// switch once per item per direction.
func TestSwitchBudget(t *testing.T) {
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) {
		for _, tc := range []struct {
			name  string
			sleep func()
		}{
			{"Sleep alone", func() { p.Sleep(10) }},
			{"Sleep(0) alone", func() { p.Sleep(0) }},
			{"Sleep behind an event", func() {
				env.AtArg(env.Now()+5, func(a, b uint64) {}, 0, 0)
				p.Sleep(10)
			}},
		} {
			tc.sleep() // warm the event pool
			steps, sw := env.Steps(), env.Switches()
			if allocs := testing.AllocsPerRun(100, tc.sleep); allocs != 0 {
				t.Errorf("%s: %v allocs, want 0", tc.name, allocs)
			}
			if n := env.Switches() - sw; n != 0 {
				t.Errorf("%s: %d switches over %d events, want 0", tc.name, n, env.Steps()-steps)
			}
		}
	})
	env.Run()

	const items = 1000
	ping, pong := NewQueue[int](env, "ping", 1), NewQueue[int](env, "pong", 1)
	env.Go("a", func(p *Proc) {
		for i := 0; i < items; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
	})
	env.Go("b", func(p *Proc) {
		for i := 0; i < items; i++ {
			pong.Send(p, ping.Recv(p))
		}
	})
	steps, sw := env.Steps(), env.Switches()
	env.Run()
	// Two for each process's start and end, then one per item each way.
	if n := env.Switches() - sw; n > 2*items+4 {
		t.Errorf("%d switches for %d items each way (%d wake-ups), want one per item per direction", n, items, env.Steps()-steps)
	}
	env.Close()
}

// The blocking primitives allocate nothing once their rings have grown
// to working size, and starting a process costs the Proc and its wake
// closure.
func TestBlockingPrimitivesDoNotAllocate(t *testing.T) {
	const window = 1000 // virtual ns per measured run
	cases := []struct {
		name  string
		setup func(env *Env)
	}{
		{"Sleep", func(env *Env) {
			env.Go("sleeper", func(p *Proc) {
				for {
					p.Sleep(10)
					p.Sleep(0)
				}
			})
		}},
		{"blocked Send and Recv", func(env *Env) {
			// Capacity 1 and a consumer that is sometimes slower, sometimes
			// faster than the producer: both sides block every window.
			q := NewQueue[int](env, "q", 1)
			env.Go("producer", func(p *Proc) {
				for i := 0; ; i++ {
					q.Send(p, i)
					p.Sleep(Time(i % 7))
				}
			})
			env.Go("consumer", func(p *Proc) {
				for i := 0; ; i++ {
					q.Recv(p)
					p.Sleep(Time(i % 5))
				}
			})
		}},
		{"RecvTimeout", func(env *Env) {
			q := NewQueue[int](env, "q", 0)
			env.Go("producer", func(p *Proc) {
				for i := 0; ; i++ {
					p.Sleep(Time(20 + i%30))
					q.Send(p, i)
				}
			})
			env.Go("consumer", func(p *Proc) {
				for {
					q.RecvTimeout(p, 35)
				}
			})
		}},
		{"contended Resource.Use", func(env *Env) {
			r := NewResource(env, "bus", 1)
			for i := 0; i < 3; i++ {
				env.Go("user", func(p *Proc) {
					for {
						r.Use(p, 1, 10)
					}
				})
			}
		}},
		{"contended Resource.AcquireFn", func(env *Env) {
			// Three event-driven users and one process share a unit: a
			// continuation queues, is granted and reschedules itself
			// without a closure, a process or a waiter record.
			r := NewResource(env, "link", 1)
			var held, release func(a, b uint64)
			held = func(a, b uint64) { env.AtArg(env.Now()+10, release, a, b) }
			release = func(a, b uint64) {
				r.Release(1)
				if r.AcquireFn(1, held, a, b) {
					held(a, b)
				}
			}
			for i := uint64(0); i < 3; i++ {
				if r.AcquireFn(1, held, i, 0) {
					held(i, 0)
				}
			}
			env.Go("user", func(p *Proc) {
				for {
					r.Use(p, 1, 10)
				}
			})
		}},
		{"Signal.Wait and Cond.Wait", func(env *Env) {
			c := NewCond(env)
			env.Go("waiter", func(p *Proc) {
				for {
					c.Wait(p)
				}
			})
			env.Go("ticker", func(p *Proc) {
				for {
					p.Sleep(10)
					c.Broadcast()
				}
			})
			// Signals are one-shot: enough of them, made up front, to
			// outlast the measured windows.
			sigs := make([]*Signal, 0, 4096)
			for i := 0; i < cap(sigs); i++ {
				sigs = append(sigs, new(Signal))
			}
			env.Go("sig-waiter", func(p *Proc) {
				for _, s := range sigs {
					s.Wait(p)
				}
			})
			env.Go("sig-firer", func(p *Proc) {
				for _, s := range sigs {
					p.Sleep(10)
					s.Fire()
				}
			})
		}},
	}
	for _, tc := range cases {
		env := NewEnv(1)
		tc.setup(env)
		env.RunUntil(10 * window) // grow rings, pool and carriers
		steps := env.Steps()
		allocs := testing.AllocsPerRun(20, func() { env.RunUntil(env.Now() + window) })
		if allocs != 0 {
			t.Errorf("%s: %v allocs per %d ns window, want 0", tc.name, allocs, window)
		}
		if n := env.Steps() - steps; n < 1000 {
			t.Errorf("%s: only %d events in the measured windows; the scenario is not exercising the primitive", tc.name, n)
		}
		env.Close()
	}

	env := NewEnv(1)
	body := func(p *Proc) { p.Sleep(1) }
	env.Go("warm", body)
	env.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		env.Go("short", body)
		env.Run()
	}); allocs > 3 {
		t.Errorf("Go + finish: %v allocs, want at most 3", allocs)
	}
	env.Close()
}
