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

// A panic in a process body comes out of Run on the caller's goroutine
// carrying the value the body panicked with.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	env := NewEnv(1)
	env.Go("bystander", func(p *Proc) { p.Sleep(1000) })
	env.Go("bad", func(p *Proc) {
		p.Sleep(10)
		panic(boom)
	})
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("recovered %v, want the body's own panic value", r)
		}
		if env.Now() != 10 {
			t.Fatalf("panic surfaced at t=%d, want 10", env.Now())
		}
		env.Close() // the bystander is still parked; this must not hang
	}()
	env.Run()
	t.Fatal("Run returned normally")
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
				sigs = append(sigs, NewSignal(env))
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
