package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestClockAndOrdering(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.After(30, func() { order = append(order, "c") })
	env.After(10, func() { order = append(order, "a") })
	env.After(20, func() { order = append(order, "b") })
	env.After(10, func() { order = append(order, "a2") }) // same time, later seq
	end := env.Run()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	want := "[a a2 b c]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	env.After(10, func() { fired++ })
	env.After(20, func() { fired++ })
	env.After(30, func() { fired++ })
	env.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d at deadline 20, want 2 (inclusive)", fired)
	}
	if env.Now() != 20 {
		t.Fatalf("now = %d, want 20", env.Now())
	}
	env.Run()
	if fired != 3 {
		t.Fatalf("fired = %d after Run, want 3", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	env := NewEnv(1)
	fired := false
	timer := env.After(10, func() { fired = true })
	if !timer.Cancel() {
		t.Fatal("first Cancel returned false")
	}
	if timer.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	env.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	env := NewEnv(1)
	env.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		env.At(5, func() {})
	})
	env.Run()
}

func TestProcSleep(t *testing.T) {
	env := NewEnv(1)
	var times []Time
	env.Go("sleeper", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(100)
		times = append(times, p.Now())
		p.Sleep(0)
		times = append(times, p.Now())
	})
	env.Run()
	want := []Time{0, 100, 100}
	if fmt.Sprint(times) != fmt.Sprint(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
}

func TestProcJoin(t *testing.T) {
	env := NewEnv(1)
	var finished Time
	worker := env.Go("worker", func(p *Proc) { p.Sleep(250) })
	env.Go("joiner", func(p *Proc) {
		p.Join(worker.Done())
		finished = p.Now()
	})
	env.Run()
	if finished != 250 {
		t.Fatalf("join completed at %d, want 250", finished)
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv(1)
	sig := new(Signal)
	woken := 0
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	env.Go("firer", func(p *Proc) {
		p.Sleep(10)
		sig.Fire()
		sig.Fire() // idempotent
	})
	env.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	// Waiting after the fact returns immediately.
	late := false
	env2 := NewEnv(1)
	sig2 := new(Signal)
	sig2.Fire()
	env2.Go("late", func(p *Proc) { sig2.Wait(p); late = true })
	env2.Run()
	if !late {
		t.Fatal("late waiter not released by fired signal")
	}
}

func TestResourceFIFO(t *testing.T) {
	env := NewEnv(1)
	cpu := NewResource(env, "cpu", 1)
	var order []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("p%d", i)
		env.GoAt(Time(i), name, func(p *Proc) {
			cpu.Acquire(p, 1)
			order = append(order, name)
			p.Sleep(100)
			cpu.Release(1)
		})
	}
	env.Run()
	if got := fmt.Sprint(order); got != "[p0 p1 p2]" {
		t.Fatalf("order = %v, want FIFO", got)
	}
	acq, wait, busy := cpu.Stats()
	if acq != 3 {
		t.Fatalf("acquires = %d, want 3", acq)
	}
	// p1 waits ~99, p2 waits ~198.
	if wait < 290 || wait > 300 {
		t.Fatalf("total wait = %d, want ~297", wait)
	}
	if busy != 300 {
		t.Fatalf("busy = %d, want 300", busy)
	}
}

// TestResourceAcquireFnSharesTheFIFO queues continuations and processes
// on one unit alternately: they are admitted strictly in arrival order,
// a free unit is taken inline, and each grant costs exactly the one
// event a process wake-up costs.
func TestResourceAcquireFnSharesTheFIFO(t *testing.T) {
	env := NewEnv(1)
	link := NewResource(env, "link", 1)
	var order []string
	granted := func(a, _ uint64) {
		order = append(order, fmt.Sprintf("fn%d@%d", a, env.Now()))
		env.At(env.Now()+100, func() { link.Release(1) })
	}
	if !link.AcquireFn(1, granted, 0, 0) {
		t.Fatal("free unit not taken inline")
	}
	granted(0, 0)
	for i := 1; i <= 4; i++ {
		if i%2 == 1 {
			name := fmt.Sprintf("p%d", i)
			env.GoAt(Time(i), name, func(p *Proc) {
				link.Acquire(p, 1)
				order = append(order, fmt.Sprintf("%s@%d", name, p.Now()))
				p.Sleep(100)
				link.Release(1)
			})
		} else {
			env.At(Time(i), func() {
				if link.AcquireFn(1, granted, uint64(i), 0) {
					t.Errorf("fn%d jumped the queue", i)
				}
			})
		}
	}
	env.RunUntil(4)
	if link.waiters.Len() != 4 {
		t.Fatalf("%d requests queued, want 4", link.waiters.Len())
	}
	// From here on: per holder one release event (or one sleep wake-up)
	// and one grant event — 4 grants, 4 releases, 1 release of fn0.
	before := env.Steps()
	env.Run()
	if got := fmt.Sprint(order); got != "[fn0@0 p1@100 fn2@200 p3@300 fn4@400]" {
		t.Fatalf("admission order = %v, want arrival order", got)
	}
	if got := env.Steps() - before; got != 9 {
		t.Fatalf("%d events after queueing, want 9 (one per grant, one per release)", got)
	}
	if acq, wait, _ := link.Stats(); acq != 5 || wait != 99+198+297+396 {
		t.Fatalf("acquires = %d, total wait = %d; want 5 and %d", acq, wait, 99+198+297+396)
	}
}

func TestResourceCounted(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "bus", 3)
	var peak int
	running := 0
	for i := 0; i < 6; i++ {
		env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			running++
			if running > peak {
				peak = running
			}
			p.Sleep(10)
			running--
			r.Release(1)
		})
	}
	env.Run()
	if peak != 3 {
		t.Fatalf("peak concurrency = %d, want 3", peak)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, "r", 2)
	ok1, ok2, ok3 := false, false, false
	env.Go("p", func(p *Proc) {
		ok1 = r.TryAcquire(1)
		ok2 = r.TryAcquire(1)
		ok3 = r.TryAcquire(1)
		r.Release(2)
	})
	env.Run()
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("TryAcquire = %v %v %v, want true true false", ok1, ok2, ok3)
	}
}

func TestResourceHeadOfLine(t *testing.T) {
	// A big request at the head of the queue must block a small one
	// behind it (bus arbiters don't reorder).
	env := NewEnv(1)
	r := NewResource(env, "r", 2)
	var order []string
	env.GoAt(0, "holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(100)
		r.Release(2)
	})
	env.GoAt(1, "big", func(p *Proc) {
		r.Acquire(p, 2)
		order = append(order, "big")
		p.Sleep(10)
		r.Release(2)
	})
	env.GoAt(2, "small", func(p *Proc) {
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	env.Run()
	if got := fmt.Sprint(order); got != "[big small]" {
		t.Fatalf("order = %v, want [big small]", got)
	}
}

func TestQueueBasics(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q", 0)
	var got []int
	env.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Recv(p))
		}
	})
	env.Go("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			q.Send(p, i)
		}
	})
	env.Run()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueBounded(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "q", 2)
	var sendDone Time
	env.Go("send", func(p *Proc) {
		q.Send(p, 1)
		q.Send(p, 2)
		q.Send(p, 3) // blocks until receiver drains one
		sendDone = p.Now()
	})
	env.Go("recv", func(p *Proc) {
		p.Sleep(100)
		if v := q.Recv(p); v != 1 {
			t.Errorf("recv = %d, want 1", v)
		}
	})
	env.Run()
	if sendDone != 100 {
		t.Fatalf("third send completed at %d, want 100", sendDone)
	}
	// Queue now holds [2 3]: full again.
	if !q.full() {
		t.Fatal("a queue of 2 holding 2 is not full")
	}
	if v, ok := q.TryRecv(); !ok || v != 2 {
		t.Fatalf("TryRecv = %d,%v, want 2,true", v, ok)
	}
	if q.full() {
		t.Fatal("the queue is full with room available")
	}
}

func TestQueueRecvTimeout(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[string](env, "q", 0)
	var gotV string
	var gotOK, got2OK bool
	var t1, t2 Time
	env.Go("recv", func(p *Proc) {
		gotV, gotOK = q.RecvTimeout(p, 50)
		t1 = p.Now()
		_, got2OK = q.RecvTimeout(p, 50)
		t2 = p.Now()
	})
	env.Go("send", func(p *Proc) {
		p.Sleep(20)
		q.Send(p, "hello")
		// Nothing more: second recv must time out.
	})
	env.Run()
	if !gotOK || gotV != "hello" || t1 != 20 {
		t.Fatalf("first recv = %q,%v at %d; want hello,true at 20", gotV, gotOK, t1)
	}
	if got2OK || t2 != 70 {
		t.Fatalf("second recv ok=%v at %d; want timeout at 70", got2OK, t2)
	}
}

func TestQueueTimeoutSendRace(t *testing.T) {
	// A send landing at exactly the timeout instant must not cause a
	// double wake; whichever event runs first wins and the process
	// observes a consistent result.
	env := NewEnv(1)
	q := NewQueue[int](env, "q", 0)
	results := make(map[string]bool)
	env.Go("recv", func(p *Proc) {
		_, ok := q.RecvTimeout(p, 50)
		results["ok"] = ok
		p.Sleep(1000) // survive long enough to catch stray wakes
	})
	env.At(50, func() { q.Post(7) })
	env.Run()
	// Item posted at exactly t=50. The Post event was scheduled before
	// the timeout timer (which RecvTimeout creates at t=0, after the
	// test set up the Post), so the sender wins the tie deterministically
	// and the receiver gets the item; either way there must be no
	// double wake (the Sleep(1000) would trip it).
	if !results["ok"] {
		t.Fatal("receiver timed out, expected sender to win the tie")
	}
	if q.Len() != 0 {
		t.Fatalf("queue len = %d, want 0", q.Len())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		env := NewEnv(42)
		q := NewQueue[int](env, "q", 4)
		cpu := NewResource(env, "cpu", 2)
		var log []string
		for i := 0; i < 5; i++ {
			id := i
			env.Go(fmt.Sprintf("prod%d", id), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(env.Rand().Intn(30)))
					cpu.Acquire(p, 1)
					p.Sleep(5)
					q.Send(p, id*10+j)
					cpu.Release(1)
				}
			})
		}
		env.Go("cons", func(p *Proc) {
			for i := 0; i < 15; i++ {
				v := q.Recv(p)
				log = append(log, fmt.Sprintf("%d@%d", v, p.Now()))
			}
		})
		env.Run()
		return fmt.Sprint(log)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\n%s", a, b)
	}
}

func TestClose(t *testing.T) {
	env := NewEnv(1)
	cleanExit := false
	env.Go("blocked", func(p *Proc) {
		q := NewQueue[int](env, "never", 0)
		q.Recv(p) // blocks forever
		cleanExit = true
	})
	env.RunUntil(100)
	env.Close()
	if cleanExit {
		t.Fatal("blocked process ran to completion after Close")
	}
}

func TestRandDeterministicAndUniform(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(8)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[c.Intn(10)]++
	}
	for i, n := range counts {
		if n < 9000 || n > 11000 {
			t.Fatalf("bucket %d has %d hits, badly non-uniform", i, n)
		}
	}
}

func TestRandFill(t *testing.T) {
	r := NewRand(3)
	b := make([]byte, 37)
	r.Fill(b)
	zero := 0
	for _, x := range b {
		if x == 0 {
			zero++
		}
	}
	if zero > 5 {
		t.Fatalf("%d zero bytes out of 37, suspiciously many", zero)
	}
}

// Property: however sleeps interleave, virtual time observed by each
// process is monotonically non-decreasing and equals the sum of its
// sleeps.
func TestQuickSleepAccounting(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) > 50 {
			raw = raw[:50]
		}
		env := NewEnv(seed)
		okA, okB := true, true
		mk := func(ok *bool, durs []uint8) func(p *Proc) {
			return func(p *Proc) {
				var total Time
				last := p.Now()
				for _, d := range durs {
					p.Sleep(Time(d))
					total += Time(d)
					if p.Now() < last {
						*ok = false
					}
					last = p.Now()
				}
				if p.Now() != total {
					*ok = false
				}
			}
		}
		half := len(raw) / 2
		env.Go("a", mk(&okA, raw[:half]))
		env.Go("b", mk(&okB, raw[half:]))
		env.Run()
		return okA && okB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a bounded queue never exceeds its capacity and delivers
// every message exactly once, in order per producer.
func TestQuickQueueConservation(t *testing.T) {
	f := func(capRaw uint8, nMsgs uint8) bool {
		capacity := int(capRaw%7) + 1
		n := int(nMsgs%40) + 1
		env := NewEnv(uint64(capRaw)*251 + uint64(nMsgs))
		q := NewQueue[int](env, "q", capacity)
		got := []int{}
		env.Go("prod", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Time(env.Rand().Intn(5)))
				q.Send(p, i)
				if q.Len() > capacity {
					t.Errorf("queue length %d > cap %d", q.Len(), capacity)
				}
			}
		})
		env.Go("cons", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Time(env.Rand().Intn(5)))
				got = append(got, q.Recv(p))
			}
		})
		env.Run()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	env := NewEnv(1)
	var step func()
	i := 0
	step = func() {
		i++
		if i < b.N {
			env.After(1, step)
		}
	}
	env.After(1, step)
	b.ResetTimer()
	env.Run()
}

func BenchmarkProcContextSwitch(b *testing.B) {
	env := NewEnv(1)
	q1 := NewQueue[int](env, "q1", 0)
	q2 := NewQueue[int](env, "q2", 0)
	env.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Send(p, i)
			q2.Recv(p)
		}
	})
	env.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Recv(p)
			q2.Send(p, i)
		}
	})
	b.ResetTimer()
	env.Run()
}
