package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// nestedOrderProgram runs a seeded random program over every blocking
// primitive and logs each operation as it completes — "*" marks the
// ones that blocked, i.e. every time a process gets the CPU back — plus
// Now()/Steps() at every RunUntil window edge. One Rand feeds every
// choice in execution order, so a single event popped out of turn
// derails everything after it. It returns the log and how many
// resumptions it saw (process starts included); the Env is still open.
//
// What it mixes, beyond orderScenario's fixed 40 lines: 32 workers and
// the short-lived children they spawn (carriers are reused while other
// processes are nested on the driving stack), Sleep(0) and Sleep(d),
// bounded-queue Send/Recv/RecvTimeout, Resource.Use against AcquireFn
// continuations, Cond, Signal and Join, plain At/AtArg events, timers
// armed and cancelled, a token ring that nests eight processes deep,
// and windows that are uneven, zero-length, in the past, or end exactly
// on an event's timestamp.
func nestedOrderProgram(seed uint64) (string, uint64, *Env) {
	const (
		workers = 32
		ops     = 36
		horizon = Time(1500) // tickers stop here; the tail runs dry
	)
	env := NewEnv(seed)
	rng := NewRand(seed)
	var log strings.Builder
	var resumed uint64

	queues := []*Queue[int]{
		NewQueue[int](env, "q1", 1),
		NewQueue[int](env, "q2", 2),
		NewQueue[int](env, "q3", 3),
		NewQueue[int](env, "qU", 0),
	}
	res := []*Resource{NewResource(env, "r1", 1), NewResource(env, "r2", 2)}
	cond := NewCond(env)
	var timers []Timer
	// trySend enqueues v if q has room, reporting whether it did: the
	// drop of a hardware queue that never blocks.
	trySend := func(q *Queue[int], v int) bool {
		if q.full() {
			return false
		}
		q.Post(v)
		return true
	}

	// done logs one completed operation of p; it blocked iff an event ran
	// since the operation began.
	done := func(p *Proc, i int, before uint64, what string) {
		star := ""
		if env.Steps() != before {
			star = "*"
			resumed++
		}
		fmt.Fprintf(&log, "%d %s %d %s%s\n", p.Now(), p.name, i, what, star)
	}

	// Event-driven users of the resources: a continuation holds a unit
	// for b%7+1 ns and releases it from a second event.
	var held, release func(a, b uint64)
	held = func(a, b uint64) {
		fmt.Fprintf(&log, "%d fn%d held r%d\n", env.Now(), a, b%2+1)
		env.AtArg(env.Now()+Time(b%7+1), release, a, b)
	}
	release = func(a, b uint64) {
		res[b%2].Release(1)
		fmt.Fprintf(&log, "%d fn%d released r%d\n", env.Now(), a, b%2+1)
	}

	// Plain events: a ticker that posts to the unbounded queue and
	// broadcasts, on a period that collides with window edges.
	var tick func()
	tick = func() {
		fmt.Fprintf(&log, "%d tick len=%d\n", env.Now(), queues[3].Len())
		queues[3].Post(int(env.Now()))
		cond.Broadcast()
		if env.Now() < horizon {
			env.After(50, tick)
		}
	}
	env.At(50, tick)

	// A token ring: each hop wakes a process that is usually not on the
	// driving stack, so the ring stacks its members eight deep before
	// the token comes back round to the bottom one.
	const ring = 8
	hops := make([]*Queue[int], ring)
	for i := range hops {
		hops[i] = NewQueue[int](env, fmt.Sprintf("hop%d", i), 1)
	}
	for i := 0; i < ring; i++ {
		env.Go(fmt.Sprintf("ring%d", i), func(p *Proc) {
			resumed++
			for lap := 0; ; lap++ {
				before := env.Steps()
				tok, ok := hops[i].RecvTimeout(p, 400)
				done(p, lap, before, fmt.Sprintf("token %d %v", tok, ok))
				if !ok {
					return
				}
				if i == 0 {
					before = env.Steps()
					p.Sleep(Time(20 + tok%5))
					done(p, lap, before, "rest")
					if p.Now() > horizon {
						return
					}
				}
				hops[(i+1)%ring].Send(p, tok+1)
			}
		})
	}
	hops[0].Post(0)

	children := 0
	var worker func(p *Proc)
	worker = func(p *Proc) {
		resumed++
		n := ops
		if strings.HasPrefix(p.name, "c") {
			n = 3 // a child: short-lived, its carrier goes round again
		}
		for i := 0; i < n; i++ {
			before := env.Steps()
			switch op := rng.Intn(14); op {
			case 0:
				p.Sleep(0)
				done(p, i, before, "sleep0")
			case 1, 2:
				d := Time(1 + rng.Intn(20))
				p.Sleep(d)
				done(p, i, before, fmt.Sprintf("sleep %d", d))
			case 3:
				q := queues[rng.Intn(3)]
				v := rng.Intn(1000)
				q.Send(p, v)
				done(p, i, before, fmt.Sprintf("send %s %d", q.name, v))
			case 4:
				q := queues[rng.Intn(4)]
				v := rng.Intn(1000)
				ok := trySend(q, v)
				done(p, i, before, fmt.Sprintf("trysend %s %d %v", q.name, v, ok))
			case 5, 6:
				q := queues[rng.Intn(4)]
				d := Time(rng.Intn(40))
				v, ok := q.RecvTimeout(p, d)
				done(p, i, before, fmt.Sprintf("recvt %s %d %d %v", q.name, d, v, ok))
			case 7:
				if p.Now() >= horizon {
					break // the ticker has stopped; nobody would post
				}
				v := queues[3].Recv(p)
				done(p, i, before, fmt.Sprintf("recv qU %d", v))
			case 8:
				r := res[rng.Intn(2)]
				units := 1 + rng.Intn(r.cap)
				d := Time(rng.Intn(12))
				r.Use(p, units, d)
				done(p, i, before, fmt.Sprintf("use %s %d %d", r.name, units, d))
			case 9:
				id, b := uint64(rng.Intn(1000)), uint64(rng.Intn(1000))
				now := res[b%2].AcquireFn(1, held, id, b)
				done(p, i, before, fmt.Sprintf("acquirefn r%d fn%d %v", b%2+1, id, now))
				if now {
					held(id, b)
				}
			case 10:
				if p.Now() >= horizon {
					break
				}
				cond.Wait(p)
				done(p, i, before, "cond")
			case 11:
				s := new(Signal)
				d := Time(rng.Intn(25))
				env.After(d, s.Fire)
				p.Join(s)
				done(p, i, before, fmt.Sprintf("signal %d", d))
			case 12:
				children++
				c := env.Go(fmt.Sprintf("c%03d", children), worker)
				join := rng.Bool(0.5)
				if join {
					p.Join(c.Done())
				}
				done(p, i, before, fmt.Sprintf("spawn %s join=%v", c.name, join))
			case 13:
				if len(timers) > 0 && rng.Bool(0.5) {
					k := rng.Intn(len(timers))
					done(p, i, before, fmt.Sprintf("cancel timer%d %v", k, timers[k].Cancel()))
					break
				}
				k, d := len(timers), Time(rng.Intn(60))
				timers = append(timers, env.After(d, func() {
					fmt.Fprintf(&log, "%d timer%d fired %v\n", env.Now(), k, trySend(queues[2], k))
				}))
				done(p, i, before, fmt.Sprintf("arm timer%d %d", k, d))
			}
		}
	}
	for i := 0; i < workers; i++ {
		env.GoAt(Time(rng.Intn(30)), fmt.Sprintf("w%02d", i), worker)
	}

	// Uneven windows. 50, 100, 150 and 600 are tick times (the deadline
	// equals an event's timestamp), 150 and 333 repeat (zero-length), 90
	// after 150 lies in the past.
	for _, deadline := range []Time{0, 0, 7, 50, 51, 100, 150, 150, 90, 333, 333, 334, 600, 601, 1000, 1499, 1500, 1777} {
		env.RunUntil(deadline)
		fmt.Fprintf(&log, "window %d now %d steps %d\n", deadline, env.Now(), env.Steps())
	}
	env.Run()
	fmt.Fprintf(&log, "end now %d steps %d\n", env.Now(), env.Steps())
	return log.String(), resumed, env
}

// TestGoldenNestedOrder holds the kernel to the event order of the
// scheduler-goroutine kernel on a program that nests processes deeply
// and slices the run into windows: testdata/nested_order.golden was
// logged by the commit before parked processes began to drive the event
// loop. On the same run it checks the price of that order: never more
// than two coroutine switches per resumption. (The count of resumptions
// is a lower bound on wake-ups — a receiver woken to a queue someone
// else has drained parks again without returning — so the check is, if
// anything, stricter than the bound.)
func TestGoldenNestedOrder(t *testing.T) {
	want, err := os.ReadFile("testdata/nested_order.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, resumed, env := nestedOrderProgram(42)
	defer env.Close()
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				t.Fatalf("event order changed at line %d of %d:\n got %q\nwant %q", i+1, len(w), g[i], w[min(i, len(w)-1)])
			}
		}
		t.Fatalf("log is %d lines, want %d", len(g), len(w))
	}
	if sw := env.Switches(); sw > 2*resumed {
		t.Fatalf("%d switches for %d resumptions, want at most 2 per resumption", sw, resumed)
	} else {
		t.Logf("%d events, %d resumptions, %d switches (%.2f per resumption; a scheduler goroutine makes 2)",
			env.Steps(), resumed, sw, float64(sw)/float64(resumed))
	}
}
