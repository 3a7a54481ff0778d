package sched

import (
	"testing"

	"bcl/internal/sim"
)

// sleeper returns a rank body that just burns d of virtual time.
func sleeper(d sim.Time) func(p *sim.Proc, ctx *RankCtx) {
	return func(p *sim.Proc, ctx *RankCtx) { p.Sleep(d) }
}

func run(env *sim.Env, s *Scheduler) {
	env.Go("waiter", func(p *sim.Proc) { s.WaitAll(p) })
	env.RunUntil(10 * sim.Second)
}

func TestFIFOOrder(t *testing.T) {
	env := sim.NewEnv(1)
	s := New(env, 2, 2, false)
	// Both jobs need the whole machine; B arrives later and must wait
	// for A even though slots free up mid-run is impossible here.
	a := s.Submit(JobSpec{Name: "A", Ranks: 4, Arrival: 0, EstRuntime: sim.Millisecond, Body: sleeper(sim.Millisecond)})
	b := s.Submit(JobSpec{Name: "B", Ranks: 4, Arrival: 10, EstRuntime: sim.Millisecond, Body: sleeper(sim.Millisecond)})
	run(env, s)
	if a.State != Done || b.State != Done {
		t.Fatalf("jobs not done: A=%v B=%v", a.State, b.State)
	}
	if b.Started < a.Finished {
		t.Fatalf("B started at %d before A finished at %d", b.Started, a.Finished)
	}
	if got := s.Stats(); got.Finished != 2 {
		t.Fatalf("finished=%d, want 2", got.Finished)
	}
}

func TestGangAllOrNothing(t *testing.T) {
	env := sim.NewEnv(1)
	s := New(env, 2, 2, false)
	// A small job holds one slot; a 4-rank gang must wait for the whole
	// machine rather than trickle onto the three free slots.
	small := s.Submit(JobSpec{Name: "small", Ranks: 1, EstRuntime: 2 * sim.Millisecond, Body: sleeper(2 * sim.Millisecond)})
	gang := s.Submit(JobSpec{Name: "gang", Ranks: 4, Arrival: 10, EstRuntime: sim.Millisecond, Body: sleeper(sim.Millisecond)})
	run(env, s)
	if gang.Started < small.Finished {
		t.Fatalf("gang started at %d before small released its slot at %d", gang.Started, small.Finished)
	}
	// All four ranks started at one instant with distinct slots.
	perNode := map[int]int{}
	for _, nd := range gang.Placement {
		perNode[nd]++
	}
	for nd, k := range perNode {
		if k > 2 {
			t.Fatalf("node %d got %d ranks with only 2 slots", nd, k)
		}
	}
}

func TestConservativeBackfill(t *testing.T) {
	build := func(backfill bool) (*Scheduler, *Job, *Job, *Job) {
		env := sim.NewEnv(1)
		s := New(env, 2, 2, backfill)
		// "long" holds half the machine for 4ms; "wide" needs all of it
		// and must queue; "quick" (1ms) fits in the hole and provably
		// ends before wide's reserved start.
		long := s.Submit(JobSpec{Name: "long", Ranks: 2, EstRuntime: 4 * sim.Millisecond, Body: sleeper(4 * sim.Millisecond)})
		wide := s.Submit(JobSpec{Name: "wide", Ranks: 4, Arrival: 10, EstRuntime: sim.Millisecond, Body: sleeper(sim.Millisecond)})
		quick := s.Submit(JobSpec{Name: "quick", Ranks: 2, Arrival: 20, EstRuntime: sim.Millisecond, Body: sleeper(sim.Millisecond)})
		run(env, s)
		return s, long, wide, quick
	}

	sFifo, _, wideFifo, quickFifo := build(false)
	sBf, _, wideBf, quickBf := build(true)

	if sFifo.Stats().Backfills != 0 {
		t.Fatalf("FIFO run backfilled")
	}
	if sBf.Stats().Backfills == 0 {
		t.Fatalf("backfill run never backfilled")
	}
	// Backfill must start quick before wide, without delaying wide.
	if quickBf.Started >= wideBf.Started {
		t.Fatalf("backfill: quick started at %d, after wide at %d", quickBf.Started, wideBf.Started)
	}
	if wideBf.Started > wideFifo.Started {
		t.Fatalf("backfill delayed the head: %d > %d", wideBf.Started, wideFifo.Started)
	}
	// And the batch finishes sooner than strict FIFO ran it.
	if sBf.Makespan() >= sFifo.Makespan() {
		t.Fatalf("backfill makespan %d not better than FIFO %d", sBf.Makespan(), sFifo.Makespan())
	}
	if quickFifo.Started < wideFifo.Started {
		t.Fatalf("FIFO let quick jump the queue")
	}
}

func TestPlacementConstraint(t *testing.T) {
	env := sim.NewEnv(1)
	s := New(env, 4, 2, false)
	pinned := s.Submit(JobSpec{Name: "pinned", Ranks: 2, Nodes: []int{2}, EstRuntime: sim.Millisecond, Body: sleeper(sim.Millisecond)})
	spread := s.Submit(JobSpec{Name: "spread", Ranks: 4, RanksPerNode: 1, EstRuntime: sim.Millisecond, Body: sleeper(sim.Millisecond)})
	run(env, s)
	for _, nd := range pinned.Placement {
		if nd != 2 {
			t.Fatalf("pinned rank landed on node %d", nd)
		}
	}
	seen := map[int]int{}
	for _, nd := range spread.Placement {
		seen[nd]++
	}
	for nd, k := range seen {
		if k != 1 {
			t.Fatalf("spread put %d ranks on node %d with RanksPerNode=1", k, nd)
		}
	}
}

func TestPriorityTieBreak(t *testing.T) {
	env := sim.NewEnv(1)
	s := New(env, 1, 1, false)
	lo := s.Submit(JobSpec{Name: "lo", Ranks: 1, Arrival: 10, Priority: 0, EstRuntime: sim.Millisecond, Body: sleeper(sim.Millisecond)})
	hi := s.Submit(JobSpec{Name: "hi", Ranks: 1, Arrival: 10, Priority: 5, EstRuntime: sim.Millisecond, Body: sleeper(sim.Millisecond)})
	run(env, s)
	if hi.Started > lo.Started {
		t.Fatalf("high-priority job started at %d after low at %d", hi.Started, lo.Started)
	}
}

func TestDeterminism(t *testing.T) {
	shape := func() ([]sim.Time, []sim.Time) {
		env := sim.NewEnv(7)
		s := New(env, 3, 2, true)
		for i, spec := range []JobSpec{
			{Name: "a", Ranks: 4, Arrival: 0, EstRuntime: 3 * sim.Millisecond},
			{Name: "b", Ranks: 6, Arrival: 5, EstRuntime: sim.Millisecond},
			{Name: "c", Ranks: 2, Arrival: 15, EstRuntime: sim.Millisecond},
			{Name: "d", Ranks: 1, Arrival: 15, EstRuntime: 2 * sim.Millisecond, Priority: 3},
		} {
			spec.Body = sleeper(sim.Time(i+1) * sim.Millisecond)
			s.Submit(spec)
		}
		run(env, s)
		var started, finished []sim.Time
		for _, j := range s.jobs {
			started = append(started, j.Started)
			finished = append(finished, j.Finished)
		}
		return started, finished
	}
	s1, f1 := shape()
	s2, f2 := shape()
	for i := range s1 {
		if s1[i] != s2[i] || f1[i] != f2[i] {
			t.Fatalf("run differs at job %d: start %d/%d finish %d/%d", i, s1[i], s2[i], f1[i], f2[i])
		}
	}
}
