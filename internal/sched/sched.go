// Package sched is the cluster's deterministic gang scheduler: it
// admits a stream of job specifications (gang size, arrival virtual
// time, placement constraints, priority, QoS weight) onto the
// simulated machine's node slots. Jobs are gang-scheduled — a job
// starts only when every rank has a slot, and all ranks start at the
// same virtual instant — under FIFO order with optional conservative
// backfill: a queued job may jump ahead only if its estimated runtime
// proves it cannot delay the reserved start of the queue head.
//
// The scheduler is mechanism-only with respect to communication: a
// rank body is an arbitrary function (typically it opens a BCL port
// labeled with the job name and talks to its peers), so the package
// depends only on the simulator core and the metrics registry. This is
// the piece that turns the single-tenant reproduction into a
// multi-tenant machine: several jobs share nodes, NICs and links at
// once, relying on the kernel's endpoint ownership checks and the
// NIC's per-endpoint QoS arbitration for isolation.
package sched

import (
	"fmt"
	"sort"

	"bcl/internal/obs"
	"bcl/internal/sim"
)

// JobState is a job's lifecycle position.
type JobState uint8

// Job lifecycle states.
const (
	Queued JobState = iota
	Running
	Done
)

func (s JobState) String() string {
	switch s {
	case Queued:
		return "QUEUED"
	case Running:
		return "RUNNING"
	case Done:
		return "DONE"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// RankCtx is handed to every rank body: which job, which rank, and the
// node the gang placement assigned it.
type RankCtx struct {
	Job  *Job
	Rank int
	Node int
}

// JobSpec describes one job submitted to the scheduler.
type JobSpec struct {
	Name  string
	Ranks int // gang size; every rank needs a slot before the job starts

	// Arrival is the submission virtual time; jobs are queued in
	// (Arrival, -Priority, submission order).
	Arrival sim.Time
	// EstRuntime is the user's runtime estimate. Conservative backfill
	// lets a job jump the queue only when now+EstRuntime proves it ends
	// before the head's reserved start; 0 means "unknown", which
	// disqualifies the job from backfilling (and from bounding the
	// head's reservation, making backfill around it impossible).
	EstRuntime sim.Time
	// Priority orders jobs that arrive at the same instant (higher
	// first). It does not preempt: sched is run-to-completion.
	Priority int

	// Nodes restricts placement to the listed node ids (nil = any).
	Nodes []int
	// RanksPerNode caps how many of this job's ranks co-locate on one
	// node (0 = no cap beyond the node's slot count).
	RanksPerNode int

	// QoSWeight is recorded on the job for rank bodies to hand to their
	// endpoints (the scheduler itself does not touch NICs).
	QoSWeight int

	// Body runs one rank. The scheduler spawns one simulator process
	// per rank; the job finishes when every body returns.
	Body func(p *sim.Proc, ctx *RankCtx)
}

// Job is the scheduler's record of a submitted spec.
type Job struct {
	Spec JobSpec
	ID   int // submission order, 1-based

	State     JobState
	Submitted sim.Time
	Started   sim.Time
	Finished  sim.Time

	// Placement maps rank -> node id, fixed at start.
	Placement []int

	running int // ranks still executing
}

// Stats aggregates scheduler counters.
type Stats struct {
	Submitted  uint64
	Started    uint64
	Finished   uint64
	Backfills  uint64 // jobs started ahead of the queue head
	GangDenied uint64 // head placement attempts that found too few slots
}

// Scheduler is one cluster's job admission engine.
type Scheduler struct {
	env      *sim.Env
	nodes    int
	backfill bool

	free  []int // free slots per node
	queue []*Job
	jobs  []*Job // every submission, in id order

	work  *sim.Cond // new arrivals / freed slots
	idle  *sim.Cond // job completions (WaitAll)
	stats Stats
}

// New builds a scheduler over nodes × slotsPerNode slots. backfill
// selects FIFO-with-conservative-backfill; false is strict FIFO. The
// dispatcher runs as a simulator process, so admission decisions are
// part of the deterministic event order.
func New(env *sim.Env, nodes, slotsPerNode int, backfill bool) *Scheduler {
	if nodes <= 0 || slotsPerNode <= 0 {
		panic("sched: need at least one node and one slot")
	}
	s := &Scheduler{
		env:      env,
		nodes:    nodes,
		backfill: backfill,
		free:     make([]int, nodes),
		work:     sim.NewCond(env),
		idle:     sim.NewCond(env),
	}
	for i := range s.free {
		s.free[i] = slotsPerNode
	}
	env.Go("sched/dispatcher", s.dispatcher)
	return s
}

// Submit registers a job spec. Jobs whose Arrival lies in the future
// join the queue at that virtual time (a per-job arrival process
// sleeps until then); past or zero arrivals join immediately.
func (s *Scheduler) Submit(spec JobSpec) *Job {
	if spec.Ranks <= 0 {
		panic(fmt.Sprintf("sched: job %q has no ranks", spec.Name))
	}
	if spec.Body == nil {
		panic(fmt.Sprintf("sched: job %q has no body", spec.Name))
	}
	job := &Job{Spec: spec, ID: len(s.jobs) + 1, State: Queued}
	s.jobs = append(s.jobs, job)
	s.stats.Submitted++
	s.env.Go(fmt.Sprintf("sched/arrive/%s", spec.Name), func(p *sim.Proc) {
		if spec.Arrival > p.Now() {
			p.Sleep(spec.Arrival - p.Now())
		}
		job.Submitted = p.Now()
		s.enqueue(job)
		s.work.Broadcast()
	})
	return job
}

// enqueue inserts a job in (Arrival, -Priority, ID) order after any
// already-queued job that sorts equal (stable FIFO tie-break).
func (s *Scheduler) enqueue(job *Job) {
	pos := sort.Search(len(s.queue), func(i int) bool {
		q := s.queue[i]
		if q.Spec.Arrival != job.Spec.Arrival {
			return q.Spec.Arrival > job.Spec.Arrival
		}
		if q.Spec.Priority != job.Spec.Priority {
			return q.Spec.Priority < job.Spec.Priority
		}
		return q.ID > job.ID
	})
	s.queue = append(s.queue, nil)
	copy(s.queue[pos+1:], s.queue[pos:])
	s.queue[pos] = job
}

// dispatcher admits jobs whenever arrivals or completions change the
// picture.
func (s *Scheduler) dispatcher(p *sim.Proc) {
	for {
		if !s.tryDispatch(p) {
			s.work.Wait(p)
		}
	}
}

// tryDispatch starts at most one job and reports whether it did (the
// dispatcher loops until a pass makes no progress).
func (s *Scheduler) tryDispatch(p *sim.Proc) bool {
	if len(s.queue) == 0 {
		return false
	}
	head := s.queue[0]
	if placement, ok := s.place(head); ok {
		s.start(p, head, placement)
		s.queue = s.queue[1:]
		return true
	}
	s.stats.GangDenied++
	if !s.backfill || len(s.queue) == 1 {
		return false
	}
	// Conservative backfill: reserve the head's start at the earliest
	// time running jobs' estimates free enough slots, then admit a
	// later job only if its own estimate ends strictly before that
	// reservation — it provably cannot delay the head.
	shadow, ok := s.shadowStart(p.Now(), head)
	if !ok {
		return false
	}
	for i := 1; i < len(s.queue); i++ {
		cand := s.queue[i]
		if cand.Spec.EstRuntime <= 0 {
			continue // unknown runtime: never backfilled
		}
		if p.Now()+cand.Spec.EstRuntime > shadow {
			continue
		}
		if placement, fits := s.place(cand); fits {
			s.stats.Backfills++
			s.start(p, cand, placement)
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return true
		}
	}
	return false
}

// shadowStart computes the earliest virtual time the head job could be
// placed, assuming every running job exits exactly at its estimate.
// Returns ok=false when some running job has no estimate (its slots
// can never be proven free, so nothing may backfill past the head).
func (s *Scheduler) shadowStart(now sim.Time, head *Job) (sim.Time, bool) {
	type release struct {
		at    sim.Time
		node  int
		slots int
	}
	var rels []release
	for _, j := range s.jobs {
		if j.State != Running {
			continue
		}
		if j.Spec.EstRuntime <= 0 {
			return 0, false
		}
		end := j.Started + j.Spec.EstRuntime
		if end < now {
			end = now
		}
		perNode := make(map[int]int)
		for _, nd := range j.Placement {
			perNode[nd]++
		}
		for nd, k := range perNode {
			rels = append(rels, release{at: end, node: nd, slots: k})
		}
	}
	sort.Slice(rels, func(a, b int) bool {
		if rels[a].at != rels[b].at {
			return rels[a].at < rels[b].at
		}
		return rels[a].node < rels[b].node
	})
	avail := make([]int, s.nodes)
	copy(avail, s.free)
	if s.fitsIn(head, avail) {
		return now, true
	}
	for _, r := range rels {
		avail[r.node] += r.slots
		if s.fitsIn(head, avail) {
			return r.at, true
		}
	}
	return 0, false
}

// place tries to gang-place a job on the currently free slots,
// first-fit over ascending node ids (restricted to Spec.Nodes when
// set). Placement is all-or-nothing.
func (s *Scheduler) place(job *Job) ([]int, bool) {
	avail := make([]int, s.nodes)
	copy(avail, s.free)
	return s.placeIn(job, avail)
}

// fitsIn reports whether the job could be placed on the given
// availability vector.
func (s *Scheduler) fitsIn(job *Job, avail []int) bool {
	_, ok := s.placeIn(job, avail)
	return ok
}

func (s *Scheduler) placeIn(job *Job, avail []int) ([]int, bool) {
	allowed := job.Spec.Nodes
	if allowed == nil {
		allowed = make([]int, s.nodes)
		for i := range allowed {
			allowed[i] = i
		}
	} else {
		allowed = append([]int(nil), allowed...)
		sort.Ints(allowed)
	}
	placement := make([]int, 0, job.Spec.Ranks)
	for _, nd := range allowed {
		if nd < 0 || nd >= s.nodes {
			continue
		}
		take := avail[nd]
		if limit := job.Spec.RanksPerNode; limit > 0 && take > limit {
			take = limit
		}
		for k := 0; k < take && len(placement) < job.Spec.Ranks; k++ {
			placement = append(placement, nd)
		}
		if len(placement) == job.Spec.Ranks {
			return placement, true
		}
	}
	return nil, false
}

// start claims slots and launches one simulator process per rank.
func (s *Scheduler) start(p *sim.Proc, job *Job, placement []int) {
	job.State = Running
	job.Started = p.Now()
	job.Placement = placement
	job.running = job.Spec.Ranks
	s.stats.Started++
	for _, nd := range placement {
		s.free[nd]--
	}
	for r := 0; r < job.Spec.Ranks; r++ {
		rank := r
		ctx := &RankCtx{Job: job, Rank: rank, Node: placement[rank]}
		s.env.Go(fmt.Sprintf("job/%s/rank%d", job.Spec.Name, rank), func(rp *sim.Proc) {
			job.Spec.Body(rp, ctx)
			s.rankDone(rp, job, ctx.Node)
		})
	}
}

// rankDone retires one rank; the last rank out completes the job and
// returns its slots.
func (s *Scheduler) rankDone(p *sim.Proc, job *Job, node int) {
	s.free[node]++
	job.running--
	if job.running > 0 {
		return
	}
	job.State = Done
	job.Finished = p.Now()
	s.stats.Finished++
	s.work.Broadcast()
	s.idle.Broadcast()
}

// WaitAll blocks until every submitted job has finished.
func (s *Scheduler) WaitAll(p *sim.Proc) {
	for s.stats.Finished < s.stats.Submitted {
		s.idle.Wait(p)
	}
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Makespan is the span from the earliest submission to the latest
// completion (0 until every job is done).
func (s *Scheduler) Makespan() sim.Time {
	if s.stats.Finished < s.stats.Submitted || len(s.jobs) == 0 {
		return 0
	}
	first := s.jobs[0].Submitted
	var last sim.Time
	for _, j := range s.jobs {
		if j.Submitted < first {
			first = j.Submitted
		}
		if j.Finished > last {
			last = j.Finished
		}
	}
	return last - first
}

// Collect publishes scheduler counters into a metrics snapshot under
// layer "sched" (attributed to node 0, where the dispatcher
// conceptually runs).
func (s *Scheduler) Collect(set obs.Set) {
	set(0, "sched", "jobs_submitted", s.stats.Submitted)
	set(0, "sched", "jobs_started", s.stats.Started)
	set(0, "sched", "jobs_finished", s.stats.Finished)
	set(0, "sched", "backfills", s.stats.Backfills)
	set(0, "sched", "gang_denied", s.stats.GangDenied)
}
