package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/hw"
	"bcl/internal/sched"
	"bcl/internal/sim"
)

// This file is the multi-tenant experiment: the gang scheduler admits
// concurrent jobs onto one cluster, the kernel's endpoint ownership
// checks keep tenants out of each other's rings, and the NIC's
// weighted-round-robin send arbitration keeps a bandwidth hog from
// starving a latency-sensitive neighbour.
//
//   (a) interference: pingpong P99 alone, next to a 32 KB stream hog
//       under strict-FIFO send arbitration, and next to the same hog
//       with QoS weights (pingpong 8 : hog 1);
//   (b) batch makespan: the same six-job batch under strict FIFO and
//       under FIFO-with-conservative-backfill;
//   (c) isolation: a rogue process naming a victim's buffer and
//       endpoint collects kernel security rejects while the victim's
//       data arrives byte-exact.

// mtScenario is one interference run's outcome.
type mtScenario struct {
	p50, p99 sim.Time
	qosFrags uint64
	finished uint64
	agree    bool
}

// quantileNS picks the q-quantile (nearest-rank) of latency samples.
func quantileNS(samples []sim.Time, q float64) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// streamHog is the bandwidth hog of the interference scenarios (here
// and in the service tier): a two-rank job whose sender posts msgs
// 32 KB sends back to back — the NIC-side ring backlog is the point —
// to a sink that has preposted every message's rendezvous buffer.
type streamHog struct {
	msgs    int
	startAt sim.Time   // the sender holds its burst until then
	sink    *ibcl.Port // set once the sink has preposted
	live    bool       // the burst is being posted
}

const hogSize = 32 << 10

// run is the body of one rank of the hog job on its freshly opened port.
func (h *streamHog) run(p *sim.Proc, pt *ibcl.Port, sink bool) {
	va := pt.Process().Space.Alloc(hogSize)
	if sink {
		for i := 0; i < h.msgs; i++ {
			if err := pt.PostRecv(p, pt.CreateChannel(), va, hogSize); err != nil {
				panic(err)
			}
		}
		h.sink = pt
		for i := 0; i < h.msgs; i++ {
			pt.WaitRecv(p)
		}
		return
	}
	for h.sink == nil {
		p.Sleep(10 * sim.Microsecond)
	}
	if wait := h.startAt - p.Now(); wait > 0 {
		p.Sleep(wait)
	}
	h.live = true
	for i := 0; i < h.msgs; i++ {
		pt.Send(p, h.sink.Addr(), i+1, va, hogSize, 0)
	}
	for i := 0; i < h.msgs; i++ {
		pt.WaitSend(p)
	}
}

// mtInterference runs the pingpong job, optionally next to the stream
// hog, on a fresh 2-node cluster with QoS arbitration on or off. Both
// jobs go through the gang scheduler; the pingpong port gets weight 8,
// the hog weight 1.
func mtInterference(qos, hog bool) *mtScenario {
	const ppIters = 24
	nc := ibcl.DefaultNICConfig()
	nc.QoS = qos
	rg := attach(newCluster(cluster.Config{Nodes: 2, Profile: hw.DAWNING3000(), NIC: nc}))
	c := rg.c
	s := sched.New(c.Env, c.Size(), 4, false)
	c.Obs.RegisterCollector(s.Collect)

	var (
		ppPorts [2]*ibcl.Port
		stream  = streamHog{msgs: 48}
		samples []sim.Time
	)
	open := func(p *sim.Proc, nodeID int, label string, weight int) *ibcl.Port {
		return rg.open(p, nodeID, ibcl.Options{SystemBuffers: 16, Label: label, QoSWeight: weight})
	}

	s.Submit(sched.JobSpec{
		Name: "pingpong", Ranks: 2, Nodes: []int{0, 1}, RanksPerNode: 1,
		EstRuntime: 50 * sim.Millisecond, Priority: 1, QoSWeight: 8,
		Body: func(p *sim.Proc, ctx *sched.RankCtx) {
			pt := open(p, ctx.Node, "pingpong", ctx.Job.Spec.QoSWeight)
			va := pt.Process().Space.Alloc(64)
			ch := pt.CreateChannel() // 1 on both fresh ports
			if err := pt.PostRecv(p, ch, va, 64); err != nil {
				panic(err)
			}
			ppPorts[ctx.Rank] = pt
			for ppPorts[0] == nil || ppPorts[1] == nil {
				p.Sleep(10 * sim.Microsecond)
			}
			if ctx.Rank == 1 {
				// Echo server: warm-up round plus the measured rounds.
				for i := 0; i < ppIters+1; i++ {
					pt.WaitRecv(p)
					pt.PostRecv(p, ch, va, 64)
					pt.Send(p, ppPorts[0].Addr(), ch, va, 64, 0)
				}
				return
			}
			// Rank 0 measures. Hold until the hog is streaming so every
			// sample sees contention.
			if hog {
				for !stream.live {
					p.Sleep(20 * sim.Microsecond)
				}
			}
			peer := ppPorts[1].Addr()
			pt.Send(p, peer, ch, va, 64, 0) // warm-up
			pt.WaitRecv(p)
			pt.PostRecv(p, ch, va, 64)
			for i := 0; i < ppIters; i++ {
				t0 := p.Now()
				pt.Send(p, peer, ch, va, 64, 0)
				pt.WaitRecv(p)
				samples = append(samples, (p.Now()-t0)/2)
				pt.PostRecv(p, ch, va, 64)
			}
		},
	})
	if hog {
		s.Submit(sched.JobSpec{
			Name: "stream", Ranks: 2, Nodes: []int{0, 1}, RanksPerNode: 1,
			EstRuntime: 50 * sim.Millisecond, QoSWeight: 1,
			Body: func(p *sim.Proc, ctx *sched.RankCtx) {
				stream.run(p, open(p, ctx.Node, "stream", ctx.Job.Spec.QoSWeight), ctx.Rank == 1)
			},
		})
	}
	c.Env.Go("waiter", func(p *sim.Proc) { s.WaitAll(p) })
	c.Env.RunUntil(c.Env.Now() + 5*sim.Second)

	out := &mtScenario{
		p50: quantileNS(samples, 0.50),
		p99: quantileNS(samples, 0.99),
	}
	for _, nd := range c.Nodes {
		out.qosFrags += nd.NIC.Stats().QoSFrags
	}
	st := s.Stats()
	out.finished = st.Finished
	snap := c.Obs.Snapshot(c.Env.Now())
	got, ok := snap.Counter(0, "sched", "jobs_finished")
	jobSent := snap.SumCounter("job", "pingpong/sent")
	out.agree = ok && got == st.Finished && jobSent > 0
	return out
}

// mtMakespan runs a fixed six-job batch (bare scheduler, sleep bodies)
// and returns the makespan plus scheduler counters.
func mtMakespan(backfill bool) (makespan sim.Time, st sched.Stats) {
	env := sim.NewEnv(3)
	s := sched.New(env, 4, 2, backfill)
	ms := sim.Millisecond
	specs := []sched.JobSpec{
		{Name: "wide-a", Ranks: 8, Arrival: 0, EstRuntime: 2 * ms},
		{Name: "half", Ranks: 4, Arrival: 100 * sim.Microsecond, EstRuntime: 5 * ms},
		{Name: "wide-b", Ranks: 8, Arrival: 200 * sim.Microsecond, EstRuntime: 1 * ms},
		{Name: "quick-a", Ranks: 2, Arrival: 300 * sim.Microsecond, EstRuntime: 1 * ms},
		{Name: "quick-b", Ranks: 2, Arrival: 300 * sim.Microsecond, EstRuntime: 2 * ms, Priority: 1},
		{Name: "wide-c", Ranks: 8, Arrival: 400 * sim.Microsecond, EstRuntime: 1 * ms},
	}
	for _, spec := range specs {
		d := spec.EstRuntime
		spec.Body = func(p *sim.Proc, ctx *sched.RankCtx) { p.Sleep(d) }
		s.Submit(spec)
	}
	env.Go("waiter", func(p *sim.Proc) { s.WaitAll(p) })
	env.RunUntil(10 * sim.Second)
	return s.Makespan(), s.Stats()
}

// mtIsolation stages the attacks: a rogue process names a victim's
// buffer (outside its own address space), then the victim's endpoint
// (owned by another PID), then tries to rebind it. Every attempt must
// be rejected by the kernel while the victim's traffic arrives intact.
func mtIsolation() (rejects uint64, byteErrors int, agree bool, tornDown bool) {
	nc := ibcl.DefaultNICConfig()
	nc.QoS = true
	rg := attach(newCluster(cluster.Config{Nodes: 2, Profile: hw.DAWNING3000(), NIC: nc}))
	c := rg.c
	const secretLen = 256
	var done bool
	c.Env.Go("isolation", func(p *sim.Proc) {
		n0 := c.Nodes[0]
		victim := rg.open(p, 0, ibcl.Options{Label: "victim", QoSWeight: 4})
		rogue := rg.open(p, 0, ibcl.Options{Label: "rogue"})
		sink := rg.open(p, 1, ibcl.Options{Label: "sink"})
		victimProc, rogueProc := victim.Process(), rogue.Process()
		// The victim's secret sits far beyond anything the rogue has
		// mapped, so the VA range is meaningful in the victim's space
		// only.
		victimProc.Space.Alloc(1 << 20)
		secret := victimProc.Space.Alloc(secretLen)
		pattern := make([]byte, secretLen)
		for i := range pattern {
			pattern[i] = byte(i*7 + 3)
		}
		if err := victimProc.Space.Write(secret, pattern); err != nil {
			panic(err)
		}

		// Attack 1: a send naming a VA range outside the rogue's
		// address space — the kernel buffer-bounds check rejects it.
		if _, err := rogue.Send(p, sink.Addr(), ibcl.SystemChannel, secret, secretLen, 0); err == nil {
			panic("bench: rogue send of victim VA was admitted")
		}
		// Attack 2: a forged ioctl naming the victim's endpoint — the
		// ownership check rejects it.
		if err := n0.Kernel.CheckEndpointOwner(rogueProc.PID, victim.Addr().Port); err == nil {
			panic("bench: rogue passed the victim's endpoint ownership check")
		}
		// Attack 3: rebinding the victim's endpoint to the rogue.
		if err := n0.Kernel.BindEndpoint(rogueProc.PID, victim.Addr().Port); err == nil {
			panic("bench: rogue rebound the victim's endpoint")
		}

		// The victim's own traffic still flows, byte-exact.
		rva := sink.Process().Space.Alloc(secretLen)
		ch := sink.CreateChannel()
		if err := sink.PostRecv(p, ch, rva, secretLen); err != nil {
			panic(err)
		}
		if _, err := victim.Send(p, sink.Addr(), ch, secret, secretLen, 0); err != nil {
			panic(err)
		}
		sink.WaitRecv(p)
		got, err := sink.Process().Space.Read(rva, secretLen)
		if err != nil {
			panic(err)
		}
		for i := range pattern {
			if got[i] != pattern[i] {
				byteErrors++
			}
		}
		back, err := victimProc.Space.Read(secret, secretLen)
		if err != nil {
			panic(err)
		}
		for i := range pattern {
			if back[i] != pattern[i] {
				byteErrors++
			}
		}

		// Endpoint teardown: closing the rogue's port unbinds it.
		if err := rogue.Close(p); err != nil {
			panic(err)
		}
		tornDown = n0.Kernel.EndpointOwner(rogue.Addr().Port) == 0 &&
			n0.Kernel.EndpointOwner(victim.Addr().Port) == victimProc.PID
		done = true
	})
	c.Env.RunUntil(c.Env.Now() + sim.Second)
	if !done {
		panic("bench: isolation scenario did not finish")
	}
	rejects = c.Nodes[0].Kernel.Stats().SecurityRejects
	snap := c.Obs.Snapshot(c.Env.Now())
	got, ok := snap.Counter(0, "kernel", "security_rejects")
	agree = ok && got == rejects
	return rejects, byteErrors, agree, tornDown
}

// multitenant is the gated multi-tenant experiment.
func multitenant() *Report {
	r := newReport("multitenant", "Multi-tenant cluster: scheduler, endpoint isolation, QoS arbitration")

	alone := mtInterference(false, false)
	shared := mtInterference(false, true)
	qos := mtInterference(true, true)

	fifoSpan, fifoStats := mtMakespan(false)
	bfSpan, bfStats := mtMakespan(true)

	rejects, byteErrors, agree, tornDown := mtIsolation()

	finished := alone.finished + shared.finished + qos.finished +
		fifoStats.Finished + bfStats.Finished

	var b strings.Builder
	b.WriteString("interference: 64B pingpong next to a 48 x 32KB stream hog\n")
	fmt.Fprintf(&b, "  %-22s p50 %8.2f us   p99 %8.2f us\n", "alone (no hog):", us(alone.p50), us(alone.p99))
	fmt.Fprintf(&b, "  %-22s p50 %8.2f us   p99 %8.2f us\n", "shared, FIFO:", us(shared.p50), us(shared.p99))
	fmt.Fprintf(&b, "  %-22s p50 %8.2f us   p99 %8.2f us   (weights 8:1, %d WRR grants)\n",
		"shared, QoS WRR:", us(qos.p50), us(qos.p99), qos.qosFrags)
	if shared.p99 > 0 {
		fmt.Fprintf(&b, "  QoS recovers %.1f%% of the FIFO interference tail\n",
			100*(1-float64(qos.p99-alone.p99)/float64(shared.p99-alone.p99)))
	}
	fmt.Fprintf(&b, "\nbatch makespan, six jobs on 4 nodes x 2 slots:\n")
	fmt.Fprintf(&b, "  strict FIFO: %8.2f ms  (backfills %d)\n", us(fifoSpan)/1000, fifoStats.Backfills)
	fmt.Fprintf(&b, "  backfill:    %8.2f ms  (backfills %d)\n", us(bfSpan)/1000, bfStats.Backfills)
	fmt.Fprintf(&b, "\nisolation: %d kernel security rejects (bad VA, foreign endpoint, rebind), %d byte errors\n",
		rejects, byteErrors)
	r.Text = b.String()

	r.metric("p50_alone_us", us(alone.p50))
	r.metric("p99_alone_us", us(alone.p99))
	r.metric("p50_shared_us", us(shared.p50))
	r.metric("p99_shared_us", us(shared.p99))
	r.metric("p50_qos_us", us(qos.p50))
	r.metric("p99_qos_us", us(qos.p99))
	r.metric("qos_frags", float64(qos.qosFrags))
	r.verdict("qos_beats_fifo", qos.p99 < shared.p99)
	r.metric("makespan_fifo_us", us(fifoSpan))
	r.metric("makespan_backfill_us", us(bfSpan))
	r.metric("backfills", float64(bfStats.Backfills))
	// Every staged attack must be rejected, teardown must unbind, every
	// submitted job must finish, and the QoS/backfill wins must hold.
	r.verdict("backfill_beats_fifo", bfSpan < fifoSpan)
	r.metric("security_rejects", float64(rejects))
	r.metric("byte_errors", float64(byteErrors))
	r.verdict("attacks_rejected", rejects == 3)
	r.verdict("no_byte_errors", byteErrors == 0)
	r.verdict("teardown_ok", tornDown)
	r.verdict("registry_agrees", agree && alone.agree && shared.agree && qos.agree)
	r.metric("finished", float64(finished))
	return r
}
