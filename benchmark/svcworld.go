package main

import (
	"fmt"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/obs/health"
	"bcl/internal/obs/reqtrace"
	"bcl/internal/sim"
	"bcl/internal/svc"
	"bcl/internal/trace"
	"bcl/internal/workloads/openloop"
)

// The service-tier mix is the gated `serve` baseline: 3 shard servers,
// 2 driver nodes of 12 000 users each, 60 % reads, 10 % cross-shard
// transactions, bounded-Pareto 16–1024 B values over 96 keys.
const (
	svcShards  = 3
	svcDrivers = 2
	svcUsers   = 12000
	svcKeys    = 96
	svcPairs   = 12
	svcGetFrac = 0.6
	svcTxnFrac = 0.1
	// svcBufSize is each port's system-buffer size. The `serve` gate
	// uses 2048, which the largest transaction request (two copies of a
	// value of up to 1024 B) does not fit: its NIC is NACKed forever and
	// the flow behind it never recovers (see README, "wear-out"). 4096
	// holds every request the mix can produce.
	svcBufSize  = 4096
	svcAuthSeed = 0xbc1
	svcBoot     = 10 * sim.Millisecond // sessions are up before the first arrival
	svcSettle   = 30 * sim.Millisecond // trailing invalidations and 2PC acks land
	svcHorizon  = 2 * sim.Second       // a backlog older than this never drains
	svcGap33k   = 60 * sim.Microsecond // per-driver Poisson mean: ≈33k req/s offered
	traceCap    = 4096
)

// svcEpoch is one fresh service cluster and the open-loop window it
// serves. Observability off is the bypass; on is the full stack as the
// `reqobs` experiment wires it.
type svcEpoch struct {
	world
	window  sim.Time
	servers []*svc.Server
	drivers []*svc.Driver
	ring    *svc.Ring
	pa, pb  []string
}

// epochSeed derives epoch i's seed; svc_observed replays svc_openloop's
// first epochs byte for byte because both use the same derivation.
func epochSeed(seed uint64, i int) uint64 {
	return sim.Splitmix64(seed ^ uint64(i+1)*0x9e3779b97f4a7c15)
}

// epochSpec describes one epoch to build.
type epochSpec struct {
	seed     uint64
	window   sim.Time // arrivals are generated for this long
	gap      sim.Time // per-driver mean inter-arrival time
	slice    sim.Time // virtual length of one timed batch
	observed bool
	bufSize  int           // system-buffer bytes; 0 means svcBufSize
	tr       *trace.Tracer // uncapped tracer a traced pass attaches to an unobserved epoch
}

// newSvcEpoch builds the cluster and runs it to the first arrival.
func newSvcEpoch(spec epochSpec) (*svcEpoch, error) {
	seed, window, observed, tr := spec.seed, spec.window, spec.observed, spec.tr
	bufSize := spec.bufSize
	if bufSize == 0 {
		bufSize = svcBufSize
	}
	c := cluster.New(cluster.Config{
		Nodes: svcShards + svcDrivers, NIC: ibcl.DefaultNICConfig(),
		Seed: seed, Health: observed,
	})
	var rec *reqtrace.Recorder
	if observed {
		c.Obs.StartSampler(c.Env, 2*sim.Millisecond, 64)
		tr = trace.NewCapped(traceCap)
		rec = reqtrace.New(reqtrace.Config{
			Budget: 48, SlowFactor: 2.0, Quantile: 0.99, Warmup: 32, Shards: svcShards, TopK: 8,
		})
		c.Obs.RegisterCollector(rec.Collector())
		c.Obs.RegisterGaugeCollector(rec.GaugeCollector())
		c.Health.Hot = rec.HotLine
		c.Health.SlowLog = func(n int) []health.SlowEntry { return slowEntries(rec, n) }
	}
	c.SetTracer(tr)

	e := &svcEpoch{
		world:   world{c: c, t: &tally{}, tr: tr},
		window:  window,
		servers: make([]*svc.Server, svcShards),
		drivers: make([]*svc.Driver, svcDrivers),
		ring:    svc.NewRing(svcShards, 64),
	}
	e.sync = e.pull
	for i := 0; len(e.pa) < svcPairs; i++ {
		a, b := fmt.Sprintf("pa%04d", i), fmt.Sprintf("pb%04d", i)
		if e.ring.Shard(a) != e.ring.Shard(b) {
			e.pa, e.pb = append(e.pa, a), append(e.pb, b)
		}
	}

	// Every node opens its own port (in parallel on the virtual clock,
	// so all sessions are up well before the first arrival), waits for
	// the shard addresses, then becomes its server or driver loop.
	sys := ibcl.NewSystem(c)
	addrs := make([]ibcl.Addr, svcShards)
	opened, ready := 0, sim.NewCond(c.Env)
	var bootErr error
	for i := 0; i < svcShards+svcDrivers; i++ {
		c.Env.Go(fmt.Sprintf("svc-node%d", i), func(p *sim.Proc) {
			o := ibcl.Options{SystemBuffers: 256, SystemBufSize: bufSize, Tracer: tr}
			if i >= svcShards {
				o.Label = "swarm"
			}
			pt, err := sys.Open(p, c.Nodes[i], c.Nodes[i].Kernel.Spawn(), o)
			if err != nil {
				bootErr = fmt.Errorf("open port on node %d: %w", i, err)
				return
			}
			if i < svcShards {
				addrs[i] = pt.Addr()
			}
			if opened++; opened == svcShards+svcDrivers {
				ready.Broadcast()
			}
			for opened < svcShards+svcDrivers {
				ready.Wait(p)
			}
			if i < svcShards {
				e.servers[i] = svc.NewServer(p, pt, bufSize, svc.ServerConfig{
					Index: i, Shards: addrs, Ring: e.ring,
					AuthSeed: svcAuthSeed, Seed: seed, ReqObs: rec,
				})
				e.servers[i].Run(p)
			}
			d := i - svcShards
			dseed := seed ^ uint64(d+1)*0x9e3779b97f4a7c15
			e.drivers[d] = svc.NewDriver(p, pt, bufSize, svc.DriverConfig{
				Shards: addrs, Ring: e.ring,
				Users: svcUsers, UserName: fmt.Sprintf("swarm%d", d),
				AuthSeed: svcAuthSeed, Seed: dseed,
				Arrivals: openloop.NewPoisson(dseed, spec.gap),
				Sizes:    openloop.NewBoundedPareto(dseed^0x5e, 16, 1024, 1.3),
				Keys:     svcKeys, GetFrac: svcGetFrac, TxnFrac: svcTxnFrac,
				PairA: e.pa, PairB: e.pb,
				Start: svcBoot, Duration: window,
				Trace: observed, ReqObs: rec,
			})
			e.drivers[d].Run(p)
		})
	}
	c.Env.RunUntil(svcBoot - 1)
	for _, d := range e.drivers {
		if bootErr == nil && d == nil {
			bootErr = fmt.Errorf("service tier not up %d ns into the run", svcBoot)
		}
	}
	return e, bootErr
}

// pull copies the drivers' progress into the tally: answered requests
// and their latencies (stamped from the due time, so generator lag and
// queueing count).
func (e *svcEpoch) pull() {
	var done uint64
	for _, d := range e.drivers {
		done += d.Stats().Done
	}
	e.t.ops = done
}

// served reports whether the window has closed and nothing is owed.
func (e *svcEpoch) served() bool {
	if e.c.Env.Now() < svcBoot+e.window {
		return false
	}
	for _, d := range e.drivers {
		if d.Generating() || !d.Drained() {
			return false
		}
	}
	return true
}

// svcCheck is what one epoch's quiesce check found.
type svcCheck struct {
	issued, backlog                     uint64 // backlog: issued − done when the window closed
	hits, misses, retrans, aborts, txns uint64
	violations, unanswered              uint64
	drained, atomic, coherent           bool
}

// settle lets trailing protocol traffic land, then verifies the epoch:
// every request answered, no monotonic-read or read-your-writes breach,
// both halves of every transaction pair byte-identical, every cached
// version equal to its shard's. A broken invariant fails the whole
// epoch: none of its answers can be trusted.
func (e *svcEpoch) settle(backlog uint64) svcCheck {
	e.c.Env.RunUntil(e.c.Env.Now() + svcSettle)
	ck := svcCheck{backlog: backlog, drained: e.served(), atomic: true, coherent: true}
	e.t.lat = e.t.lat[:0]
	for _, d := range e.drivers {
		st := d.Stats()
		ck.issued += st.Issued
		ck.unanswered += st.Issued - st.Done
		ck.hits += st.CacheHits
		ck.misses += st.Misses
		ck.retrans += st.Retransmits
		ck.aborts += st.TxnAborts
		ck.violations += st.Violations
		e.t.lat = append(e.t.lat, d.Samples()...)
		for key, ver := range d.CacheSnapshot() {
			if _, want := e.servers[e.ring.Shard(key)].Peek(key); ver != want {
				ck.coherent = false
			}
		}
	}
	for _, sv := range e.servers {
		committed, aborted, _ := sv.Stats()
		ck.txns += committed + aborted
	}
	for i := range e.pa {
		va, vera := e.servers[e.ring.Shard(e.pa[i])].Peek(e.pa[i])
		vb, verb := e.servers[e.ring.Shard(e.pb[i])].Peek(e.pb[i])
		if (vera == 0) != (verb == 0) || string(va) != string(vb) {
			ck.atomic = false
		}
	}
	e.pull()
	if !ck.drained || !ck.atomic || !ck.coherent {
		e.t.failed, e.t.ops = ck.issued, 0
	} else {
		e.t.failed = ck.violations + ck.unanswered
		e.t.ops -= min(e.t.ops, ck.violations)
	}
	return ck
}

// slowEntries adapts the recorder's slow log to the health bundle
// schema, as the reqobs experiment does.
func slowEntries(rec *reqtrace.Recorder, n int) []health.SlowEntry {
	var out []health.SlowEntry
	for _, q := range rec.SlowLog(n) {
		e := health.SlowEntry{
			Flow: fmt.Sprintf("%x", q.Flow), Kind: q.Kind, Key: q.Key,
			User: q.User, Node: q.Node, Shard: q.Shard,
			LatNs: int64(q.Latency), Why: q.Why,
			Retrans: q.Retrans, Aborted: q.Aborted,
		}
		for _, s := range q.Spans {
			e.Phases = append(e.Phases, health.FlowSpan{
				Stage: s.Stage, Where: s.Where,
				StartNs: int64(s.Start), EndNs: int64(s.End),
			})
		}
		out = append(out, e)
	}
	return out
}
