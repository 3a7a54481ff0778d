package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/sched"
	"bcl/internal/sim"
	"bcl/internal/svc"
	"bcl/internal/workloads/openloop"
)

// This file is the service-tier experiment: the sharded RPC/KV store
// of internal/svc under an open-loop client swarm, gated end to end.
//
//   (a) baseline: Poisson arrivals with bounded-Pareto value sizes
//       from a swarm of simulated users multiplexed over per-driver
//       gang-scheduled connections — throughput, tail latency, cache
//       hit rate;
//   (b) interference: the same swarm next to a 32 KB stream hog on the
//       driver's NIC, strict-FIFO send arbitration vs QoS weights
//       (swarm 8 : hog 1) — the request P99.9 must strictly win under
//       QoS;
//   (c) chaos: duplicated packets, a shard link outage and a shard NIC
//       firmware crash (watchdog on, health engine attached) — zero
//       linearizable-read violations, zero half-applied transaction
//       pairs, caches coherent at quiesce.

// ------------------------------------------------ the shared service world
//
// serve, reqobs and rpcflow all run the svc tier on the same four
// pieces — shard boot, fault install, open-loop driver config,
// run-to-drain-then-settle — and differ in how they launch drivers
// (gang-scheduled ranks, a plain process, a traced fixture) and in what
// they observe.

const (
	svcBufSize = 2048
	serveKeys  = 96 // keyspace of every serve scenario
)

// svcWorld is a cluster running the service tier: shard servers on
// nodes 0..shards-1, the ring that places keys on them, transaction key
// pairs whose halves live on different shards, and the drivers the
// experiment has started.
type svcWorld struct {
	*rig
	ring    *svc.Ring
	servers []*svc.Server
	addrs   []ibcl.Addr
	pa, pb  []string
	drivers []*svc.Driver
}

func newSvcWorld(c *cluster.Cluster, shards, pairs, drivers int) *svcWorld {
	w := &svcWorld{rig: attach(c), ring: svc.NewRing(shards, 64), drivers: make([]*svc.Driver, drivers)}
	w.pa, w.pb = w.ring.CrossPairs(pairs)
	return w
}

// startShards boots the shard servers from the setup process p: plain
// processes (they are the service itself, not a scheduled tenant).
// scfg carries what the experiments differ in (seed, request recorder).
func (w *svcWorld) startShards(p *sim.Proc, opts ibcl.Options, scfg svc.ServerConfig) {
	scfg.Ring, scfg.AuthSeed = w.ring, 0xbc1
	servers, err := svc.StartShards(p, w.sys, opts, svcBufSize, scfg)
	if err != nil {
		panic("bench: " + err.Error())
	}
	w.servers = servers
	for _, s := range servers {
		w.addrs = append(w.addrs, s.Addr())
	}
}

// bootShards starts the shards and advances the clock a millisecond at
// a time until they are up.
func (w *svcWorld) bootShards(opts ibcl.Options, scfg svc.ServerConfig) {
	booted := false
	w.c.Env.Go("svc-setup", func(p *sim.Proc) {
		w.startShards(p, opts, scfg)
		booted = true
	})
	for i := 0; i < 100 && !booted; i++ {
		w.c.Env.RunUntil(w.c.Env.Now() + sim.Millisecond)
	}
	if !booted {
		panic("bench: service shards did not boot")
	}
}

// swarmCfg is the open-loop traffic one driver generates: a swarm of
// simulated users, the arrival process, the op mix over the keyspace
// and the measurement window.
type swarmCfg struct {
	users       int
	arrivalMean sim.Time
	bursty      bool
	start       sim.Time
	window      sim.Time
	getFrac     float64
	txnFrac     float64
	keys        int
}

// driverConfig is the svc.DriverConfig of one driver of the swarm:
// Poisson or bursty arrivals and bounded-Pareto value sizes, both
// seeded from dseed.
func (w *svcWorld) driverConfig(t swarmCfg, name string, dseed uint64) svc.DriverConfig {
	var arrivals svc.Arrivals
	if t.bursty {
		arrivals = openloop.NewBursty(dseed, t.arrivalMean/2, t.arrivalMean/8, 400, 100)
	} else {
		arrivals = openloop.NewPoisson(dseed, t.arrivalMean)
	}
	return svc.DriverConfig{
		Shards: w.addrs, Ring: w.ring,
		Users: t.users, UserName: name,
		AuthSeed: 0xbc1, Seed: dseed,
		Arrivals: arrivals,
		Sizes:    openloop.NewBoundedPareto(dseed^0x5e, 16, 1024, 1.3),
		Keys:     t.keys, GetFrac: t.getFrac, TxnFrac: t.txnFrac,
		PairA: w.pa, PairB: w.pb,
		Start: t.start, Duration: t.window,
	}
}

// drive opens driver i's port on node n and runs the driver to
// completion in the calling process — a gang-scheduled rank for serve,
// a plain process for reqobs.
func (w *svcWorld) drive(p *sim.Proc, i, n int, opts ibcl.Options, dcfg svc.DriverConfig) {
	opts.SystemBuffers, opts.SystemBufSize = 256, svcBufSize
	w.drivers[i] = svc.NewDriver(p, w.open(p, n, opts), svcBufSize, dcfg)
	w.drivers[i].Run(p)
}

// drained reports whether every driver has started, stopped generating
// and had every request answered.
func (w *svcWorld) drained() bool {
	for _, d := range w.drivers {
		if d == nil || d.Generating() || !d.Drained() {
			return false
		}
	}
	return true
}

// runToDrain runs until the swarm drains (checked every millisecond
// once the window has closed at end, for at most 2 s more), then
// settles so trailing invalidations and 2PC acks land (quiesce).
func (w *svcWorld) runToDrain(end sim.Time) {
	env := w.c.Env
	for env.Now() < end+2*sim.Second {
		env.RunUntil(env.Now() + sim.Millisecond)
		if env.Now() >= end && w.drained() {
			break
		}
	}
	env.RunUntil(env.Now() + 30*sim.Millisecond)
}

// ------------------------------------------------------- serve scenarios

// serveCfg is one service-tier scenario.
type serveCfg struct {
	shards      int
	driverNodes int
	seed        uint64
	pairs       int
	swarmCfg    // per driver node

	qos bool // NIC QoS WRR (else strict FIFO)
	hog bool // 32 KB stream hog on driver node 0

	watchdog bool
	health   bool
	faults   fabric.Schedule
}

// serveRes is everything a scenario run exposes to the report.
type serveRes struct {
	p50, p99, p999 sim.Time
	reqsPerSec     float64

	done, retrans      uint64
	hits, misses       uint64
	violations, aborts uint64
	committed, dedup   uint64

	atomicity   bool // every txn pair byte-identical across shards
	coherent    bool // every cached entry matches its shard's version
	drained     bool
	sloAlerts   int
	abortAlerts int
}

// runServe builds a fresh cluster, starts the shard servers, drives
// the swarm through the gang scheduler, and settles to quiesce.
func runServe(cfg serveCfg) *serveRes {
	nc := ibcl.DefaultNICConfig()
	nc.QoS = cfg.qos
	c := newCluster(cluster.Config{
		Nodes: cfg.shards + cfg.driverNodes, Profile: hw.DAWNING3000(),
		NIC: nc, Seed: cfg.seed, Watchdog: cfg.watchdog, Health: cfg.health,
	})
	if cfg.health {
		c.Obs.StartSampler(c.Env, 5*sim.Millisecond, 64)
	}
	w := newSvcWorld(c, cfg.shards, cfg.pairs, cfg.driverNodes)
	c.Install(cfg.faults)
	w.bootShards(ibcl.Options{SystemBuffers: 256}, svc.ServerConfig{Seed: cfg.seed})

	// The swarm rides the gang scheduler: one rank per driver node,
	// each multiplexing cfg.users simulated users over a single
	// QoS-weighted connection per shard.
	s := sched.New(c.Env, c.Size(), 4, false)
	c.Obs.RegisterCollector(s.Collect)
	driverNodes := make([]int, cfg.driverNodes)
	for i := range driverNodes {
		driverNodes[i] = cfg.shards + i
	}
	s.Submit(sched.JobSpec{
		Name: "swarm", Ranks: cfg.driverNodes, Nodes: driverNodes, RanksPerNode: 1,
		EstRuntime: cfg.window + 100*sim.Millisecond, Priority: 1, QoSWeight: 8,
		Body: func(p *sim.Proc, ctx *sched.RankCtx) {
			dseed := cfg.seed ^ uint64(ctx.Rank+1)*0x9e3779b97f4a7c15
			w.drive(p, ctx.Rank, ctx.Node,
				ibcl.Options{Label: "swarm", QoSWeight: ctx.Job.Spec.QoSWeight},
				w.driverConfig(cfg.swarmCfg, fmt.Sprintf("swarm%d", ctx.Rank), dseed))
		},
	})

	// Stream through the measurement window so every swarm request
	// contends with a bulk transfer on its NIC.
	hog := streamHog{msgs: 200, startAt: cfg.start}
	if cfg.hog {
		// Placement sorts the node list, so the rank on the driver node
		// (the higher id) is the sender: the stream must contend with
		// swarm requests at the driver NIC's send arbitration.
		s.Submit(sched.JobSpec{
			Name: "hog", Ranks: 2, Nodes: []int{0, cfg.shards}, RanksPerNode: 1,
			EstRuntime: cfg.window, QoSWeight: 1,
			Body: func(p *sim.Proc, ctx *sched.RankCtx) {
				pt := w.open(p, ctx.Node, ibcl.Options{SystemBuffers: 16, Label: "hog", QoSWeight: 1})
				hog.run(p, pt, ctx.Node != cfg.shards)
			},
		})
	}

	w.runToDrain(cfg.start + cfg.window)

	servers, ring := w.servers, w.ring
	res := &serveRes{atomicity: true, coherent: true, drained: w.drained()}
	var samples []sim.Time
	for _, d := range w.drivers {
		if d == nil {
			continue
		}
		st := d.Stats()
		res.done += st.Done
		res.retrans += st.Retransmits
		res.hits += st.CacheHits
		res.misses += st.Misses
		res.violations += st.Violations
		res.aborts += st.TxnAborts
		samples = append(samples, d.Samples()...)
		// Coherence at quiesce: every cached version must equal the
		// owning shard's committed version.
		for key, ver := range d.CacheSnapshot() {
			if _, want := servers[ring.Shard(key)].Peek(key); ver != want {
				res.coherent = false
			}
		}
	}
	for _, sv := range servers {
		committed, _, _ := sv.Stats()
		res.committed += committed
		res.dedup += sv.DedupReplays()
	}
	// Atomicity at quiesce: both halves of every transaction pair hold
	// identical bytes (or neither exists).
	for i := range w.pa {
		va, vera := servers[ring.Shard(w.pa[i])].Peek(w.pa[i])
		vb, verb := servers[ring.Shard(w.pb[i])].Peek(w.pb[i])
		if (vera == 0) != (verb == 0) || string(va) != string(vb) {
			res.atomicity = false
		}
	}
	res.p50 = quantileNS(samples, 0.50)
	res.p99 = quantileNS(samples, 0.99)
	res.p999 = quantileNS(samples, 0.999)
	if cfg.window > 0 {
		res.reqsPerSec = float64(res.done) / (float64(cfg.window) / float64(sim.Second))
	}
	if c.Health != nil {
		res.sloAlerts = c.Health.FiredCount("svc-slo-burn")
		res.abortAlerts = c.Health.FiredCount("txn-abort-rate")
	}
	return res
}

// serveSchedule derives the chaos phase's fault schedule from the
// seed: which nth packet duplicates, when shard 1's link goes dark and
// for how long, and when shard 2's firmware dies.
func serveSchedule(seed uint64) fabric.Schedule {
	x := seed
	next := func() uint64 { return sim.SplitmixNext(&x) }
	dup := 3 + int(next()%5)                                         // every 3rd..7th packet
	outAt := 8*sim.Millisecond + sim.Time(next()%6)*sim.Millisecond  // 8..13 ms
	outDur := 3*sim.Millisecond + sim.Time(next()%3)*sim.Millisecond // 3..5 ms
	return fabric.Schedule{
		Rules:   []fabric.Rule{{Every: dup, Do: fabric.Duplicate}},
		Windows: []fabric.Window{{Node: 1, From: outAt, To: outAt + outDur}},
		Crashes: []fabric.Crash{{Node: 2, At: 16*sim.Millisecond + sim.Time(next()%5)*sim.Millisecond}},
	}
}

// serve is the gated service-tier experiment.
func serve(seed uint64) *Report {
	r := newReport("serve", "Service tier: sharded RPC/KV, transactions, open-loop swarm")

	base := serveCfg{
		shards: 3, driverNodes: 2, seed: seed, pairs: 12,
		swarmCfg: swarmCfg{
			users: 12000, arrivalMean: 60 * sim.Microsecond,
			start: 10 * sim.Millisecond, window: 25 * sim.Millisecond,
			getFrac: 0.6, txnFrac: 0.1, keys: serveKeys,
		},
	}
	baseline := runServe(base)

	// Interference: one driver node, faster arrivals, a 32 KB stream
	// hog sharing its NIC. FIFO vs QoS WRR (weights 8:1).
	intf := serveCfg{
		shards: 2, driverNodes: 1, seed: seed, pairs: 2,
		swarmCfg: swarmCfg{
			users: 8000, arrivalMean: 50 * sim.Microsecond,
			start: 10 * sim.Millisecond, window: 20 * sim.Millisecond,
			getFrac: 0.6, txnFrac: 0, keys: serveKeys,
		},
		hog: true,
	}
	fifo := runServe(intf)
	intf.qos = true
	qos := runServe(intf)

	// Chaos: duplicates + a shard link outage + a shard firmware crash
	// under the watchdog, health engine attached.
	faults := serveSchedule(seed)
	chaosCfg := serveCfg{
		shards: 3, driverNodes: 2, seed: seed, pairs: 12,
		swarmCfg: swarmCfg{
			users: 6000, arrivalMean: 160 * sim.Microsecond, bursty: true,
			start: 10 * sim.Millisecond, window: 25 * sim.Millisecond,
			getFrac: 0.5, txnFrac: 0.2, keys: serveKeys,
		},
		watchdog: true, health: true, faults: faults,
	}
	chaos := runServe(chaosCfg)

	var b strings.Builder
	fmt.Fprintf(&b, "baseline: %d shards, %d driver nodes x %d users, Poisson mean %.0f us, pareto 16..1024 B\n",
		base.shards, base.driverNodes, base.users, us(base.arrivalMean))
	fmt.Fprintf(&b, "  %d reqs (%.0f reqs/s)  p50 %8.2f us  p99 %8.2f us  p99.9 %8.2f us\n",
		baseline.done, baseline.reqsPerSec, us(baseline.p50), us(baseline.p99), us(baseline.p999))
	fmt.Fprintf(&b, "  cache hit rate %.1f%%  txns committed %d  aborted %d\n",
		100*float64(baseline.hits)/float64(baseline.hits+baseline.misses+1),
		baseline.committed, baseline.aborts)
	fmt.Fprintf(&b, "\ninterference: swarm next to a 200 x 32KB stream hog on its NIC\n")
	fmt.Fprintf(&b, "  %-18s p99 %8.2f us   p99.9 %8.2f us\n", "strict FIFO:", us(fifo.p99), us(fifo.p999))
	fmt.Fprintf(&b, "  %-18s p99 %8.2f us   p99.9 %8.2f us   (weights 8:1)\n", "QoS WRR:", us(qos.p99), us(qos.p999))
	fmt.Fprintf(&b, "\nchaos (seed %d): dup every %d pkts, shard1 link dark %.0f-%.0fms, shard2 firmware crash @%.0fms\n",
		seed, faults.Rules[0].Every, us(faults.Windows[0].From)/1000, us(faults.Windows[0].To)/1000, us(faults.Crashes[0].At)/1000)
	fmt.Fprintf(&b, "  %d reqs  p99.9 %8.2f us  retransmits %d  dedup replays %d\n",
		chaos.done, us(chaos.p999), chaos.retrans, chaos.dedup)
	fmt.Fprintf(&b, "  txns committed %d aborted %d; slo-burn alerts %d, txn-abort alerts %d\n",
		chaos.committed, chaos.aborts, chaos.sloAlerts, chaos.abortAlerts)
	r.Text = b.String()

	r.metric("reqs", float64(baseline.done))
	r.metric("reqs_per_sec", baseline.reqsPerSec)
	r.metric("p50_us", us(baseline.p50))
	r.metric("p99_us", us(baseline.p99))
	r.metric("p999_us", us(baseline.p999))
	r.metric("cache_hit_pct", 100*float64(baseline.hits)/float64(baseline.hits+baseline.misses+1))
	r.metric("txn_committed", float64(baseline.committed))
	r.metric("p999_fifo_us", us(fifo.p999))
	r.metric("p999_qos_us", us(qos.p999))
	r.verdict("qos_beats_fifo", qos.p999 < fifo.p999)
	r.metric("chaos_reqs", float64(chaos.done))
	r.metric("chaos_p999_us", us(chaos.p999))
	r.metric("chaos_retransmits", float64(chaos.retrans))
	r.metric("chaos_txn_committed", float64(chaos.committed))
	r.metric("chaos_txn_aborted", float64(chaos.aborts))
	r.metric("slo_alerts", float64(chaos.sloAlerts))
	// Every request answered (the open loop drained), no monotonic-read
	// violation; and, read at quiesce, so judged only on a drained
	// world: no half-applied transaction pair, caches coherent.
	r.verdict("swarm_drained", baseline.drained && fifo.drained && qos.drained && chaos.drained)
	r.verdict("linearizable_ok", baseline.violations+fifo.violations+qos.violations+chaos.violations == 0)
	r.Verdicts = append(r.Verdicts,
		Verdict{Name: "atomicity_ok", OK: baseline.atomicity && chaos.atomicity, Needs: "swarm_drained"},
		Verdict{Name: "coherent_caches", OK: baseline.coherent && fifo.coherent && qos.coherent && chaos.coherent, Needs: "swarm_drained"})
	return r
}
