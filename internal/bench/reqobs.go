package bench

import (
	"fmt"
	"hash/fnv"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/obs"
	"bcl/internal/obs/health"
	"bcl/internal/obs/reqtrace"
	"bcl/internal/sim"
	"bcl/internal/svc"
	"bcl/internal/trace"
)

// This file is the request-level observability experiment: the svc
// tier instrumented end to end with the reqtrace recorder — tail-
// sampled span trees, histogram exemplars, space-saving heavy-hitter
// sketches and the ranked slow-request log — gated on retention
// guarantees.
//
//   (a) baseline: a uniform open-loop mix; the discretionary sampler
//       retains only slow-relative-to-the-running-quantile traces and
//       the hot-shard divergence rule stays silent;
//   (b) hotkey: half the get/put arrivals redirected onto one key — the
//       sketches converge on it, the hot-shard divergence rule fires,
//       and a deliberately tiny budget exercises the dropped-trace
//       counter;
//   (c) chaos: bursty arrivals, duplicated packets, a shard link
//       outage and contended transactions — every aborted and every
//       >SLO request must be retained, unless the budget is full of
//       traces ranked at least as high, while the retained set stays
//       within budget.
//
// The event fingerprint does not cover bytes rendered on the host, so
// the artifact carries the three phases' slow-request logs, exemplar
// sets and sampling decisions as one digest32.

// reqobsCfg is one instrumented service-tier scenario.
type reqobsCfg struct {
	shards int
	seed   uint64
	pairs  int
	swarmCfg
	hotFrac float64
	faults  fabric.Schedule

	rec      reqtrace.Config
	traceCap int // span cap of the shared trace.Tracer
	slowTop  int // slow-log depth rendered into the artifact
}

// reqobsRes is everything one run exposes to the report.
type reqobsRes struct {
	done, retrans, violations uint64
	p999                      sim.Time

	sampled, dropped, forced   uint64
	retained                   int
	abortsSeen, sloSeen        uint64
	retainedAbort, retainedSLO int
	retainedTop                int // aborts and SLO breaches

	hotKeyShare, hotShardShare int64
	hotFired                   int
	bundleSlow                 bool

	slowLog        string
	samplingDigest uint64
	exemplarDigest digest
	exemplarCount  int
	annotations    int // "# {trace_id=" lines in the OpenMetrics export

	traceSpans   int
	traceDropped uint64

	frames  []string
	drained bool
}

// runReqObs builds a fully instrumented cluster: a capped tracer on
// every layer (ports, NICs, fabric), the reqtrace recorder wired into
// the driver, the servers, the registry and the health engine.
func runReqObs(cfg reqobsCfg) *reqobsRes {
	c := newCluster(cluster.Config{
		Nodes: cfg.shards + 1, Profile: hw.DAWNING3000(),
		NIC: ibcl.DefaultNICConfig(), Seed: cfg.seed, Health: true,
	})
	c.Obs.StartSampler(c.Env, 2*sim.Millisecond, 64)

	tr := trace.NewCapped(cfg.traceCap)
	c.SetTracer(tr)
	rec := reqtrace.New(cfg.rec)
	c.Obs.RegisterCollector(rec.Collector())
	c.Obs.RegisterGaugeCollector(rec.GaugeCollector())
	c.Health.Hot = rec.HotLine
	c.Health.SlowLog = func(n int) []health.SlowEntry { return reqobsSlowEntries(rec, n) }

	w := newSvcWorld(c, cfg.shards, cfg.pairs, 1)
	c.Install(cfg.faults)
	w.bootShards(ibcl.Options{SystemBuffers: 256, Tracer: tr}, svc.ServerConfig{Seed: cfg.seed, ReqObs: rec})

	c.Env.Go("reqobs-driver", func(p *sim.Proc) {
		dcfg := w.driverConfig(cfg.swarmCfg, "reqobs", cfg.seed^0x9e3779b97f4a7c15)
		dcfg.Trace, dcfg.HotFrac, dcfg.ReqObs = true, cfg.hotFrac, rec
		w.drive(p, 0, cfg.shards, ibcl.Options{Label: "reqobs", Tracer: tr}, dcfg)
	})
	w.runToDrain(cfg.start + cfg.window)

	driver := w.drivers[0]
	res := &reqobsRes{drained: w.drained()}
	st := driver.Stats()
	res.done = st.Done
	res.retrans = st.Retransmits
	res.violations = st.Violations
	res.p999 = quantileNS(driver.Samples(), 0.999)

	res.sampled = rec.Sampled()
	res.dropped = rec.Dropped()
	res.forced = rec.ForcedDrops()
	res.retained = len(rec.Retained())
	res.abortsSeen = rec.AbortsSeen()
	res.sloSeen = rec.SLOSeen()
	res.retainedAbort = rec.RetainedWhy("abort")
	res.retainedSLO = rec.RetainedWhy("slo")
	res.retainedTop = rec.RetainedWhy("abort", "slo")
	res.samplingDigest = rec.Digest()
	res.slowLog = rec.SlowLogText(cfg.slowTop)

	res.hotKeyShare = rec.KeyShare()
	res.hotShardShare = rec.ShardShare()
	res.hotFired = c.Health.FiredCount("hot-shard-divergence")
	for _, b := range c.Health.Bundles() {
		if len(b.Slow) > 0 {
			res.bundleSlow = true
		}
	}

	snap := c.Obs.Snapshot(c.Env.Now())
	res.exemplarDigest, res.exemplarCount = exemplarDigest(snap)
	res.annotations = strings.Count(snap.Text(), "# {trace_id=")

	res.traceSpans = len(tr.Spans)
	res.traceDropped = tr.Dropped()
	res.frames = c.Health.Frames()
	return res
}

// reqobsSlowEntries adapts the recorder's slow log to the health
// package's bundle schema (health stays free of a reqtrace import).
func reqobsSlowEntries(rec *reqtrace.Recorder, n int) []health.SlowEntry {
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

// exemplarDigest fingerprints every exemplar in the snapshot (key,
// bucket bound, trace id, value) and counts them. The snapshot is
// sorted, so the fold order is deterministic.
func exemplarDigest(s *obs.Snapshot) (digest, int) {
	h := newDigest()
	count := 0
	for _, hp := range s.Hists {
		for _, bk := range hp.Buckets {
			if bk.Ex == nil {
				continue
			}
			h.mix(uint64(hp.Node))
			for _, ch := range hp.Layer + "/" + hp.Name {
				h.mix(uint64(ch))
			}
			h.mix(uint64(bk.Le), bk.Ex.Trace, uint64(bk.Ex.Value))
			count++
		}
	}
	return h, count
}

// reqobsSchedule derives the chaos fault schedule from the seed.
func reqobsSchedule(seed uint64) fabric.Schedule {
	x := seed ^ 0x0b5e55ab1e
	next := func() uint64 { return sim.SplitmixNext(&x) }
	dup := 4 + int(next()%4)                                           // every 4th..7th packet
	outAt := 14*sim.Millisecond + sim.Time(next()%3)*sim.Millisecond   // 14..16 ms
	outDur := sim.Millisecond + sim.Time(next()%2)*500*sim.Microsecond // 1..1.5 ms
	return fabric.Schedule{
		Rules:   []fabric.Rule{{Every: dup, Do: fabric.Duplicate}},
		Windows: []fabric.Window{{Node: 1, From: outAt, To: outAt + outDur}},
	}
}

// reqobsBaseCfg is the baseline phase: a near-uniform open-loop mix.
//
// The sequential "k%05d" keyspace clusters under the ring hash (FNV of
// near-identical strings), so the keyspace size picks the shard
// spread: 256 keys over 3 shards lands ~39/39/22 — balanced enough
// that the divergence rule stays silent until traffic is skewed.
func reqobsBaseCfg(seed uint64) reqobsCfg {
	return reqobsCfg{
		shards: 3, seed: seed, pairs: 6,
		swarmCfg: swarmCfg{
			users: 1500, arrivalMean: 50 * sim.Microsecond,
			start: 10 * sim.Millisecond, window: 12 * sim.Millisecond,
			getFrac: 0.6, txnFrac: 0.05, keys: 256,
		},
		rec: reqtrace.Config{
			Budget: 48, SlowFactor: 2.0, Quantile: 0.99,
			Warmup: 32, Shards: 3, TopK: 8,
		},
		traceCap: 4096, slowTop: 10,
	}
}

// reqobsHotCfg is the hotkey phase: half the point traffic on one key,
// a tiny budget and an aggressive discretionary policy (anything over
// the running median), so the dropped-trace counter is exercised.
func reqobsHotCfg(seed uint64) reqobsCfg {
	hot := reqobsBaseCfg(seed)
	hot.hotFrac = 0.5
	hot.txnFrac = 0
	hot.rec = reqtrace.Config{
		Budget: 24, SlowFactor: 1.0, Quantile: 0.50,
		Warmup: 16, Shards: 3, TopK: 8,
	}
	return hot
}

// reqobsChaosCfg is the chaos phase: bursty arrivals, duplicated
// packets, a shard link outage and contended cross-shard transactions,
// with a hard SLO.
func reqobsChaosCfg(seed uint64) reqobsCfg {
	return reqobsCfg{
		shards: 3, seed: seed, pairs: 4,
		swarmCfg: swarmCfg{
			users: 1500, arrivalMean: 120 * sim.Microsecond, bursty: true,
			start: 10 * sim.Millisecond, window: 12 * sim.Millisecond,
			getFrac: 0.5, txnFrac: 0.25, keys: 256,
		},
		faults: reqobsSchedule(seed),
		rec: reqtrace.Config{
			Budget: 160, SlowFactor: 2.0, Quantile: 0.99,
			SLO: 10 * sim.Millisecond, Warmup: 32, Shards: 3, TopK: 8,
		},
		traceCap: 4096, slowTop: 10,
	}
}

// ReqObsSlowLog runs the chaos phase once and returns its rendered
// slow-request log — the bcltrace -slow view.
func ReqObsSlowLog(seed uint64) string {
	return runReqObs(reqobsChaosCfg(seed)).slowLog
}

// ReqObsFrames runs the hotkey phase once and returns its bcltop
// frames — the bclbench -watch reqobs replay, with the heavy-hitter
// line and the sampled/dropped trace counters on every frame.
func ReqObsFrames(seed uint64) []string {
	return runReqObs(reqobsHotCfg(seed)).frames
}

// reqObs is the gated request-level observability experiment.
func reqObs(seed uint64) *Report {
	r := newReport("reqobs", "Request-level observability: tail-sampled traces, exemplars, heavy hitters, slow log")

	base := reqobsBaseCfg(seed)
	b1 := runReqObs(base)

	hot := reqobsHotCfg(seed)
	h1 := runReqObs(hot)

	chaosCfg := reqobsChaosCfg(seed)
	dup, out := chaosCfg.faults.Rules[0].Every, chaosCfg.faults.Windows[0]
	c1 := runReqObs(chaosCfg)

	h := fnv.New64a()
	for _, ph := range []*reqobsRes{b1, h1, c1} {
		h.Write([]byte(ph.slowLog))
		fmt.Fprintf(h, "|%016x|%016x", uint64(ph.exemplarDigest), ph.samplingDigest)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "baseline: %d shards, %d users, Poisson mean %.0f us over %d ms\n",
		base.shards, base.users, us(base.arrivalMean), int(base.window/sim.Millisecond))
	fmt.Fprintf(&sb, "  %d reqs  p99.9 %8.2f us  sampled %d  dropped %d  retained %d/%d  hot-shard alerts %d\n",
		b1.done, us(b1.p999), b1.sampled, b1.dropped, b1.retained, base.rec.Budget, b1.hotFired)
	fmt.Fprintf(&sb, "\nhotkey: %.0f%% of point ops on one key, budget %d, retain > running p50\n",
		hot.hotFrac*100, hot.rec.Budget)
	fmt.Fprintf(&sb, "  hot key share %d%%  hot shard share %d%%  hot-shard alerts %d  dropped %d  bundle slow-log %v\n",
		h1.hotKeyShare, h1.hotShardShare, h1.hotFired, h1.dropped, h1.bundleSlow)
	fmt.Fprintf(&sb, "\nchaos (seed %d): bursty, dup every %d pkts, shard%d dark %.0f-%.0fms, SLO %.0fus\n",
		seed, dup, out.Node, us(out.From)/1000, us(out.To)/1000, us(chaosCfg.rec.SLO))
	fmt.Fprintf(&sb, "  %d reqs  p99.9 %8.2f us  retrans %d  aborts seen %d (retained %d)  slo seen %d (retained %d)\n",
		c1.done, us(c1.p999), c1.retrans, c1.abortsSeen, c1.retainedAbort, c1.sloSeen, c1.retainedSLO)
	fmt.Fprintf(&sb, "  retained %d/%d  forced drops %d  exemplars %d (%d annotated)  tracer %d spans (%d evicted)\n",
		c1.retained, chaosCfg.rec.Budget, c1.forced, c1.exemplarCount, c1.annotations, c1.traceSpans, c1.traceDropped)
	fmt.Fprintf(&sb, "\nslow-log/exemplar/sampling digest: %016x\n", h.Sum64())
	fmt.Fprintf(&sb, "\nchaos slow-request log:\n%s", c1.slowLog)
	r.Text = sb.String()

	r.metric("reqs", float64(b1.done))
	r.metric("p999_us", us(b1.p999))
	r.metric("sampled_traces", float64(b1.sampled))
	r.metric("retained_traces", float64(b1.retained))
	r.metric("hot_key_share_pct", float64(h1.hotKeyShare))
	r.metric("hot_shard_share_pct", float64(h1.hotShardShare))
	r.metric("hot_dropped", float64(h1.dropped))
	r.metric("chaos_reqs", float64(c1.done))
	r.metric("chaos_p999_us", us(c1.p999))
	r.metric("chaos_retrans", float64(c1.retrans))
	r.metric("chaos_aborts_seen", float64(c1.abortsSeen))
	r.metric("chaos_slo_seen", float64(c1.sloSeen))
	r.metric("chaos_retained", float64(c1.retained))
	r.metric("chaos_exemplars", float64(c1.exemplarCount))
	r.metric("chaos_exemplars_annotated", float64(c1.annotations))
	r.metric("chaos_trace_evictions", float64(c1.traceDropped))
	r.metric("digest32", float64(uint32(h.Sum64())))
	// Sampling must retain every abort and SLO breach within budget — a
	// class may lose traces only to a budget full of traces ranked at
	// least as high (abort > slo > flagged > retrans > slow) — and the
	// hot-shard rule must fire on the skewed phase only.
	full := chaosCfg.rec.Budget
	r.verdict("hot_rule_fired", h1.hotFired > 0)
	r.verdict("hot_rule_silent_baseline", b1.hotFired == 0)
	r.verdict("bundle_has_slowlog", h1.bundleSlow)
	r.verdict("aborts_all_retained", c1.retainedAbort == int(c1.abortsSeen) || c1.retainedAbort == full)
	r.verdict("slo_all_retained", c1.retainedSLO == int(c1.sloSeen) || c1.retainedTop == full)
	r.verdict("budget_respected", b1.retained <= base.rec.Budget && h1.retained <= hot.rec.Budget && c1.retained <= full)
	r.verdict("trace_cap_respected", c1.traceSpans <= chaosCfg.traceCap)
	r.verdict("linearizable_ok", b1.violations == 0 && h1.violations == 0)
	r.verdict("drained", b1.drained && h1.drained && c1.drained)
	return r
}
