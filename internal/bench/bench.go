// Package bench is the experiment harness: it rebuilds every table and
// figure of the paper's evaluation section (Table 1-3, Figures 5-9)
// plus the ablations called out in DESIGN.md, as formatted reports
// with machine-readable key metrics. Both the root testing.B
// benchmarks and cmd/bclbench drive it.
package bench

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"bcl/internal/amii"
	ibcl "bcl/internal/bcl"
	"bcl/internal/bip"
	"bcl/internal/cluster"
	"bcl/internal/hw"
	"bcl/internal/klc"
	"bcl/internal/mem"
	"bcl/internal/mpi"
	"bcl/internal/obs"
	"bcl/internal/obs/prof"
	"bcl/internal/pvm"
	"bcl/internal/sim"
	"bcl/internal/trace"
	"bcl/internal/ulc"
)

// Report is one reproduced experiment.
type Report struct {
	ID      string
	Title   string
	Text    string
	Metrics map[string]float64

	// Artifact names the report's benchmark artifact,
	// BENCH_<Artifact>.json: the gate name of a gated experiment, the
	// id of any other. Run sets it.
	Artifact string

	// Snap is the merged registry snapshot over every cluster the
	// experiment built (captured by Run when the experiment did not set
	// one itself). Summary is its one-line digest.
	Snap    *obs.Snapshot
	Summary string

	// Flight is the concatenated flight-recorder contents of every
	// cluster the experiment built — the evidence a gate-failure
	// postmortem bundle dumps.
	Flight []obs.Event

	// Attribution and LogP carry the structured profiler outputs of the
	// profile/logp experiments (nil elsewhere); the benchmark artifact
	// embeds them.
	Attribution *prof.Profile
	LogP        *prof.LogGP

	// Events and EventFP are the events executed and their fingerprint
	// (sim.Env.Fingerprint) over every cluster the experiment built:
	// summed, and folded in build order. The artifact carries both;
	// TestEventOrder holds every experiment's to a golden at seeds 1, 7
	// and 42.
	Events  uint64
	EventFP uint64
}

func (r *Report) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Text)
}

// metric records a key number; a gated experiment's -check reproduces
// it byte for byte.
func (r *Report) metric(k string, v float64) { r.Metrics[k] = v }

// flag records a pass/fail correctness indicator as 0/1.
func (r *Report) flag(k string, ok bool) {
	v := 0.0
	if ok {
		v = 1
	}
	r.metric(k, v)
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: make(map[string]float64)}
}

// experiments is every experiment in paper order: id, aliases, listing
// title, the artifact name -check gates it under ("" = not gated), and
// its constructor — run, or seeded for the experiments whose
// fault/traffic schedule honors -seed. Exactly one of the two is set.
var experiments = []struct {
	id      string
	aliases []string
	title   string
	gate    string
	run     func() *Report
	seeded  func(seed uint64) *Report
}{
	{id: "table1", title: "Comparison of three communication architectures", run: table1},
	{id: "overheads", title: "Processor overheads (send/completion/receive)", run: overheads},
	{id: "fig5", aliases: []string{"figure5"}, title: "Transmission timeline for a BCL message", run: figure5},
	{id: "fig6", aliases: []string{"figure6"}, title: "Reception timeline for a BCL message", run: figure6},
	{id: "fig7", aliases: []string{"figure7"}, title: "One-way latency timeline, 0-length message", run: figure7},
	{id: "fig8", aliases: []string{"figure8"}, title: "Latency vs message size", run: figure8},
	{id: "fig9", aliases: []string{"figure9"}, title: "Bandwidth vs message size", run: figure9},
	{id: "table2", title: "Comparison of communication protocols", run: table2},
	{id: "table3", title: "Performance of BCL and MPI/PVM over BCL", run: table3},
	{id: "fabrics", title: "BCL over Myrinet, nwrc mesh, and the composite", run: fabrics},
	{id: "scale", title: "Collective scaling to the full 70-node machine", gate: "scale", run: scale},
	{id: "pingpong", title: "BCL ping-pong with cluster-wide metrics registry", gate: "pingpong", run: pingPong},
	{id: "flowtrace", title: "Causal flow trace of one message (forced retransmission)", run: flowTrace},
	{id: "ablation-pio", title: "PIO cost sweep", run: ablationPIO},
	{id: "ablation-cpu", title: "Host CPU speed sweep", run: ablationCPU},
	{id: "ablation-reliability", title: "Reliable vs raw firmware", run: ablationReliability},
	{id: "ablation-kernelpath", title: "Kernel path vs bandwidth", run: ablationKernelPath},
	{id: "ablation-pipeline", title: "Intra-node pipelining", run: ablationPipeline},
	{id: "ablation-window", title: "Go-back-N window sweep", run: ablationWindow},
	{id: "ablation-intrapath", title: "Intra-node strategies: loopback vs shm vs direct", gate: "intrapath", run: ablationIntraPath},
	{id: "chaos", title: "Deterministic chaos soak", gate: "chaos", seeded: chaos},
	{id: "survival", title: "Survivable NIC gauntlet: crash recovery, corruption, gray failures", gate: "survival", seeded: survival},
	{id: "collectives", title: "NIC-offloaded collectives vs host algorithms", gate: "collectives", seeded: collectives},
	{id: "collflow", title: "Causal flow trace of one offloaded broadcast + barrier", run: collFlow},
	{id: "crashflow", title: "Causal flow trace of one message across a firmware crash + recovery", run: crashFlow},
	{id: "profile", title: "Virtual-time attribution of one eager send", gate: "profile", run: profile},
	{id: "logp", title: "LogP/LogGP parameters extracted from profiler spans", gate: "logp", run: logP},
	{id: "multitenant", aliases: []string{"mt"}, title: "Multi-tenant cluster: scheduler, endpoint isolation, QoS arbitration", gate: "multitenant", run: multitenant},
	{id: "healthwatch", aliases: []string{"health"}, title: "Cluster health engine: clean silence, fault alerts, postmortem bundles", gate: "healthwatch", seeded: healthWatch},
	{id: "serve", aliases: []string{"svc"}, title: "Service tier: sharded RPC/KV, transactions, open-loop swarm", gate: "serve", seeded: serve},
	{id: "reqobs", aliases: []string{"reqtrace"}, title: "Request-level observability: tail-sampled traces, exemplars, heavy hitters, slow log", gate: "reqobs", seeded: reqObs},
	{id: "rpcflow", title: "Causal flow trace of one cross-shard transaction (2PC over BCL)", run: rpcFlow},
}

// Info describes one registered experiment for listings.
type Info struct {
	ID      string
	Aliases []string
	Title   string
	Seeded  bool   // honors -seed (fault/traffic schedule variants)
	Gate    string // -check compares it against baselines/BENCH_<Gate>.json ("" = not gated)
}

// List returns every registered experiment in paper order.
func List() []Info {
	var out []Info
	for _, e := range experiments {
		out = append(out, Info{ID: e.id, Aliases: e.aliases, Title: e.title, Seeded: e.seeded != nil, Gate: e.gate})
	}
	return out
}

// All runs every experiment in paper order, the seeded ones at seed.
func All(seed uint64) []*Report {
	var out []*Report
	for _, e := range experiments {
		out = append(out, Run(e.id, seed))
	}
	return out
}

// Run runs the experiment with the given id or alias (nil if unknown),
// at seed where the experiment takes one. Every report comes through
// here, so its snapshot, one-line summary, prose and artifact all
// derive from the same capture.
func Run(id string, seed uint64) *Report {
	id = strings.ToLower(id)
	for _, e := range experiments {
		if e.id != id && !slices.Contains(e.aliases, id) {
			continue
		}
		built = nil
		var r *Report
		if e.seeded != nil {
			r = e.seeded(seed)
		} else {
			r = e.run()
		}
		r.Artifact = e.id
		if e.gate != "" {
			r.Artifact = e.gate
		}
		capture(r)
		built = nil
		return r
	}
	return nil
}

// IDs lists the experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	sort.Strings(ids)
	return ids
}

// ChromeJSON reruns the traced scenario behind a timeline or flow
// experiment and renders its spans as Chrome trace-event JSON (for
// chrome://tracing / Perfetto; "bcl-flow" arrows follow each message
// across the host, NIC and wire rows).
func ChromeJSON(id string) ([]byte, error) {
	var tr *trace.Tracer
	switch id {
	case "fig5", "fig6", "fig7":
		tr, _, _ = tracedMessage(0, nil)
	case "flowtrace":
		tr, _, _ = tracedMessage(0, dropFirstTracedData())
	case "collflow":
		tr = collFlowTraced()
	case "crashflow":
		tr, _, _ = crashFlowTracedMessage()
	case "rpcflow":
		tr, _, _ = rpcFlowRun()
	default:
		return nil, fmt.Errorf("bench: experiment %q has no trace to render", id)
	}
	return tr.ChromeTrace()
}

// built tracks every cluster an experiment constructs, so the harness
// can merge their registries into the report's snapshot. The bench
// package runs experiments sequentially (like the simulator, it is
// single-threaded by design).
var built []*cluster.Cluster

// newCluster is cluster.New plus harness tracking.
func newCluster(cfg cluster.Config) *cluster.Cluster {
	c := cluster.New(cfg)
	built = append(built, c)
	return c
}

// capture merges the tracked clusters' registries into the report (if
// the experiment did not attach a snapshot itself), derives the
// one-line summary and records which events the clusters executed.
func capture(r *Report) {
	fp := newDigest()
	for _, c := range built {
		r.Events += c.Env.Steps()
		fp.mix(c.Env.Fingerprint())
	}
	r.EventFP = uint64(fp)
	if r.Snap == nil {
		snaps := make([]*obs.Snapshot, 0, len(built))
		for _, c := range built {
			snaps = append(snaps, c.Obs.Snapshot(c.Env.Now()))
		}
		r.Snap = obs.Merge(snaps...)
	}
	if r.Flight == nil {
		for _, c := range built {
			r.Flight = append(r.Flight, c.Obs.Rec.Events()...)
		}
	}
	if r.Summary == "" {
		r.Summary = summaryLine(r.Snap)
	}
}

// summaryLine renders the one-line metrics digest printed after every
// benchmark: message and retransmit totals plus latency quantiles from
// the merged end-to-end histogram.
func summaryLine(s *obs.Snapshot) string {
	if s == nil {
		return "metrics: (none)"
	}
	h := s.MergedHist("nic", "msg_latency_ns")
	line := fmt.Sprintf("metrics: msgs=%d retransmits=%d",
		s.SumCounter("nic", "msgs_sent"), s.SumCounter("nic", "retransmits"))
	if h.Count > 0 {
		line += fmt.Sprintf(" p50=%.1fus p99=%.1fus p999=%.1fus",
			float64(h.P50())/1000, float64(h.P99())/1000, float64(h.P999())/1000)
	}
	return line
}

func us(t sim.Time) float64 { return float64(t) / 1000 }

func mbps(bytes int, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (float64(d) / float64(sim.Second)) / 1e6
}

// digest is a word-at-a-time FNV-1a fold: of the clusters' event
// fingerprints into Report.EventFP, and of exemplar sets into reqobs's
// digest32.
type digest uint64

func newDigest() digest { return 0xcbf29ce484222325 }

func (d *digest) mix(vs ...uint64) {
	for _, v := range vs {
		*d = (*d ^ digest(v)) * 0x100000001b3
	}
}

// counterRow is one registry counter an experiment reads back at the
// end of a run (one source of truth: the same snapshot the -metrics
// flag prints): where it lives, the report's label for it ("" = not
// printed) and whether it is emitted as a metric under its own name.
type counterRow struct {
	layer, name, label string
	metric             bool
}

// counters are the cluster-wide sums of a row table, in table order.
type counters struct {
	rows []counterRow
	vals []uint64
}

func readCounters(s *obs.Snapshot, rows []counterRow) counters {
	c := counters{rows: rows, vals: make([]uint64, len(rows))}
	for i, row := range rows {
		c.vals[i] = s.SumCounter(row.layer, row.name)
	}
	return c
}

func (c counters) get(name string) uint64 {
	for i, row := range c.rows {
		if row.name == name {
			return c.vals[i]
		}
	}
	panic("bench: counter " + name + " is not in the row table")
}

// text renders the labelled rows as report lines.
func (c counters) text(b *strings.Builder) {
	for i, row := range c.rows {
		if row.label != "" {
			fmt.Fprintf(b, "%-28s %12d\n", row.label, c.vals[i])
		}
	}
}

// emit records the metric rows on the report.
func (c counters) emit(r *Report) {
	for i, row := range c.rows {
		if row.metric {
			r.metric(row.name, float64(c.vals[i]))
		}
	}
}

// ------------------------------------------------------ BCL measurers

// bclLatency, bclBandwidth and bclPingPong apply the three
// methodologies to a fresh stock BCL pair.
func bclLatency(prof *hw.Profile, intra bool, size int) sim.Time {
	return bclPair(prof, intra).pair().warmLatency(size)
}

func bclBandwidth(prof *hw.Profile, intra bool, size, msgs int) float64 {
	return bclPair(prof, intra).pair().stream(size, msgs)
}

func bclPingPong(prof *hw.Profile, size int) sim.Time {
	return bclPair(prof, false).pair().pingPong(size, 1, 6)
}

// ------------------------------------------------------ ULC measurers

// ulcPair boots two user-level ports on cfg's cluster (the GM-like
// library, and BIP through its own NIC config and profile).
func ulcPair(cfg cluster.Config) pair {
	c := newCluster(cfg)
	sys := ulc.NewSystem(c)
	var pa, pb *ulc.Port
	c.Env.Go("setup", func(p *sim.Proc) {
		pa, _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn(), 64)
		pb, _ = sys.Open(p, c.Nodes[1], c.Nodes[1].Kernel.Spawn(), 64)
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	if pa == nil || pb == nil {
		panic("bench: ULC rig setup failed")
	}
	a, b := ulcSides(pa, pb)
	return pair{c, a, b}
}

func gmConfig(prof *hw.Profile) cluster.Config {
	return cluster.Config{Nodes: 2, Profile: prof, NIC: ulc.NICConfig()}
}

func bipConfig() cluster.Config {
	return cluster.Config{Nodes: 2, Profile: bip.Profile(), NIC: bip.NICConfig()}
}

func ulcPingPong(prof *hw.Profile, size int) sim.Time {
	return ulcPair(gmConfig(prof)).pingPong(size, 1, 6)
}

// ------------------------------------------------------ KLC measurers

func klcPair(prof *hw.Profile) (c *cluster.Cluster, a, b *klc.Socket) {
	c = newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: klc.NICConfig()})
	sys := klc.NewSystem(c)
	c.Env.Go("setup", func(p *sim.Proc) {
		a, _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn())
		b, _ = sys.Open(p, c.Nodes[1], c.Nodes[1].Kernel.Spawn())
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	return c, a, b
}

func klcLatency(prof *hw.Profile, size int) sim.Time {
	c, a, b := klcPair(prof)
	const iters = 4
	bufN := bufFor(size)
	sendAt := make([]sim.Time, iters)
	var warm sim.Time
	c.Env.Go("send", func(p *sim.Proc) {
		src := a.Space().Alloc(bufN)
		for i := 0; i < iters; i++ {
			sendAt[i] = p.Now()
			a.SendTo(p, b.Addr(), src, size)
			p.Sleep(500 * sim.Microsecond)
		}
	})
	c.Env.Go("recv", func(p *sim.Proc) {
		dst := b.Space().Alloc(bufN)
		for i := 0; i < iters; i++ {
			b.Recv(p, dst, bufN)
			warm = p.Now() - sendAt[i]
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return warm
}

func klcBandwidth(prof *hw.Profile, size, msgs int) float64 {
	c, a, b := klcPair(prof)
	var start, end sim.Time
	c.Env.Go("send", func(p *sim.Proc) {
		src := a.Space().Alloc(size)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			a.SendTo(p, b.Addr(), src, size)
		}
	})
	c.Env.Go("recv", func(p *sim.Proc) {
		dst := b.Space().Alloc(size)
		for i := 0; i < msgs; i++ {
			b.Recv(p, dst, size)
		}
		end = p.Now()
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(msgs*size, end-start)
}

// ----------------------------------------------------- AMII measurers

func amiiPair(prof *hw.Profile) (c *cluster.Cluster, a, b *amii.Endpoint) {
	c = newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: amii.NICConfig()})
	sys := amii.NewSystem(c)
	c.Env.Go("setup", func(p *sim.Proc) {
		a, _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn(), 8)
		b, _ = sys.Open(p, c.Nodes[1], c.Nodes[1].Kernel.Spawn(), 8)
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	return c, a, b
}

func amiiPingPong(prof *hw.Profile, size int) sim.Time {
	c, a, b := amiiPair(prof)
	const iters = 4
	var rtt sim.Time
	c.Env.Go("b", func(p *sim.Proc) {
		b.SetHandler(1, func(hp *sim.Proc, src amii.Addr, arg uint64, off int, data []byte) {
			b.Request(hp, src, 1, arg, data)
		})
		for {
			b.Poll(p)
		}
	})
	c.Env.Go("a", func(p *sim.Proc) {
		got := false
		a.SetHandler(1, func(hp *sim.Proc, src amii.Addr, arg uint64, off int, data []byte) {
			got = true
		})
		payload := make([]byte, size)
		ping := func() {
			got = false
			a.Request(p, b.Addr(), 1, 0, payload)
			for !got {
				a.Poll(p)
			}
		}
		ping()
		start := p.Now()
		for i := 0; i < iters; i++ {
			ping()
		}
		rtt = (p.Now() - start) / iters
	})
	c.Env.RunUntil(c.Env.Now() + sim.Second)
	return rtt / 2
}

func amiiBandwidth(prof *hw.Profile, total int) float64 {
	c, a, b := amiiPair(prof)
	received := 0
	var start, end sim.Time
	c.Env.Go("b", func(p *sim.Proc) {
		dst := b.Process().Space.Alloc(total)
		b.SetHandler(2, func(hp *sim.Proc, src amii.Addr, arg uint64, off int, data []byte) {
			b.Node().Memcpy(hp, len(data))
			b.Process().Space.Write(dst+mem.VAddr(off), data)
			received += len(data)
		})
		for received < total {
			b.Poll(p)
		}
		end = p.Now()
	})
	c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(total)
		start = p.Now()
		a.Bulk(p, b.Addr(), 2, 0, va, total)
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(total, end-start)
}

// ------------------------------------------------------ MPI/PVM rigs

// pairJob is the cluster config and boot horizon of a two-rank job on
// the stock machine.
func pairJob(prof *hw.Profile) (cluster.Config, sim.Time) {
	return cluster.Config{Nodes: 2, Profile: prof, NIC: ibcl.DefaultNICConfig()}, 50 * sim.Millisecond
}

func mpiJob(prof *hw.Profile, intra bool) (*cluster.Cluster, []*mpi.Comm) {
	cfg, boot := pairJob(prof)
	return mpiComms(cfg, pairPlace(intra), boot)
}

func mpiLatency(prof *hw.Profile, intra bool) sim.Time {
	c, comms := mpiJob(prof, intra)
	const iters = 8
	var rtt sim.Time
	c.Env.Go("r0", func(p *sim.Proc) {
		s := comms[0].Device().Port().Process().Space.Alloc(8)
		r := comms[0].Device().Port().Process().Space.Alloc(8)
		comms[0].Send(p, s, 1, 1, 0)
		comms[0].Recv(p, r, 8, 1, 0)
		start := p.Now()
		for i := 0; i < iters; i++ {
			comms[0].Send(p, s, 1, 1, 0)
			comms[0].Recv(p, r, 8, 1, 0)
		}
		rtt = (p.Now() - start) / iters
	})
	c.Env.Go("r1", func(p *sim.Proc) {
		s := comms[1].Device().Port().Process().Space.Alloc(8)
		r := comms[1].Device().Port().Process().Space.Alloc(8)
		for i := 0; i < iters+1; i++ {
			comms[1].Recv(p, r, 8, 0, 0)
			comms[1].Send(p, s, 1, 0, 0)
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return rtt / 2
}

func mpiBandwidth(prof *hw.Profile, intra bool, size, msgs int) float64 {
	c, comms := mpiJob(prof, intra)
	var start, end sim.Time
	c.Env.Go("r0", func(p *sim.Proc) {
		va := comms[0].Device().Port().Process().Space.Alloc(size)
		comms[0].Send(p, va, size, 1, 0)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			comms[0].Send(p, va, size, 1, 0)
		}
	})
	c.Env.Go("r1", func(p *sim.Proc) {
		va := comms[1].Device().Port().Process().Space.Alloc(size)
		comms[1].Recv(p, va, size, 0, 0)
		for i := 0; i < msgs; i++ {
			comms[1].Recv(p, va, size, 0, 0)
		}
		end = p.Now()
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(msgs*size, end-start)
}

func pvmJob(prof *hw.Profile, intra bool) (*cluster.Cluster, [2]*pvm.Task) {
	cfg, boot := pairJob(prof)
	c, devs := mpiWorld(cfg, pairPlace(intra), boot)
	return c, [2]*pvm.Task{pvm.NewTask(devs[0]), pvm.NewTask(devs[1])}
}

func pvmLatency(prof *hw.Profile, intra bool) sim.Time {
	c, tasks := pvmJob(prof, intra)
	const iters = 8
	var rtt sim.Time
	c.Env.Go("t0", func(p *sim.Proc) {
		ping := func() {
			tasks[0].InitSend(pvm.DataRaw).PackInt64(1)
			tasks[0].Send(p, pvm.Tid(1), 0)
			tasks[0].Recv(p, pvm.Tid(1), 0)
		}
		ping()
		start := p.Now()
		for i := 0; i < iters; i++ {
			ping()
		}
		rtt = (p.Now() - start) / iters
	})
	c.Env.Go("t1", func(p *sim.Proc) {
		for i := 0; i < iters+1; i++ {
			tasks[1].Recv(p, pvm.Tid(0), 0)
			tasks[1].InitSend(pvm.DataRaw).PackInt64(1)
			tasks[1].Send(p, pvm.Tid(0), 0)
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return rtt / 2
}

func pvmBandwidth(prof *hw.Profile, intra bool, size, msgs int) float64 {
	c, tasks := pvmJob(prof, intra)
	var start, end sim.Time
	c.Env.Go("t0", func(p *sim.Proc) {
		va := tasks[0].Device().Port().Process().Space.Alloc(size)
		send := func() {
			tasks[0].InitSend(pvm.DataInPlace)
			tasks[0].SetInPlace(va, size)
			tasks[0].Send(p, pvm.Tid(1), 0)
		}
		send()
		start = p.Now()
		for i := 0; i < msgs; i++ {
			send()
		}
	})
	c.Env.Go("t1", func(p *sim.Proc) {
		va := tasks[1].Device().Port().Process().Space.Alloc(size)
		tasks[1].RecvInto(p, pvm.Tid(0), 0, va, size)
		for i := 0; i < msgs; i++ {
			tasks[1].RecvInto(p, pvm.Tid(0), 0, va, size)
		}
		end = p.Now()
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(msgs*size, end-start)
}
