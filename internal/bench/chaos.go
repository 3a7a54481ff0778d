package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// The chaos harness soaks a 4-node dual-rail cluster with all-to-all
// traffic while a seeded schedule of component outages (single-rail
// link cuts, whole-rail outages, full node isolation) and background
// packet loss plays out. Senders treat EvSendFailed as a transient
// condition: they wait for the peer-health machine to re-admit the
// destination and resend, giving at-least-once delivery that the
// receivers deduplicate by message tag. The run asserts end-to-end
// byte integrity and completion (no deadlock), and reports recovery
// latency and the fault-path NIC counters. Everything — schedule,
// workload, and simulator — is driven by the one seed.

const (
	soakNodes = 4 // the rig chaos and survival share

	chaosRounds  = 12
	chaosMsgSize = 1536

	soakPace = 15 * sim.Millisecond // between rounds, for chaos and survival
)

// chaosResult is everything one soak run produces.
type chaosResult struct {
	soakResult
	outages     int
	recoveries  int
	recSum      sim.Time
	recMax      sim.Time
	failovers   uint64
	outageDrops uint64
	stats       counters
	snap        *obs.Snapshot
	timeline    string
}

// chaosCounterRows are the fault-path counters read back from the
// metrics registry at the end of the soak.
var chaosCounterRows = []counterRow{
	{"nic", "retransmits", "  retransmits", true},
	{"nic", "send_failures", "  send failures", true},
	{"nic", "fast_fails", "  fast-fails (peer dead)", true},
	{"nic", "backoffs", "  backoff arms", true},
	{"nic", "probes", "  probes", false},
	{"nic", "peer_deaths", "  peer deaths", true},
	{"nic", "peer_recoveries", "  peer recoveries", true},
}

// chaosPattern is the deterministic payload byte for message (src,
// dst, round) at offset j — receivers re-derive it to verify
// integrity.
func chaosPattern(src, dst, round, j int) byte {
	return byte(src*7 + dst*13 + round*31 + j*3)
}

// chaosTag packs (src, dst, round) into a message tag.
func chaosTag(src, dst, round int) uint64 {
	return uint64(src)<<32 | uint64(round)<<8 | uint64(dst)
}

// soakResult is what one soak run counts, whatever faults it ran
// under.
type soakResult struct {
	delivered  int  // distinct messages received
	duplicates int  // copies dropped by tag (ACK lost, sender resent)
	corrupt    int  // payloads with a wrong byte or a wrong length
	resends    int  // sends repeated after EvSendFailed
	deadlocked bool // some sender never finished
}

// newSoakRig builds the rig the chaos, survival and healthwatch soaks
// share: a 4-node dual-rail cluster with one BCL port per node, booted
// and sampled on the virtual clock, ready for the caller's fault
// schedule. cfg supplies what the soaks differ in (NIC config,
// profile, seed, watchdog, health engine). tr, if non-nil, is attached
// cluster-wide before boot. The metrics sampler takes one registry
// snapshot every period of virtual time into a ring depth deep, so the
// report can show the fault counters advancing through the fault
// windows.
func newSoakRig(cfg cluster.Config, tr *trace.Tracer, period sim.Time, depth int) *rig {
	cfg.Nodes, cfg.Fabric = soakNodes, cluster.Hetero
	c := newCluster(cfg)
	if tr != nil {
		c.SetTracer(tr)
	}
	r := newRig(c, oneRankPerNode(soakNodes), ibcl.Options{SystemBuffers: 64}, 20*sim.Millisecond)
	c.Obs.StartSampler(c.Env, period, depth)
	return r
}

// soak runs the rig for horizon with paced all-to-all traffic: rounds
// of one msgSize message to every peer, pace apart. Senders treat
// EvSendFailed as transient — wait for the peer-health machine to
// re-admit the destination, then resend (at-least-once; onResend, if
// non-nil, is told how long the wait was). Receivers verify every
// byte and deduplicate by tag. Processes are named prefix-rx<i>/-tx<i>.
func (r *rig) soak(prefix string, msgSize, rounds int, pace, horizon sim.Time, onResend func(wait sim.Time)) soakResult {
	c, ports := r.c, r.ports
	var res soakResult

	expected := (soakNodes - 1) * rounds // per receiver, after dedup
	for i := 0; i < soakNodes; i++ {
		i := i
		pt := ports[i]
		seen := make(map[uint64]bool)
		c.Env.Go(fmt.Sprintf("%s-rx%d", prefix, i), func(p *sim.Proc) {
			for len(seen) < expected {
				ev, ok := pt.TryRecv(p)
				if !ok {
					p.Sleep(200 * sim.Microsecond)
					continue
				}
				if seen[ev.Tag] {
					res.duplicates++ // ACK lost, sender resent: drop the copy
					continue
				}
				seen[ev.Tag] = true
				src := int(ev.Tag >> 32)
				round := int(ev.Tag >> 8 & 0xffffff)
				data, _ := pt.Process().Space.Read(ev.VA, ev.Len)
				bad := ev.Len != msgSize
				for j, bb := range data {
					if bb != chaosPattern(src, i, round, j) {
						bad = true
						break
					}
				}
				if bad {
					res.corrupt++
				}
				res.delivered++
			}
		})
	}

	sendersDone := make([]bool, soakNodes)
	for i := 0; i < soakNodes; i++ {
		i := i
		pt := ports[i]
		c.Env.Go(fmt.Sprintf("%s-tx%d", prefix, i), func(p *sim.Proc) {
			va := pt.Process().Space.Alloc(msgSize)
			buf := make([]byte, msgSize)
			p.Sleep(sim.Time(i) * sim.Millisecond) // de-lockstep the senders
			for round := 0; round < rounds; round++ {
				// Pace the rounds so the soak spans the whole fault
				// schedule instead of finishing before it starts.
				p.Sleep(pace)
				for d := 1; d < soakNodes; d++ {
					dst := (i + d) % soakNodes
					for j := range buf {
						buf[j] = chaosPattern(i, dst, round, j)
					}
					pt.Process().Space.Write(va, buf)
					for {
						_, err := pt.Send(p, ports[dst].Addr(), ibcl.SystemChannel,
							va, msgSize, chaosTag(i, dst, round))
						if err != nil {
							panic(err)
						}
						if pt.WaitSend(p).Type == nic.EvSendDone {
							break
						}
						// The peer is Dead. Wait for probe-driven
						// recovery, then resend (at-least-once).
						t0 := p.Now()
						for !pt.PeerHealthy(ports[dst].Addr().Node) {
							p.Sleep(500 * sim.Microsecond)
						}
						res.resends++
						if onResend != nil {
							onResend(p.Now() - t0)
						}
					}
				}
			}
			sendersDone[i] = true
		})
	}

	c.Env.RunUntil(c.Env.Now() + horizon)
	for _, d := range sendersDone {
		if !d {
			res.deadlocked = true
		}
	}
	if !res.deadlocked {
		// Resource balance at quiesce: every send completed, and the soak
		// posts nothing but the system pool and returns none, whatever was
		// replayed on the way.
		for i, nd := range c.Nodes {
			if err := nd.NIC.Drained(); err != nil {
				panic(fmt.Sprintf("%s soak: node %d: %v", prefix, i, err))
			}
		}
	}
	return res
}

// chaosRun executes one seeded soak.
func chaosRun(seed uint64) *chaosResult {
	cfg := ibcl.DefaultNICConfig()
	cfg.MaxRetries = 4 // peer death in ~6 ms of virtual time
	rig := newSoakRig(cluster.Config{NIC: cfg, Seed: seed}, nil, 20*sim.Millisecond, 32)
	c := rig.c

	// Seeded fault schedule: six outage windows in [20ms, 200ms), and
	// background packet loss on the primary rail for retransmit spice.
	res := &chaosResult{}
	faults := fabric.Schedule{Rules: []fabric.Rule{{P: 0.02, Do: fabric.Drop, Rail: fabric.OnRail(0)}}}
	sched := seed
	for i := 0; i < 6; i++ {
		kind := sim.SplitmixNext(&sched) % 4
		w := fabric.Window{Node: int(sim.SplitmixNext(&sched) % soakNodes)}
		w.From = c.Env.Now() + sim.Time(sim.SplitmixNext(&sched)%uint64(180*sim.Millisecond))
		w.To = w.From + 4*sim.Millisecond + sim.Time(sim.SplitmixNext(&sched)%uint64(8*sim.Millisecond))
		switch kind {
		case 0: // Myrinet link cut: failover keeps the node reachable.
			w.Rail = fabric.OnRail(0)
		case 1: // mesh link cut.
			w.Rail = fabric.OnRail(1)
		case 2: // whole-rail outage.
			w.Node, w.Rail = fabric.AllNodes, fabric.OnRail(int(sim.SplitmixNext(&sched)%2))
		case 3: // both rails: the node is unreachable, peers mark it
			// Dead. Long enough for senders to burn a retry ladder
			// inside the window, so deaths actually happen.
			w.To += 16 * sim.Millisecond
		}
		faults.Windows = append(faults.Windows, w)
	}
	res.outages = len(faults.Windows)
	c.Install(faults)

	res.soakResult = rig.soak("chaos", chaosMsgSize, chaosRounds, soakPace, 2*sim.Second, func(wait sim.Time) {
		res.recoveries++
		res.recSum += wait
		if wait > res.recMax {
			res.recMax = wait
		}
	})
	// Everything below reads from the registry snapshot — the same
	// source cmd/bclbench -metrics prints — not from per-package Stats.
	res.snap = c.Obs.Snapshot(c.Env.Now())
	res.failovers = res.snap.SumCounter("fabric:hetero", "failovers")
	res.outageDrops = res.snap.SumCounterPrefix("fabric:", "outage_drops")
	res.stats = readCounters(res.snap, chaosCounterRows)
	res.timeline = c.Obs.TimelineText([]obs.TimelineCol{
		{Label: "retransmits", Layer: "nic", Name: "retransmits"},
		{Label: "backoffs", Layer: "nic", Name: "backoffs"},
		{Label: "peer_deaths", Layer: "nic", Name: "peer_deaths"},
		{Label: "recoveries", Layer: "nic", Name: "peer_recoveries"},
		{Label: "failovers", Layer: "fabric:hetero", Name: "failovers"},
	})
	return res
}

// chaos runs the seeded chaos soak once.
func chaos(seed uint64) *Report {
	r := newReport("chaos", fmt.Sprintf("Deterministic chaos soak (seed %d)", seed))
	a := chaosRun(seed)

	var sb strings.Builder
	total := soakNodes * (soakNodes - 1) * chaosRounds
	fmt.Fprintf(&sb, "workload: %d nodes all-to-all, %d rounds x %dB = %d messages\n",
		soakNodes, chaosRounds, chaosMsgSize, total)
	fmt.Fprintf(&sb, "faults:   %d outage windows + 2%% loss on the Myrinet rail\n\n", a.outages)
	fmt.Fprintf(&sb, "%-28s %12s\n", "", "run")
	fmt.Fprintf(&sb, "%-28s %12d\n", "delivered (deduped)", a.delivered)
	fmt.Fprintf(&sb, "%-28s %12d\n", "app-level duplicates", a.duplicates)
	fmt.Fprintf(&sb, "%-28s %12d\n", "corrupt payloads", a.corrupt)
	fmt.Fprintf(&sb, "%-28s %12d\n", "sender resends", a.resends)
	fmt.Fprintf(&sb, "%-28s %12d\n", "rail failovers", a.failovers)
	fmt.Fprintf(&sb, "%-28s %12d\n", "fabric outage drops", a.outageDrops)
	if a.recoveries > 0 {
		fmt.Fprintf(&sb, "%-28s %10.2fms\n", "mean recovery latency",
			float64(a.recSum)/float64(a.recoveries)/float64(sim.Millisecond))
		fmt.Fprintf(&sb, "%-28s %10.2fms\n", "max recovery latency",
			float64(a.recMax)/float64(sim.Millisecond))
	}
	fmt.Fprintf(&sb, "\n%-28s %12s\n", "registry counters (nic, all nodes)", "")
	a.stats.text(&sb)
	sb.WriteString("\nfault-counter timeline (20ms virtual-time samples):\n")
	sb.WriteString(a.timeline)
	r.Text = sb.String()
	r.Snap = a.snap
	// Every message arrives, none extra, none damaged.
	r.metric("delivered", float64(a.delivered))
	r.metric("duplicates", float64(a.duplicates))
	r.metric("corrupt", float64(a.corrupt))
	r.metric("resends", float64(a.resends))
	r.metric("failovers", float64(a.failovers))
	a.stats.emit(r)
	r.verdict("no_deadlock", !a.deadlocked)
	r.verdict("no_corrupt_payload", a.corrupt == 0)
	r.verdict("all_delivered", a.delivered == total)
	if a.recoveries > 0 {
		r.metric("max_recovery_ms", float64(a.recMax)/float64(sim.Millisecond))
	}
	return r
}
