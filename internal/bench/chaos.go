package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/sim"
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
// workload, and simulator — is driven by the one seed, so two runs
// with the same seed must produce identical digests.

const (
	soakNodes = 4 // the rig chaos and survival share

	chaosRounds  = 12
	chaosMsgSize = 1536
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
	stats       chaosCounters
	snap        *obs.Snapshot
	timeline    string
	flight      string
}

// chaosCounters are the fault-path counters read back from the metrics
// registry at the end of the soak (one source of truth: the same
// snapshot the -metrics flag prints).
type chaosCounters struct {
	retransmits, sendFailures, fastFails, backoffs uint64
	probes, peerDeaths, peerRecoveries             uint64
}

// chaosCountersFrom pulls the fault-path totals out of a registry
// snapshot.
func chaosCountersFrom(s *obs.Snapshot) chaosCounters {
	return chaosCounters{
		retransmits:    s.SumCounter("nic", "retransmits"),
		sendFailures:   s.SumCounter("nic", "send_failures"),
		fastFails:      s.SumCounter("nic", "fast_fails"),
		backoffs:       s.SumCounter("nic", "backoffs"),
		probes:         s.SumCounter("nic", "probes"),
		peerDeaths:     s.SumCounter("nic", "peer_deaths"),
		peerRecoveries: s.SumCounter("nic", "peer_recoveries"),
	}
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

// soakResult is what one soakRig run counts, whatever faults it ran
// under.
type soakResult struct {
	digest     uint64 // per-port arrival digests and the three counts below, folded in fixed order
	delivered  int    // distinct messages received
	duplicates int    // copies dropped by tag (ACK lost, sender resent)
	corrupt    int    // payloads with a wrong byte or a wrong length
	resends    int    // sends repeated after EvSendFailed
	deadlocked bool   // some sender never finished
}

// soakRig is the workload the chaos and survival soaks share: a 4-node
// dual-rail cluster with one BCL port per node, booted and sampled
// every 20 ms of virtual time, ready for the caller's fault schedule.
type soakRig struct {
	c     *cluster.Cluster
	hf    *hetero.Fabric
	ports []*ibcl.Port
}

// newSoakRig builds the rig; cfg supplies what the soaks differ in
// (NIC config, profile, seed, watchdog).
func newSoakRig(cfg cluster.Config) *soakRig {
	cfg.Nodes, cfg.Fabric = soakNodes, cluster.Hetero
	c := newCluster(cfg)
	r := &soakRig{c: c, hf: c.Fabric.(*hetero.Fabric), ports: make([]*ibcl.Port, soakNodes)}
	sys := ibcl.NewSystem(c)
	c.Env.Go("setup", func(p *sim.Proc) {
		for i := range r.ports {
			proc := c.Nodes[i].Kernel.Spawn()
			r.ports[i], _ = sys.Open(p, c.Nodes[i], proc, ibcl.Options{SystemBuffers: 64})
		}
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	for _, pt := range r.ports {
		if pt == nil {
			panic("bench: soak rig setup failed")
		}
	}
	// Metrics sampler: one registry snapshot every 20 ms of virtual
	// time, so the report can show the fault counters advancing through
	// the fault windows.
	c.Obs.StartSampler(c.Env, 20*sim.Millisecond, 32)
	return r
}

// run soaks the rig for horizon with paced all-to-all traffic: rounds
// of one msgSize message to every peer, 15 ms apart. Senders treat
// EvSendFailed as transient — wait for the peer-health machine to
// re-admit the destination, then resend (at-least-once; onResend, if
// non-nil, is told how long the wait was). Receivers verify every
// byte, deduplicate by tag and fold arrivals into a per-port
// order-dependent digest. Processes are named prefix-rx<i>/-tx<i>.
func (r *soakRig) run(prefix string, msgSize, rounds int, horizon sim.Time, onResend func(wait sim.Time)) soakResult {
	const prime = 0x100000001b3
	c, ports := r.c, r.ports
	var res soakResult

	digests := make([]uint64, soakNodes)
	expected := (soakNodes - 1) * rounds // per receiver, after dedup
	for i := 0; i < soakNodes; i++ {
		i := i
		pt := ports[i]
		seen := make(map[uint64]bool)
		c.Env.Go(fmt.Sprintf("%s-rx%d", prefix, i), func(p *sim.Proc) {
			digests[i] = 0xcbf29ce484222325
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
				sum := uint64(0)
				bad := ev.Len != msgSize
				for j, bb := range data {
					if bb != chaosPattern(src, i, round, j) {
						bad = true
						break
					}
					sum += uint64(bb)
				}
				if bad {
					res.corrupt++
				}
				res.delivered++
				digests[i] = (digests[i] ^ ev.Tag) * prime
				digests[i] = (digests[i] ^ uint64(ev.Len)) * prime
				digests[i] = (digests[i] ^ sum) * prime
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
				p.Sleep(15 * sim.Millisecond)
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
	h := uint64(0xcbf29ce484222325)
	for _, d := range digests {
		h = (h ^ d) * prime
	}
	h = (h ^ uint64(res.delivered)) * prime
	h = (h ^ uint64(res.duplicates)) * prime
	h = (h ^ uint64(res.corrupt)) * prime
	res.digest = h
	return res
}

// chaosRun executes one seeded soak.
func chaosRun(seed uint64) *chaosResult {
	cfg := ibcl.DefaultNICConfig()
	cfg.MaxRetries = 4 // peer death in ~6 ms of virtual time
	rig := newSoakRig(cluster.Config{NIC: cfg, Seed: seed})
	c, hf := rig.c, rig.hf

	// Seeded fault schedule: six outage windows in [20ms, 200ms).
	res := &chaosResult{}
	sched := seed
	for i := 0; i < 6; i++ {
		kind := sim.SplitmixNext(&sched) % 4
		node := int(sim.SplitmixNext(&sched) % soakNodes)
		start := c.Env.Now() + sim.Time(sim.SplitmixNext(&sched)%uint64(180*sim.Millisecond))
		dur := 4*sim.Millisecond + sim.Time(sim.SplitmixNext(&sched)%uint64(8*sim.Millisecond))
		switch kind {
		case 0: // Myrinet link cut: failover keeps the node reachable.
			hf.Rail(0).LinkDown(node, start, start+dur)
		case 1: // mesh link cut.
			hf.Rail(1).LinkDown(node, start, start+dur)
		case 2: // whole-rail outage.
			hf.RailDown(int(sim.SplitmixNext(&sched)%2), start, start+dur)
		case 3: // both rails: the node is unreachable, peers mark it
			// Dead. Long enough for senders to burn a retry ladder
			// inside the window, so deaths actually happen.
			dur += 16 * sim.Millisecond
			hf.Rail(0).LinkDown(node, start, start+dur)
			hf.Rail(1).LinkDown(node, start, start+dur)
		}
		res.outages++
	}
	// Background packet loss on the primary rail for retransmit spice.
	if f, ok := hf.Rail(0).(interface{ SetFault(fabric.Fault) }); ok {
		f.SetFault(fabric.RandomLoss(0.02))
	}

	res.soakResult = rig.run("chaos", chaosMsgSize, chaosRounds, 2*sim.Second, func(wait sim.Time) {
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
	res.stats = chaosCountersFrom(res.snap)
	res.timeline = c.Obs.TimelineText([]obs.TimelineCol{
		{Label: "retransmits", Layer: "nic", Name: "retransmits"},
		{Label: "backoffs", Layer: "nic", Name: "backoffs"},
		{Label: "peer_deaths", Layer: "nic", Name: "peer_deaths"},
		{Label: "recoveries", Layer: "nic", Name: "peer_recoveries"},
		{Label: "failovers", Layer: "fabric:hetero", Name: "failovers"},
	})
	res.flight = c.Obs.Rec.Text(16)
	return res
}

// Chaos runs the soak with the default seed.
func Chaos() *Report { return ChaosSeeded(1) }

// ChaosSeeded runs the seeded chaos soak TWICE and checks the two runs
// are bit-identical — the determinism the whole simulator promises.
func ChaosSeeded(seed uint64) *Report {
	r := newReport("chaos", fmt.Sprintf("Deterministic chaos soak (seed %d)", seed))
	a := chaosRun(seed)
	b := chaosRun(seed)
	deterministic := a.digest == b.digest && a.delivered == b.delivered &&
		a.resends == b.resends && a.stats == b.stats

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
	fmt.Fprintf(&sb, "%-28s %12v\n", "deadlocked", a.deadlocked)
	if a.recoveries > 0 {
		fmt.Fprintf(&sb, "%-28s %10.2fms\n", "mean recovery latency",
			float64(a.recSum)/float64(a.recoveries)/float64(sim.Millisecond))
		fmt.Fprintf(&sb, "%-28s %10.2fms\n", "max recovery latency",
			float64(a.recMax)/float64(sim.Millisecond))
	}
	sb.WriteString("\n" + faultCountersText(a.stats))
	sb.WriteString("\nfault-counter timeline (20ms virtual-time samples, run 1):\n")
	sb.WriteString(a.timeline)
	fmt.Fprintf(&sb, "\ndigest: %016x (run 1) / %016x (run 2) -> deterministic: %v\n",
		a.digest, b.digest, deterministic)
	if !deterministic || a.deadlocked || a.corrupt > 0 || a.delivered != total {
		sb.WriteString("\n*** CHAOS SOAK FAILED ***\n")
		sb.WriteString("\n" + a.flight)
	}
	r.Text = sb.String()
	r.Snap = a.snap
	r.metric("delivered", float64(a.delivered))
	r.metric("duplicates", float64(a.duplicates))
	r.metric("corrupt", float64(a.corrupt))
	r.metric("resends", float64(a.resends))
	r.metric("failovers", float64(a.failovers))
	r.metric("peer_deaths", float64(a.stats.peerDeaths))
	r.metric("peer_recoveries", float64(a.stats.peerRecoveries))
	r.metric("retransmits", float64(a.stats.retransmits))
	r.metric("send_failures", float64(a.stats.sendFailures))
	r.metric("fast_fails", float64(a.stats.fastFails))
	r.metric("backoffs", float64(a.stats.backoffs))
	r.metric("deterministic", b2f(deterministic))
	r.metric("deadlocked", b2f(a.deadlocked))
	if a.recoveries > 0 {
		r.metric("max_recovery_ms", float64(a.recMax)/float64(sim.Millisecond))
	}
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
