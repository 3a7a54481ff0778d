package bench

import (
	"fmt"
	"hash/fnv"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/obs/health"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// The healthwatch experiment gates the cluster health engine end to
// end, in two phases driven by one seed:
//
// Clean phase — a 4-node dual-rail cluster runs paced all-to-all
// traffic with the health engine attached and NO faults. The default
// rule set must stay silent: zero alert transitions. This pins the
// rule bounds above anything a healthy run produces, so alerts mean
// something.
//
// Fault phase — the same rig plus the survival-style injectors: one
// seeded firmware crash (the kernel watchdog heals it), random bit
// corruption on the Myrinet rail, and a gray window in which that rail
// runs slow but alive. Three specific rules must fire — crc-spike,
// watchdog-trip and rail-divergence — each at an exact virtual
// timestamp, and the first firing must emit a bcl-postmortem/v1
// bundle.
//
// The whole experiment runs twice; the alert timelines and the bundle
// bytes must match bit for bit — alerts ride the virtual clock, so
// "when did it fire" is reproducible evidence, not a race.

const (
	hwNodes   = 4
	hwRounds  = 8
	hwMsgSize = 1024
	hwPace    = 8 * sim.Millisecond
)

// hwResult is everything one phase run produces.
type hwResult struct {
	transitions []health.Transition
	timeline    string
	top         string
	frames      []string
	bundle      []byte // first postmortem bundle, encoded
	bundles     int
	fired       map[string]int // firing-transition count per rule
	delivered   int
	resends     int
	samples     int
	deadlocked  bool
	snap        *obs.Snapshot
}

// healthRun executes one phase: the shared rig, plus the fault
// schedule when fault is set.
func healthRun(seed uint64, fault bool) *hwResult {
	cfg := ibcl.DefaultNICConfig()
	c := newCluster(cluster.Config{
		Nodes: hwNodes, Fabric: cluster.Hetero, Profile: survProfile(),
		NIC: cfg, Seed: seed, Watchdog: true, Health: true,
	})
	hf := c.Fabric.(*hetero.Fabric)
	tr := trace.New()
	c.SetTracer(tr)
	sys := ibcl.NewSystem(c)

	ports := make([]*ibcl.Port, hwNodes)
	c.Env.Go("setup", func(p *sim.Proc) {
		for i := 0; i < hwNodes; i++ {
			proc := c.Nodes[i].Kernel.Spawn()
			ports[i], _ = sys.Open(p, c.Nodes[i], proc, ibcl.Options{SystemBuffers: 64})
		}
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	for _, pt := range ports {
		if pt == nil {
			panic("bench: healthwatch rig setup failed")
		}
	}
	c.Obs.StartSampler(c.Env, 5*sim.Millisecond, 64)
	base := c.Env.Now()

	if fault {
		// One seeded firmware crash: the watchdog-trip rule must catch
		// the kernel healing it.
		sched := seed ^ 0x9e3779b97f4a7c15
		node := int(sim.SplitmixNext(&sched) % hwNodes)
		at := base + 25*sim.Millisecond + sim.Time(sim.SplitmixNext(&sched)%uint64(8*sim.Millisecond))
		c.Nodes[node].NIC.CrashAt(at)
		// Bit flips on the Myrinet rail: crc-spike must see the drops.
		if f, ok := hf.Rail(0).(interface{ SetFault(fabric.Fault) }); ok {
			f.SetFault(fabric.RandomCorrupt(0.05))
		}
		// A gray window: the Myrinet rail runs 64x slow but alive, so its
		// windowed P99 wire time diverges from the mesh rail's.
		hf.RailSlow(0, base+50*sim.Millisecond, base+80*sim.Millisecond, 64)
	}

	res := &hwResult{fired: make(map[string]int)}
	seen := make([]map[uint64]bool, hwNodes)
	for i := range seen {
		seen[i] = make(map[uint64]bool)
	}
	expected := (hwNodes - 1) * hwRounds
	for i := 0; i < hwNodes; i++ {
		i := i
		pt := ports[i]
		c.Env.Go(fmt.Sprintf("hw-rx%d", i), func(p *sim.Proc) {
			for len(seen[i]) < expected {
				ev, ok := pt.TryRecv(p)
				if !ok {
					p.Sleep(200 * sim.Microsecond)
					continue
				}
				if seen[i][ev.Tag] {
					continue
				}
				seen[i][ev.Tag] = true
				res.delivered++
			}
		})
	}
	sendersDone := make([]bool, hwNodes)
	for i := 0; i < hwNodes; i++ {
		i := i
		pt := ports[i]
		c.Env.Go(fmt.Sprintf("hw-tx%d", i), func(p *sim.Proc) {
			va := pt.Process().Space.Alloc(hwMsgSize)
			p.Sleep(sim.Time(i) * sim.Millisecond) // de-lockstep the senders
			for round := 0; round < hwRounds; round++ {
				p.Sleep(hwPace)
				for d := 1; d < hwNodes; d++ {
					dst := (i + d) % hwNodes
					for {
						_, err := pt.Send(p, ports[dst].Addr(), ibcl.SystemChannel,
							va, hwMsgSize, chaosTag(i, dst, round))
						if err != nil {
							panic(err)
						}
						if pt.WaitSend(p).Type == nic.EvSendDone {
							break
						}
						for !pt.PeerHealthy(ports[dst].Addr().Node) {
							p.Sleep(500 * sim.Microsecond)
						}
						res.resends++
					}
				}
			}
			sendersDone[i] = true
		})
	}

	// Traffic spans ~70 ms; the horizon leaves room for retransmit
	// stragglers and lets the rule series settle back to healthy.
	c.Env.RunUntil(c.Env.Now() + 120*sim.Millisecond)
	for _, d := range sendersDone {
		if !d {
			res.deadlocked = true
		}
	}

	eng := c.Health
	res.transitions = append(res.transitions, eng.Transitions()...)
	res.timeline = eng.TimelineText()
	res.top = eng.TopText()
	res.frames = eng.Frames()
	res.bundles = len(eng.Bundles())
	for _, t := range res.transitions {
		if t.Firing {
			res.fired[t.Rule]++
		}
	}
	if bs := eng.Bundles(); len(bs) > 0 {
		data, err := bs[0].Encode()
		if err != nil {
			panic(err)
		}
		res.bundle = data
	}
	res.samples = len(eng.Series("crc-spike")) + 1
	res.snap = c.Obs.Snapshot(c.Env.Now())
	return res
}

// hwOnce runs both phases for one seed.
type hwOnce struct {
	clean  *hwResult
	faulty *hwResult
	digest uint64
}

func runHealthWatchOnce(seed uint64) *hwOnce {
	o := &hwOnce{clean: healthRun(seed, false), faulty: healthRun(seed, true)}
	h := fnv.New64a()
	for _, r := range []*hwResult{o.clean, o.faulty} {
		h.Write([]byte(r.timeline))
		h.Write(r.bundle)
		fmt.Fprintf(h, "|%d|%d|%v", r.delivered, r.resends, r.deadlocked)
	}
	o.digest = h.Sum64()
	return o
}

// HealthWatch runs the health-engine gauntlet with the default seed.
func HealthWatch() *Report { return HealthWatchSeeded(1) }

// HealthWatchSeeded runs the two-phase healthwatch experiment TWICE
// and checks the alert timelines and postmortem bundles are
// byte-identical.
func HealthWatchSeeded(seed uint64) *Report {
	r := newReport("healthwatch", fmt.Sprintf("Cluster health engine: clean silence, fault alerts, postmortems (seed %d)", seed))
	x := runHealthWatchOnce(seed)
	y := runHealthWatchOnce(seed)

	timelineOK := x.clean.timeline == y.clean.timeline && x.faulty.timeline == y.faulty.timeline
	bundleOK := string(x.faulty.bundle) == string(y.faulty.bundle) && len(x.faulty.bundle) > 0
	deterministic := x.digest == y.digest && timelineOK && bundleOK

	cl, fa := x.clean, x.faulty
	total := hwNodes * (hwNodes - 1) * hwRounds
	cleanSilent := len(cl.transitions) == 0
	deadlocked := cl.deadlocked || fa.deadlocked
	mustFire := []string{"crc-spike", "watchdog-trip", "rail-divergence"}

	var sb strings.Builder
	fmt.Fprintf(&sb, "rig: %d nodes dual-rail, all-to-all, %d rounds x %dB = %d messages, 5ms samples\n\n",
		hwNodes, hwRounds, hwMsgSize, total)
	fmt.Fprintf(&sb, "clean phase: %d samples, %d/%d delivered, %d alert transitions (want 0)\n",
		cl.samples, cl.delivered, total, len(cl.transitions))
	if !cleanSilent {
		sb.WriteString(cl.timeline)
	}
	fmt.Fprintf(&sb, "\nfault phase: 1 firmware crash + 5%% bit flips (Myrinet rail) + 64x gray window\n")
	fmt.Fprintf(&sb, "%d/%d delivered, %d resends, %d transitions, %d postmortem bundles\n\n",
		fa.delivered, total, fa.resends, len(fa.transitions), fa.bundles)
	sb.WriteString(fa.timeline)
	for _, rule := range mustFire {
		fmt.Fprintf(&sb, "rule %-20s fired %d times (must fire)\n", rule, fa.fired[rule])
	}
	sb.WriteString("\nfinal bcltop frame (fault phase):\n")
	sb.WriteString(fa.top)
	if len(fa.bundle) > 0 {
		b, err := health.DecodeBundle(fa.bundle)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&sb, "\nfirst postmortem: %s kind=%s trigger=%s at %.3fms, %d bytes\n",
			b.Schema, b.Kind, b.Trigger.Rule, float64(b.AtNs)/float64(sim.Millisecond), len(fa.bundle))
	}
	fmt.Fprintf(&sb, "\ndigest: %016x (run 1) / %016x (run 2) -> deterministic: %v\n",
		x.digest, y.digest, deterministic)
	if !cleanSilent || deadlocked || !deterministic {
		sb.WriteString("\n*** HEALTHWATCH GAUNTLET FAILED ***\n")
	}
	r.Text = sb.String()
	r.Snap = fa.snap

	r.metric("clean_delivered", float64(cl.delivered))
	r.metric("clean_samples", float64(cl.samples))
	r.metric("fault_delivered", float64(fa.delivered))
	r.metric("fault_resends", float64(fa.resends))
	r.metric("fault_transitions", float64(len(fa.transitions)))
	r.metric("fault_bundles", float64(fa.bundles))
	r.metric("bundle_bytes", float64(len(fa.bundle)))

	r.metric("clean_alerts", float64(len(cl.transitions)))
	r.metric("fired_crc_spike", b2f(fa.fired["crc-spike"] > 0))
	r.metric("fired_watchdog_trip", b2f(fa.fired["watchdog-trip"] > 0))
	r.metric("fired_rail_divergence", b2f(fa.fired["rail-divergence"] > 0))
	r.metric("timeline_deterministic", b2f(timelineOK))
	r.metric("bundle_deterministic", b2f(bundleOK))
	r.metric("deterministic", b2f(deterministic))
	r.metric("deadlocked", b2f(deadlocked))
	return r
}

// HealthWatchFrames replays the fault phase and returns its bcltop
// frames — the data behind `bclbench -watch`.
func HealthWatchFrames(seed uint64) []string {
	return healthRun(seed, true).frames
}

// HealthWatchBundle replays the fault phase and returns the first
// postmortem bundle's canonical bytes (nil if nothing fired) — the
// data behind `bcltrace -health`.
func HealthWatchBundle(seed uint64) []byte {
	return healthRun(seed, true).bundle
}
