package bench

import (
	"fmt"
	"hash/fnv"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
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
// Alerts ride the virtual clock, so "when did it fire" is reproducible
// evidence, not a race. The event fingerprint does not cover bytes
// rendered on the host, so the artifact carries the alert timelines
// and the bundle as one digest32.

const (
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
	soakResult
	samples int
	snap    *obs.Snapshot
}

// healthRun executes one phase: the shared soak rig with the health
// engine attached and 5 ms samples, plus the fault schedule when fault
// is set.
func healthRun(seed uint64, fault bool) *hwResult {
	rig := newSoakRig(cluster.Config{
		Profile: survProfile(), NIC: ibcl.DefaultNICConfig(), Seed: seed, Watchdog: true, Health: true,
	}, trace.New(), 5*sim.Millisecond, 64)
	c := rig.c
	base := c.Env.Now()

	if fault {
		// One seeded firmware crash: the watchdog-trip rule must catch
		// the kernel healing it.
		sched := seed ^ 0x9e3779b97f4a7c15
		node := int(sim.SplitmixNext(&sched) % soakNodes)
		at := base + 25*sim.Millisecond + sim.Time(sim.SplitmixNext(&sched)%uint64(8*sim.Millisecond))
		// Bit flips on the Myrinet rail: crc-spike must see the drops.
		// A gray window: the Myrinet rail runs 64x slow but alive, so its
		// windowed P99 wire time diverges from the mesh rail's.
		c.Install(fabric.Schedule{
			Rules:   []fabric.Rule{{P: 0.05, Do: fabric.Corrupt, Rail: fabric.OnRail(0)}},
			Windows: []fabric.Window{{Node: fabric.AllNodes, Rail: fabric.OnRail(0), From: base + 50*sim.Millisecond, To: base + 80*sim.Millisecond, Slow: 64}},
			Crashes: []fabric.Crash{{Node: node, At: at}},
		})
	}

	// Traffic spans ~70 ms; the horizon leaves room for retransmit
	// stragglers and lets the rule series settle back to healthy.
	res := &hwResult{fired: make(map[string]int)}
	res.soakResult = rig.soak("hw", hwMsgSize, hwRounds, hwPace, 120*sim.Millisecond, nil)

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

// healthWatch runs the two-phase healthwatch experiment.
func healthWatch(seed uint64) *Report {
	return healthWatchReport(seed, healthRun(seed, false), healthRun(seed, true))
}

// healthWatchReport renders the verdict over the clean and fault
// phases.
func healthWatchReport(seed uint64, cl, fa *hwResult) *Report {
	r := newReport("healthwatch", fmt.Sprintf("Cluster health engine: clean silence, fault alerts, postmortems (seed %d)", seed))

	h := fnv.New64a()
	for _, ph := range []*hwResult{cl, fa} {
		h.Write([]byte(ph.timeline))
		h.Write(ph.bundle)
		fmt.Fprintf(h, "|%d|%d|%v", ph.delivered, ph.resends, ph.deadlocked)
	}
	sum := h.Sum64()

	total := soakNodes * (soakNodes - 1) * hwRounds
	cleanSilent := len(cl.transitions) == 0
	mustFire := []string{"crc-spike", "watchdog-trip", "rail-divergence"}

	var sb strings.Builder
	fmt.Fprintf(&sb, "rig: %d nodes dual-rail, all-to-all, %d rounds x %dB = %d messages, 5ms samples\n\n",
		soakNodes, hwRounds, hwMsgSize, total)
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
	fmt.Fprintf(&sb, "\ndigest: %016x\n", sum)
	r.Text = sb.String()
	r.Snap = fa.snap

	r.metric("clean_delivered", float64(cl.delivered))
	r.metric("clean_samples", float64(cl.samples))
	r.metric("fault_delivered", float64(fa.delivered))
	r.metric("fault_resends", float64(fa.resends))
	r.metric("fault_transitions", float64(len(fa.transitions)))
	r.metric("fault_bundles", float64(fa.bundles))
	r.metric("bundle_bytes", float64(len(fa.bundle)))

	// The alert timelines and bundle bytes, as the low 32 bits of their
	// fold (a float64 metric cannot hold 64).
	r.metric("digest32", float64(uint32(sum)))

	// The clean phase must stay silent and the fault phase must fire the
	// expected rules.
	r.metric("clean_alerts", float64(len(cl.transitions)))
	r.verdict("clean_silent", cleanSilent)
	r.verdict("fired_crc_spike", fa.fired["crc-spike"] > 0)
	r.verdict("fired_watchdog_trip", fa.fired["watchdog-trip"] > 0)
	r.verdict("fired_rail_divergence", fa.fired["rail-divergence"] > 0)
	r.verdict("no_deadlock", !cl.deadlocked && !fa.deadlocked)
	r.verdict("no_corrupt_payload", cl.corrupt+fa.corrupt == 0)
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
