package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/hw"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

// The survival harness exercises the three failure classes the
// survivable-NIC work defends against, in two phases:
//
// Phase A — combined-chaos soak. A 4-node dual-rail cluster runs paced
// all-to-all traffic while a seeded schedule of firmware crashes plays
// out (the kernel watchdog reboots each dead MCP and replays its
// journal), random bit corruption runs on the Myrinet rail (CRC drops
// plus retransmit heal it), and a slow-rail window degrades latency
// without losing anything. The bar is exactly-once: every message
// delivered exactly once with intact bytes, with the application never
// seeing a send failure — recovery is the kernel's job, not the
// library's.
//
// Phase B — gray-failure tail. A 2-node ping-pong stream crosses a
// long window in which the policy rail is 24x slower but alive — the
// classic gray failure that fixed timeouts cannot see. The run is done
// twice, once with the Jacobson-style adaptive RTO estimator (which
// detects the inflated RTT and steers onto the healthy rail) and once
// with the fixed-backoff baseline. The adaptive tail (P99.9) must
// strictly beat the fixed one.
//
// Everything is driven by the one seed.

const (
	survRounds  = 10
	survMsgSize = 1536
	survCrashes = 3

	grayRounds  = 4000
	grayMsgSize = 1024
)

// survCounterRows are the survivability counters read back from the
// registry snapshot at the end of the soak, in report order.
var survCounterRows = []counterRow{
	{"nic", "fw_crashes", "firmware crashes", true},
	{"kernel", "watchdog_trips", "watchdog trips", true},
	{"nic", "nic_reboots", "NIC reboots", true},
	{"kernel", "replayed_records", "journal records replayed", true},
	{"nic", "resyncs_sent", "epoch resyncs sent", true},
	{"nic", "resync_rewinds", "resync rewinds", true},
	{"nic", "dup_msg_drops", "duplicate msgs swallowed", true},
	{"nic", "crc_drops", "CRC drops", true},
	{"nic", "retransmits", "retransmits", true},
	{"kernel", "nic_recoveries", "", true},
}

// survProfile is DAWNING-3000 with fast recovery knobs, so a firmware
// reboot (~1.5 ms end to end) completes well inside the sender retry
// ladder (~40 ms to peer death) and crashes stay invisible to the
// application.
func survProfile() *hw.Profile {
	prof := hw.DAWNING3000()
	prof.MCPHeartbeatInterval = 100 * sim.Microsecond
	prof.WatchdogInterval = 300 * sim.Microsecond
	prof.MCPRebootTime = 1 * sim.Millisecond
	return prof
}

// survResult is everything one Phase A soak produces.
type survResult struct {
	soakResult
	stats         counters
	recoveryMaxUs float64
	snap          *obs.Snapshot
	timeline      string
	flight        string
}

// survRun executes one seeded combined-chaos soak (Phase A).
func survRun(seed uint64) *survResult {
	cfg := ibcl.DefaultNICConfig()
	cfg.AdaptiveRTO = true
	rig := newSoakRig(cluster.Config{
		Profile: survProfile(), NIC: cfg, Seed: seed, Watchdog: true,
	}, nil, 20*sim.Millisecond, 32)
	c, hf := rig.c, rig.hf
	base := c.Env.Now()

	// Seeded crash schedule: three staggered firmware crashes, far
	// enough apart that each recovery (~1.5 ms) finishes long before
	// the next crash lands.
	res := &survResult{}
	sched := seed ^ 0xda3e39cb94b95bdb
	for k := 0; k < survCrashes; k++ {
		node := int(sim.SplitmixNext(&sched) % soakNodes)
		at := base + 25*sim.Millisecond + sim.Time(k)*45*sim.Millisecond +
			sim.Time(sim.SplitmixNext(&sched)%uint64(15*sim.Millisecond))
		c.Nodes[node].NIC.CrashAt(at)
	}
	// Silent corruption on the Myrinet rail: the per-fragment CRC must
	// catch every flip and retransmission must heal it.
	hf.Rail(0).SetFault(fabric.RandomCorrupt(0.015))
	// A gray window on top: the policy rail runs 8x slow mid-soak.
	hf.RailSlow(0, base+60*sim.Millisecond, base+95*sim.Millisecond, 8)

	// Recovery is supposed to keep every send succeeding; the rig's
	// wait-and-resend arm is a backstop that (if ever taken) shows up in
	// the resends metric and, via duplicates, breaks exactly_once. The
	// workload spans ~175 ms; 400 ms leaves room for stragglers and
	// keeps the fault window inside the timeline ring.
	res.soakResult = rig.run("surv", survMsgSize, survRounds, soakPace, 400*sim.Millisecond, nil)

	res.snap = c.Obs.Snapshot(c.Env.Now())
	res.stats = readCounters(res.snap, survCounterRows)
	if hist := res.snap.MergedHist("nic", "recovery_latency_ns"); hist.Count > 0 {
		res.recoveryMaxUs = float64(hist.Max) / 1000
	}
	res.timeline = c.Obs.TimelineText([]obs.TimelineCol{
		{Label: "reboots", Layer: "nic", Name: "nic_reboots"},
		{Label: "crc_drops", Layer: "nic", Name: "crc_drops"},
		{Label: "retransmits", Layer: "nic", Name: "retransmits"},
		{Label: "resyncs", Layer: "nic", Name: "resyncs_sent"},
		{Label: "replays", Layer: "kernel", Name: "replayed_records"},
	})
	res.flight = c.Obs.Rec.Text(16)
	return res
}

// grayResult is one Phase B tail measurement.
type grayResult struct {
	p50, p999     sim.Time
	rounds        int
	grayFailovers uint64
	graySteers    uint64
	retransmits   uint64
	deadlocked    bool
}

// grayRun measures the ping-pong round-trip tail across a slow-rail
// window, with or without the adaptive RTO estimator.
func grayRun(seed uint64, adaptive bool) *grayResult {
	prof := hw.DAWNING3000()
	// One gray trip should cover the whole window: hold the steer
	// longer than the degradation lasts.
	prof.GraySteerHold = 200 * sim.Millisecond
	cfg := ibcl.DefaultNICConfig()
	cfg.AdaptiveRTO = adaptive
	rg := newRig(newCluster(cluster.Config{
		Nodes: 2, Fabric: cluster.Hetero, Profile: prof, NIC: cfg, Seed: seed,
	}), []int{0, 1}, ibcl.Options{SystemBuffers: 8}, 10*sim.Millisecond)
	c, a, b := rg.c, rg.ports[0], rg.ports[1]
	hf := c.Fabric.(*hetero.Fabric)
	base := c.Env.Now()

	// The policy rail (Myrinet) turns 24x slower — alive, in order,
	// nothing lost — for a 60 ms window a seeded jitter into the run.
	sched := seed ^ 0x6a09e667f3bcc909
	start := base + 20*sim.Millisecond + sim.Time(sim.SplitmixNext(&sched)%uint64(8*sim.Millisecond))
	hf.RailSlow(0, start, start+60*sim.Millisecond, 24)

	res := &grayResult{}
	durations := make([]sim.Time, 0, grayRounds)
	c.Env.Go("gray-pingpong", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(grayMsgSize)
		vb := b.Process().Space.Alloc(grayMsgSize)
		for i := 0; i < grayRounds; i++ {
			t0 := p.Now()
			if _, err := a.Send(p, b.Addr(), ibcl.SystemChannel, va, grayMsgSize, 1); err != nil {
				panic(err)
			}
			ev := b.WaitRecv(p)
			b.ReturnSystemBuffer(p, ev.VA, 4096)
			if _, err := b.Send(p, a.Addr(), ibcl.SystemChannel, vb, grayMsgSize, 2); err != nil {
				panic(err)
			}
			ev = a.WaitRecv(p)
			a.ReturnSystemBuffer(p, ev.VA, 4096)
			durations = append(durations, p.Now()-t0)
		}
	})
	c.Env.RunUntil(c.Env.Now() + 1*sim.Second)

	res.rounds = len(durations)
	res.deadlocked = res.rounds != grayRounds
	res.p50 = quantileNS(durations, 0.50)
	res.p999 = quantileNS(durations, 0.999)
	snap := c.Obs.Snapshot(c.Env.Now())
	res.grayFailovers = snap.SumCounter("nic", "gray_failovers")
	res.retransmits = snap.SumCounter("nic", "retransmits")
	res.graySteers = hf.GraySteers()
	return res
}

// survival runs the two-phase survivability experiment.
func survival(seed uint64) *Report {
	r := newReport("survival", fmt.Sprintf("Survivable NIC gauntlet: crash + corrupt + gray (seed %d)", seed))
	a := survRun(seed)
	adaptive, fixed := grayRun(seed, true), grayRun(seed, false)

	total := soakNodes * (soakNodes - 1) * survRounds
	exactlyOnce := a.delivered == total && a.duplicates == 0 && a.corrupt == 0
	deadlocked := a.deadlocked || adaptive.deadlocked || fixed.deadlocked
	adBeatsFixed := adaptive.p999 < fixed.p999

	var sb strings.Builder
	fmt.Fprintf(&sb, "phase A: %d nodes all-to-all, %d rounds x %dB = %d messages\n",
		soakNodes, survRounds, survMsgSize, total)
	fmt.Fprintf(&sb, "faults:  %d firmware crashes + 1.5%% bit flips (Myrinet rail) + 8x slow window\n\n",
		survCrashes)
	fmt.Fprintf(&sb, "%-28s %12s\n", "", "run")
	fmt.Fprintf(&sb, "%-28s %12d\n", "delivered (of total)", a.delivered)
	fmt.Fprintf(&sb, "%-28s %12d\n", "app-level duplicates", a.duplicates)
	fmt.Fprintf(&sb, "%-28s %12d\n", "payload byte errors", a.corrupt)
	fmt.Fprintf(&sb, "%-28s %12d\n", "library-level resends", a.resends)
	fmt.Fprintf(&sb, "%-28s %12v\n", "exactly-once", exactlyOnce)
	a.stats.text(&sb)
	if a.recoveryMaxUs > 0 {
		fmt.Fprintf(&sb, "%-28s %10.1fus\n", "max crash-to-ready", a.recoveryMaxUs)
	}
	sb.WriteString("\nsurvival-counter timeline (20ms virtual-time samples):\n")
	sb.WriteString(a.timeline)

	fmt.Fprintf(&sb, "\nphase B: %d ping-pong rounds x %dB across a 24x gray window (60 ms)\n",
		grayRounds, grayMsgSize)
	fmt.Fprintf(&sb, "%-28s %12s %12s\n", "", "adaptive", "fixed")
	fmt.Fprintf(&sb, "%-28s %10.1fus %10.1fus\n", "round-trip P50",
		us(adaptive.p50), us(fixed.p50))
	fmt.Fprintf(&sb, "%-28s %10.1fus %10.1fus\n", "round-trip P99.9",
		us(adaptive.p999), us(fixed.p999))
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "retransmits",
		adaptive.retransmits, fixed.retransmits)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "gray failovers",
		adaptive.grayFailovers, fixed.grayFailovers)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "packets steered",
		adaptive.graySteers, fixed.graySteers)
	fmt.Fprintf(&sb, "%-28s %12v\n", "adaptive beats fixed", adBeatsFixed)

	if deadlocked || !exactlyOnce {
		sb.WriteString("\n*** SURVIVAL GAUNTLET FAILED ***\n")
		sb.WriteString("\n" + a.flight)
	}
	r.Text = sb.String()
	r.Snap = a.snap

	// Exactly-once delivery through crash + corruption + gray chaos.
	r.metric("delivered", float64(a.delivered))
	r.metric("duplicates", float64(a.duplicates))
	r.metric("byte_errors", float64(a.corrupt))
	r.metric("resends", float64(a.resends))
	a.stats.emit(r)
	if a.recoveryMaxUs > 0 {
		r.metric("recovery_max_us", a.recoveryMaxUs)
	}
	r.metric("adaptive_p50_us", us(adaptive.p50))
	r.metric("adaptive_p999_us", us(adaptive.p999))
	r.metric("fixed_p50_us", us(fixed.p50))
	r.metric("fixed_p999_us", us(fixed.p999))
	r.metric("gray_failovers", float64(adaptive.grayFailovers))
	r.metric("gray_steers", float64(adaptive.graySteers))

	// The faults must actually have fired, and the adaptive-RTO tail
	// must strictly beat fixed backoff.
	r.flag("exactly_once", exactlyOnce)
	r.flag("crc_drops_nonzero", a.stats.get("crc_drops") > 0)
	r.flag("nic_reboots_nonzero", a.stats.get("nic_reboots") > 0)
	r.flag("adaptive_beats_fixed", adBeatsFixed)
	r.flag("gray_failover_nonzero", adaptive.grayFailovers > 0)
	r.flag("deadlocked", deadlocked)
	return r
}
