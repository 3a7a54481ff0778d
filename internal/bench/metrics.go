package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// This file holds the observability showcase experiments: a metered
// ping-pong proving the registry agrees with the per-package Stats
// structs, and a causal flow trace following one message (and its
// forced retransmission) across host, NIC and fabric rows.

// pingPong runs a paced BCL ping-pong with the virtual-time sampler
// on, then cross-checks every NIC counter in the registry snapshot
// against nic.Stats for the same run — the two must agree exactly,
// because the registry pulls the same counters at snapshot time.
func pingPong() *Report {
	r := newReport("pingpong", "BCL ping-pong with cluster-wide metrics registry")
	rg := bclPair(hw.DAWNING3000(), false)
	rg.c.Obs.StartSampler(rg.c.Env, 250*sim.Microsecond, 64)

	const iters = 32
	halfRTT := rg.pair().pingPong(64, 0, iters)

	snap := rg.c.Obs.Snapshot(rg.c.Env.Now())
	r.Snap = snap

	// Registry vs Stats agreement, counter by counter, both nodes.
	var mismatches []string
	for _, nd := range rg.c.Nodes {
		st := nd.NIC.Stats()
		for _, chk := range []struct {
			name string
			want uint64
		}{
			{"msgs_sent", st.MsgsSent},
			{"msgs_received", st.MsgsReceived},
			{"packets_sent", st.PacketsSent},
			{"packets_recv", st.PacketsRecv},
			{"retransmits", st.Retransmits},
			{"bytes_sent", st.BytesSent},
			{"bytes_received", st.BytesReceived},
		} {
			got, ok := snap.Counter(nd.ID, "nic", chk.name)
			if !ok || got != chk.want {
				mismatches = append(mismatches,
					fmt.Sprintf("node %d nic/%s: registry %d, Stats %d", nd.ID, chk.name, got, chk.want))
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%d ping-pong rounds, 64B payload: half-RTT %.2f µs\n", iters, us(halfRTT))
	for _, m := range mismatches {
		fmt.Fprintf(&b, "registry vs nic.Stats mismatch: %s\n", m)
	}
	h := snap.MergedHist("nic", "msg_latency_ns")
	fmt.Fprintf(&b, "\nend-to-end latency histogram: %d observations, p50 ~ %.1f µs, p99 ~ %.1f µs\n",
		h.Count, float64(h.P50())/1000, float64(h.P99())/1000)
	fmt.Fprintf(&b, "\nsampler timeline (%d samples on the virtual clock):\n", rg.c.Obs.NumSamples())
	b.WriteString(rg.c.Obs.TimelineText([]obs.TimelineCol{
		{Label: "msgs_sent", Layer: "nic", Name: "msgs_sent"},
		{Label: "packets_sent", Layer: "nic", Name: "packets_sent"},
		{Label: "retransmits", Layer: "nic", Name: "retransmits"},
		{Label: "traps", Layer: "kernel", Name: "traps"},
	}))
	r.Text = b.String()
	r.metric("half_rtt_us", us(halfRTT))
	r.verdict("registry_agrees", len(mismatches) == 0)
	r.metric("hist_count", float64(h.Count))
	r.metric("samples", float64(rg.c.Obs.NumSamples()))
	return r
}

// dropFirstData drops the first DATA packet after it is installed —
// the measured message's, so the sender's retransmit timer must fire
// once before delivery and the flow contains the retransmission.
var dropFirstData = &fabric.Schedule{Rules: []fabric.Rule{{K: 1, Do: fabric.Drop}}}

// flowTrace reports the causal flow timeline of one message whose
// first DATA packet the fabric dropped: compose, trap, NIC send,
// wire, retransmit, receive, completion — all under one trace id.
func flowTrace() *Report {
	r := newReport("flowtrace", "Causal flow trace of one message (forced retransmission)")
	tr, o, oneWay := tracedMessage(0, dropFirstData)
	flows := tr.Flows()
	retx := 0
	wire := 0
	rows := map[string]bool{}
	for _, id := range flows {
		for _, s := range tr.FlowSpans(id) {
			rows[s.Where] = true
			if s.Stage == "nic: retransmit" {
				retx++
			}
			if strings.HasPrefix(s.Where, "wire:") {
				wire++
			}
		}
	}
	var b strings.Builder
	b.WriteString(tr.FlowTimeline())
	fmt.Fprintf(&b, "\none-way completion (including the retransmit timeout): %.2f µs\n", us(oneWay))
	fmt.Fprintf(&b, "flow rows: %d (host, nic, wire); retransmit spans: %d\n", len(rows), retx)
	fmt.Fprintf(&b, "\nflight recorder:\n%s", o.Rec.Text(8))
	r.Text = b.String()
	r.metric("flows", float64(len(flows)))
	r.metric("flow_rows", float64(len(rows)))
	r.metric("retransmit_spans", float64(retx))
	r.metric("wire_spans", float64(wire))
	r.metric("oneway_us", us(oneWay))
	return r
}

// crashFlowTracedMessage runs one traced multi-fragment message whose
// receiving NIC's firmware crashes mid-transfer: the kernel watchdog
// trips, reboots the MCP, replays the journal, and the boot-epoch
// resync rewinds the sender so the message completes exactly once.
// Returns the tracer, the observability bundle and the one-way
// completion time (which includes the whole recovery).
func crashFlowTracedMessage() (*trace.Tracer, *obs.Obs, sim.Time) {
	const size = 32 * 1024
	rg := newRig(newCluster(cluster.Config{
		Nodes: 2, Profile: survProfile(), NIC: ibcl.DefaultNICConfig(), Watchdog: true,
	}), []int{0, 1}, ibcl.Options{SystemBuffers: 8}, 20*sim.Millisecond)
	c, a, b := rg.c, rg.ports[0], rg.ports[1]
	tr := trace.New()
	var oneWay, sentAt sim.Time
	ch := b.CreateChannel()
	c.Env.Go("send", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(size)
		// Warm the path untraced, then attach tracers for the real run.
		a.Send(p, b.Addr(), ibcl.SystemChannel, va, 0, 0)
		a.WaitSend(p)
		p.Sleep(300 * sim.Microsecond)
		a.SetTracer(tr)
		b.SetTracer(tr)
		c.SetTracer(tr)
		// Kill the receiving firmware 40 us into the transfer: several
		// fragments are gone with the NIC's SRAM, the rest hit a dead
		// card. Recovery is the watchdog's job.
		c.Install(fabric.Schedule{Crashes: []fabric.Crash{{Node: 1, At: p.Now() + 40*sim.Microsecond}}})
		sentAt = p.Now()
		a.Send(p, b.Addr(), ch, va, size, 7)
		a.WaitSend(p)
	})
	c.Env.Go("recv", func(p *sim.Proc) {
		vb := b.Process().Space.Alloc(size)
		b.PostRecv(p, ch, vb, size)
		for b.WaitRecv(p).Tag != 7 { // skip the warm-up message
		}
		oneWay = p.Now() - sentAt
	})
	c.Env.RunUntil(c.Env.Now() + sim.Second)
	return tr, c.Obs, oneWay
}

// crashFlow reports the causal story of one message interrupted by a
// firmware crash: the flow timeline of the message itself (fragments,
// retransmits, rewound replay, completion) plus the recovery spans —
// crash, watchdog trip, journal replay, reboot, epoch resync — that
// carry it across the boundary.
func crashFlow() *Report {
	r := newReport("crashflow", "Causal flow trace of one message across a firmware crash + recovery")
	tr, o, oneWay := crashFlowTracedMessage()
	flows := tr.Flows()
	retx, resyncs := 0, 0
	var crashes, reboots, trips, replays int
	var recovery []trace.Span
	for _, s := range tr.Spans {
		switch s.Stage {
		case "nic: retransmit":
			retx++
		case "nic: epoch resync":
			resyncs++
		case "nic: firmware crash":
			crashes++
		case "nic: firmware reboot":
			reboots++
		case "kernel: watchdog trip":
			trips++
		case "kernel: replay NIC state":
			replays++
		}
		if s.Flow == 0 && (strings.HasPrefix(s.Stage, "kernel: ") ||
			strings.HasPrefix(s.Stage, "nic: firmware") || s.Stage == "nic: epoch resync") {
			recovery = append(recovery, s)
		}
	}
	var b strings.Builder
	b.WriteString(tr.FlowTimeline())
	b.WriteString("\nrecovery spans (interleaved on the same clock):\n")
	rt := trace.New()
	rt.Spans = recovery
	b.WriteString(rt.Timeline())
	fmt.Fprintf(&b, "\none-way completion (crash, watchdog, reboot, replay, resync): %.2f us\n", us(oneWay))
	fmt.Fprintf(&b, "crash/trip/replay/reboot spans: %d/%d/%d/%d; resyncs: %d; retransmit spans: %d\n",
		crashes, trips, replays, reboots, resyncs, retx)
	fmt.Fprintf(&b, "\nflight recorder:\n%s", o.Rec.Text(12))
	r.Text = b.String()
	r.metric("flows", float64(len(flows)))
	r.metric("oneway_us", us(oneWay))
	r.metric("crash_spans", float64(crashes))
	r.metric("watchdog_trip_spans", float64(trips))
	r.metric("replay_spans", float64(replays))
	r.metric("reboot_spans", float64(reboots))
	r.metric("resync_spans", float64(resyncs))
	r.metric("retransmit_spans", float64(retx))
	return r
}
