package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/hw"
	"bcl/internal/obs/prof"
	"bcl/internal/sim"
)

// This file holds the performance-attribution experiments: the
// virtual-time profiler applied to one eager send (the paper's cost
// decomposition as a checked table) and the LogP/LogGP parameter
// extraction from profiler spans.

// profileSendSize is the payload of the attributed message: 8 bytes,
// a small eager send whose cost is pure protocol overhead.
const profileSendSize = 8

// profile runs one traced 8-byte eager send and attributes every
// nanosecond of its one-way path to (node, layer, phase): the
// semi-user-level claim — kernel trap on the send side, zero kernel
// time on the receive side — as a measured table.
func profile() *Report {
	r := newReport("profile", fmt.Sprintf("Virtual-time attribution of one %d-byte eager send", profileSendSize))
	tr, _, oneWay := tracedMessage(profileSendSize, nil)
	pr := prof.FromSpans(tr.Spans)

	sendKernel := pr.LayerTime(0, "kernel")
	recvKernel := pr.LayerTime(1, "kernel")
	sendUser := pr.LayerTime(0, "user")
	recvUser := pr.LayerTime(1, "user")
	nicTime := pr.LayerTime(0, "nic") + pr.LayerTime(1, "nic")
	wireTime := pr.LayerTime(-1, "wire")

	var b strings.Builder
	fmt.Fprintf(&b, "attribution of one %d-byte eager send (one-way %.2f µs):\n\n", profileSendSize, us(oneWay))
	b.WriteString(pr.Table())
	b.WriteString("\nper-CPU busy/idle over the profiled window:\n")
	b.WriteString(pr.CPUTable())
	fmt.Fprintf(&b, "\nsend side: user %.2f µs + kernel %.2f µs (trap, pin/translate, PIO fill)\n",
		us(sendUser), us(sendKernel))
	fmt.Fprintf(&b, "recv side: user %.2f µs + kernel %.2f µs", us(recvUser), us(recvKernel))
	if recvKernel == 0 {
		b.WriteString(" — zero kernel time: the receive path never traps\n")
	} else {
		b.WriteString(" — UNEXPECTED kernel time on the receive path\n")
	}
	fmt.Fprintf(&b, "NIC firmware %.2f µs, wire %.2f µs\n", us(nicTime), us(wireTime))

	r.Text = b.String()
	r.metric("oneway_us", us(oneWay))
	r.metric("send_kernel_us", us(sendKernel))
	r.metric("send_user_us", us(sendUser))
	r.metric("recv_kernel_us", us(recvKernel))
	r.metric("recv_user_us", us(recvUser))
	r.metric("nic_us", us(nicTime))
	r.metric("wire_us", us(wireTime))
	r.metric("host_overlap_pct", 100*pr.Overlap)
	r.metric("window_us", us(pr.Window))
	r.Attribution = pr
	return r
}

// logpSizes are the message sizes the LogP extractor sweeps. All fit
// one packet, so every point rides the eager system-channel path the
// attribution describes.
var logpSizes = []int{0, 8, 64, 256, 1024, 4096}

// logpGapMsgs is the burst length of the gap microbenchmark.
const logpGapMsgs = 8

// bclGap measures the sender-side gap: the steady per-message cost of
// a saturated burst on the system channel, from the first injection
// to the last completed send.
func bclGap(prof_ *hw.Profile, size int) sim.Time {
	rg := bclPair(prof_, false)
	a, b := rg.ports[0], rg.ports[1]
	var gap sim.Time
	rg.c.Env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < logpGapMsgs+1; i++ {
			b.WaitRecv(p)
		}
	})
	rg.c.Env.Go("send", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(bufFor(size))
		// Warm-up message: pin tables and peer state off the path.
		a.Send(p, b.Addr(), ibcl.SystemChannel, va, size, 0)
		a.WaitSend(p)
		p.Sleep(200 * sim.Microsecond)
		start := p.Now()
		for i := 0; i < logpGapMsgs; i++ {
			a.Send(p, b.Addr(), ibcl.SystemChannel, va, size, 0)
		}
		for i := 0; i < logpGapMsgs; i++ {
			a.WaitSend(p)
		}
		gap = (p.Now() - start) / logpGapMsgs
	})
	rg.c.Env.RunUntil(rg.c.Env.Now() + sim.Second)
	return gap
}

// logpFit sweeps the sizes and fits the model — the shared core of
// the LogP experiment and its determinism test.
func logpFit() *prof.LogGP {
	hwProf := hw.DAWNING3000()
	var pts []prof.LogPPoint
	for _, size := range logpSizes {
		tr, _, oneWay := tracedMessage(size, nil)
		attr := prof.FromSpans(tr.Spans)
		pts = append(pts, prof.LogPPoint{
			Size:   size,
			OneWay: oneWay,
			Os:     attr.SendOverhead(0),
			Or:     attr.RecvOverhead(1),
			Gap:    bclGap(hwProf, size),
		})
	}
	return prof.FitLogGP(pts)
}

// logP extracts the LogP/LogGP parameters of the BCL stack from
// profiler spans: per-size o_s, o_r and L from the attribution of a
// traced send, g and G from a least-squares fit of the sender-side
// gap microbenchmark.
func logP() *Report {
	r := newReport("logp", "LogP/LogGP parameters extracted from profiler spans")
	m := logpFit()
	var b strings.Builder
	b.WriteString(m.Table())
	b.WriteString("\no_s is the send-side host time (compose + trap + pin/translate +\nPIO fill), o_r the receive-side poll+decode — the kernel appears\nonly inside o_s, the semi-user-level signature. L is the remaining\nNIC + wire time of the one-way path.\n")
	r.Text = b.String()
	for _, pt := range m.Points {
		tag := fmt.Sprintf("%d", pt.Size)
		r.metric("oneway_"+tag+"_us", us(pt.OneWay))
		r.metric("L_"+tag+"_us", us(pt.L))
		r.metric("os_"+tag+"_us", us(pt.Os))
		r.metric("or_"+tag+"_us", us(pt.Or))
		r.metric("gap_"+tag+"_us", us(pt.Gap))
	}
	r.metric("g_us", us(m.SmallG))
	r.metric("G_ns_per_byte", m.G)
	r.metric("fit_bw_mbps", m.BandwidthMBps)
	r.LogP = m
	return r
}
