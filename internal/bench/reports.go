package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// table1 reproduces the paper's Table 1: the three communication
// architectures compared by OS trappings, interrupt handling, and the
// location that accesses the NIC on the critical path. The counts are
// measured, not asserted: each architecture moves the same messages
// and the kernels count their crossings.
func table1() *Report {
	r := newReport("table1", "Comparison of three communication architectures")
	const msgs = 10

	type row struct {
		name              string
		traps, interrupts float64
		access            string
	}
	var rows []row

	// Kernel-level.
	{
		c, a, b := klcPair(nil)
		t0 := c.Nodes[0].Kernel.Stats().Traps
		t1 := c.Nodes[1].Kernel.Stats().Traps
		i1 := c.Nodes[1].Kernel.Stats().Interrupts
		c.Env.Go("send", func(p *sim.Proc) {
			src := a.Space().Alloc(64)
			for i := 0; i < msgs; i++ {
				a.SendTo(p, b.Addr(), src, 64)
			}
		})
		c.Env.Go("recv", func(p *sim.Proc) {
			dst := b.Space().Alloc(64)
			for i := 0; i < msgs; i++ {
				b.Recv(p, dst, 64)
			}
		})
		c.Env.RunUntil(c.Env.Now() + sim.Second)
		sendTraps := float64(c.Nodes[0].Kernel.Stats().Traps-t0) / msgs
		recvTraps := float64(c.Nodes[1].Kernel.Stats().Traps-t1) / msgs
		irqs := float64(c.Nodes[1].Kernel.Stats().Interrupts-i1) / msgs
		rows = append(rows, row{"kernel-level (TCP-like)", sendTraps + recvTraps, irqs, "kernel"})
	}

	// systemChannel is the workload of the two port libraries: msgs
	// completed sends into the peer's system-channel pool. It returns
	// the traps on both nodes and the interrupts (kernel + NIC) on the
	// receiver, per message, once the send buffer is prepared.
	systemChannel := func(pr pair) (traps, irqs float64) {
		c, a, b := pr.c, pr.a, pr.b
		k0, k1, n1 := c.Nodes[0].Kernel, c.Nodes[1].Kernel, c.Nodes[1].NIC
		var t0, i0 uint64
		c.Env.Go("send", func(p *sim.Proc) {
			va := a.alloc(p, 64)
			t0 = k0.Stats().Traps + k1.Stats().Traps
			i0 = k1.Stats().Interrupts + n1.Stats().Interrupts
			for i := 0; i < msgs; i++ {
				a.send(p, ibcl.SystemChannel, va, 64)
				a.waitSend(p)
			}
		})
		c.Env.Go("recv", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				b.waitRecv(p)
			}
		})
		c.Env.RunUntil(c.Env.Now() + sim.Second)
		return float64(k0.Stats().Traps+k1.Stats().Traps-t0) / msgs,
			float64(k1.Stats().Interrupts+n1.Stats().Interrupts-i0) / msgs
	}

	// User-level.
	{
		tr, ir := systemChannel(ulcPair(gmConfig(nil)))
		rows = append(rows, row{"user-level (GM/U-Net-like)", tr, ir, "user"})
	}

	// Semi-user-level.
	{
		tr, ir := systemChannel(bclPair(hw.DAWNING3000(), false).pair())
		rows = append(rows, row{"semi-user-level (BCL)", tr, ir, "kernel"})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %12s\n", "architecture", "traps/msg", "interrupts/msg", "NIC access")
	for _, rw := range rows {
		fmt.Fprintf(&b, "%-28s %14.1f %14.1f %12s\n", rw.name, rw.traps, rw.interrupts, rw.access)
	}
	fmt.Fprintf(&b, "\npaper: kernel-level = traps+interrupts, kernel access;\n"+
		"user-level = none, user access; semi-user-level = 1 send trap,\n"+
		"no interrupts, kernel access.\n")
	r.Text = b.String()
	r.metric("klc_traps_per_msg", rows[0].traps)
	r.metric("klc_interrupts_per_msg", rows[0].interrupts)
	r.metric("ulc_traps_per_msg", rows[1].traps)
	r.metric("bcl_traps_per_msg", rows[2].traps)
	r.metric("bcl_interrupts_per_msg", rows[2].interrupts)
	return r
}

// overheads reproduces the section-5 CPU overhead numbers: ~7.04 µs to
// push a send, ~0.82 µs to complete it, ~1.01 µs to receive.
func overheads() *Report {
	r := newReport("overheads", "Processor overheads (paper: send 7.04 µs, completion 0.82 µs, receive 1.01 µs)")
	rg := bclPair(hw.DAWNING3000(), false)
	a, b := rg.ports[0], rg.ports[1]
	var sendCost, completeCost, recvCost sim.Time
	rg.c.Env.Go("send", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(64)
		// Warm the pin-down table.
		a.Send(p, b.Addr(), ibcl.SystemChannel, va, 0, 0)
		a.WaitSend(p)
		t0 := p.Now()
		a.Send(p, b.Addr(), ibcl.SystemChannel, va, 0, 0)
		sendCost = p.Now() - t0
		t0 = p.Now()
		a.WaitSend(p)
		// WaitSend includes queue wait; isolate the processing cost by
		// measuring a completion that is already queued.
		p.Sleep(200 * sim.Microsecond)
		a.Send(p, b.Addr(), ibcl.SystemChannel, va, 0, 0)
		p.Sleep(200 * sim.Microsecond) // completion queued by now
		t0 = p.Now()
		a.WaitSend(p)
		completeCost = p.Now() - t0
	})
	rg.c.Env.Go("recv", func(p *sim.Proc) {
		b.WaitRecv(p)
		b.WaitRecv(p)
		p.Sleep(400 * sim.Microsecond) // third event queued by now
		t0 := p.Now()
		b.WaitRecv(p)
		recvCost = p.Now() - t0
	})
	rg.c.Env.RunUntil(rg.c.Env.Now() + sim.Second)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %10s %10s\n", "operation", "measured", "paper")
	fmt.Fprintf(&sb, "%-34s %8.2fus %8.2fus\n", "push send into network", us(sendCost), 7.04)
	fmt.Fprintf(&sb, "%-34s %8.2fus %8.2fus\n", "complete send (poll event)", us(completeCost), 0.82)
	fmt.Fprintf(&sb, "%-34s %8.2fus %8.2fus\n", "receive message (poll+decode)", us(recvCost), 1.01)
	r.Text = sb.String()
	r.metric("send_overhead_us", us(sendCost))
	r.metric("complete_overhead_us", us(completeCost))
	r.metric("recv_overhead_us", us(recvCost))
	return r
}

// tracedMessage runs one warm eager send of n payload bytes on the
// system channel with tracers attached only for the measured message,
// and returns the shared tracer, the cluster's observability bundle
// and the total one-way time. Non-nil faults are installed together
// with the tracers, so they act on the measured message alone.
func tracedMessage(n int, faults *fabric.Schedule) (*trace.Tracer, *obs.Obs, sim.Time) {
	rg := bclPair(hw.DAWNING3000(), false)
	a, b := rg.ports[0], rg.ports[1]
	tr := trace.New()
	var oneWay sim.Time
	var sentAt sim.Time
	rg.c.Env.Go("warm", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(bufFor(n))
		a.Send(p, b.Addr(), ibcl.SystemChannel, va, n, 0)
		a.WaitSend(p)
		p.Sleep(300 * sim.Microsecond)
		// Attach tracers for the measured message: ports, NICs and the
		// fabric, so the flow crosses host, NIC and wire rows.
		a.SetTracer(tr)
		b.SetTracer(tr)
		rg.c.SetTracer(tr)
		if faults != nil {
			rg.c.Install(*faults)
		}
		sentAt = p.Now()
		a.Send(p, b.Addr(), ibcl.SystemChannel, va, n, 0)
		a.WaitSend(p)
	})
	rg.c.Env.Go("recv", func(p *sim.Proc) {
		b.WaitRecv(p)
		b.WaitRecv(p)
		oneWay = p.Now() - sentAt
	})
	rg.c.Env.RunUntil(rg.c.Env.Now() + sim.Second)
	return tr, rg.c.Obs, oneWay
}

// figure5 reproduces the transmission timeline for a BCL message.
func figure5() *Report {
	r := newReport("fig5", "Transmission timeline for a BCL message (paper Fig. 5)")
	tr, _, _ := tracedMessage(0, nil)
	send := trace.New()
	for _, s := range tr.Spans {
		if s.Where == "host0" || s.Where == "nic0" {
			send.Spans = append(send.Spans, s)
		}
	}
	var total sim.Time
	for _, s := range send.Spans {
		total += s.Dur()
	}
	var b strings.Builder
	b.WriteString(send.Timeline())
	fmt.Fprintf(&b, "\nstage totals (of %.2f µs transmission path):\n", us(total))
	b.WriteString(send.StageBreakdown(total))
	_, totals := send.Totals()
	pio := totals["kernel: PIO descriptor fill"]
	fmt.Fprintf(&b, "\nPIO descriptor fill = %.2f µs (paper: filling the send request\nconsumed more than half of the host send time)\n", us(pio))
	r.Text = b.String()
	r.metric("host_send_total_us", us(totals["user: compose request"]+totals["kernel: trap+check+translate+fill"]))
	r.metric("pio_fill_us", us(pio))
	return r
}

// figure6 reproduces the reception timeline.
func figure6() *Report {
	r := newReport("fig6", "Reception timeline for a BCL message (paper Fig. 6)")
	tr, _, _ := tracedMessage(0, nil)
	recv := trace.New()
	for _, s := range tr.Spans {
		if s.Where == "host1" || s.Where == "nic1" {
			recv.Spans = append(recv.Spans, s)
		}
	}
	var hostTotal sim.Time
	for _, s := range recv.Spans {
		if s.Where == "host1" {
			hostTotal += s.Dur()
		}
	}
	var b strings.Builder
	b.WriteString(recv.Timeline())
	fmt.Fprintf(&b, "\nhost receive overhead = %.2f µs (paper: 1.01 µs — no kernel trap\non the receiving path, only a user-space poll)\n", us(hostTotal))
	r.Text = b.String()
	r.metric("host_recv_total_us", us(hostTotal))
	return r
}

// figure7 reproduces the one-way latency timeline and the semi-user vs
// user-level comparison (paper: extra ~4.17 µs = ~22%).
func figure7() *Report {
	r := newReport("fig7", "One-way latency timeline, 0-length message (paper Fig. 7)")
	tr, _, oneWay := tracedMessage(0, nil)
	var b strings.Builder
	b.WriteString(tr.Timeline())
	fmt.Fprintf(&b, "\ntotal one-way latency: %.2f µs (paper: 18.3 µs)\n", us(oneWay))

	// Semi-user vs user-level: ping-pong with re-posting on the loop,
	// so both the send trap and the posting trap are on the path.
	prof := hw.DAWNING3000()
	semi := bclPingPong(prof, 0)
	user := ulcPingPong(prof, 0)
	extra := semi - user
	pct := 100 * float64(extra) / float64(semi)
	fmt.Fprintf(&b, "\nping-pong one-way:  semi-user %.2f µs, user-level %.2f µs\n", us(semi), us(user))
	fmt.Fprintf(&b, "semi-user extra overhead: %.2f µs = %.1f%% of the path\n", us(extra), pct)
	fmt.Fprintf(&b, "(paper: 4.17 µs extra, about 22%%)\n")
	r.Text = b.String()
	r.metric("oneway_us", us(oneWay))
	r.metric("semi_pp_us", us(semi))
	r.metric("user_pp_us", us(user))
	r.metric("extra_us", us(extra))
	r.metric("extra_pct", pct)
	return r
}

// figSizes are the message sizes swept by Figures 8 and 9.
var figSizes = []int{0, 64, 256, 1024, 2048, 4096, 16384, 65536, 131072}

// figure8 reproduces latency vs message size, inter- and intra-node.
func figure8() *Report {
	r := newReport("fig8", "Latency vs message size (paper Fig. 8; min 18.3 µs inter, 2.7 µs intra)")
	prof := hw.DAWNING3000()
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %14s %14s\n", "bytes", "inter-node", "intra-node")
	for _, size := range figSizes {
		inter := bclLatency(prof, false, size)
		intra := bclLatency(prof, true, size)
		fmt.Fprintf(&b, "%10d %12.2fus %12.2fus\n", size, us(inter), us(intra))
		if size == 0 {
			r.metric("inter_0_us", us(inter))
			r.metric("intra_0_us", us(intra))
		}
		if size == 131072 {
			r.metric("inter_128k_us", us(inter))
		}
	}
	r.Text = b.String()
	return r
}

// figure9 reproduces bandwidth vs message size.
func figure9() *Report {
	r := newReport("fig9", "Bandwidth vs message size (paper Fig. 9; 146 MB/s inter, 391 MB/s intra, half-bandwidth < 4 KB)")
	prof := hw.DAWNING3000()
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %14s %14s\n", "bytes", "inter MB/s", "intra MB/s")
	var peak float64
	halfAt := -1
	for _, size := range figSizes[1:] { // skip 0
		msgs := 12
		if size >= 65536 {
			msgs = 8
		}
		inter := bclBandwidth(prof, false, size, msgs)
		intra := bclBandwidth(prof, true, size, msgs)
		fmt.Fprintf(&b, "%10d %14.1f %14.1f\n", size, inter, intra)
		if inter > peak {
			peak = inter
		}
		if halfAt < 0 && inter >= 146.0/2 {
			halfAt = size
		}
		if size == 131072 {
			r.metric("inter_128k_mbps", inter)
			r.metric("intra_128k_mbps", intra)
		}
	}
	fmt.Fprintf(&b, "\npeak inter-node %.1f MB/s (paper 146, 91%% of the 160 MB/s link);\n", peak)
	fmt.Fprintf(&b, "half-bandwidth (73 MB/s) reached at %d bytes (paper: < 4 KB)\n", halfAt)
	r.Text = b.String()
	r.metric("peak_inter_mbps", peak)
	r.metric("half_bw_bytes", float64(halfAt))
	return r
}

// table2 reproduces the protocol comparison (BCL vs GM-like user-level
// vs AM-II-like vs BIP-like; the kernel-level row is our addition).
func table2() *Report {
	r := newReport("table2", "Comparison of communication protocols (paper Table 2)")
	prof := hw.DAWNING3000()
	type row struct {
		name         string
		intra, inter float64 // µs
		bw           float64 // MB/s
		note         string
	}
	rows := []row{
		{
			name:  "BCL (semi-user-level)",
			intra: us(bclLatency(prof, true, 0)),
			inter: us(bclLatency(prof, false, 0)),
			bw:    bclBandwidth(prof, false, 131072, 8),
			note:  "reliable, SMP support",
		},
		{
			name:  "GM-like (user-level)",
			intra: 0,
			inter: us(ulcPair(gmConfig(prof)).warmLatency(0)),
			bw:    ulcPair(gmConfig(prof)).stream(131072, 8),
			note:  "no SMP support (paper: inter-node only)",
		},
		{
			name:  "AM-II-like (active messages)",
			intra: 0, // AM has no shm path here
			inter: us(amiiPingPong(prof, 1)),
			bw:    amiiBandwidth(prof, 64*1024),
			note:  "extra copy through staging",
		},
		{
			name:  "BIP-like (minimal)",
			intra: 0,
			inter: us(ulcPair(bipConfig()).warmLatency(0)),
			bw:    ulcPair(bipConfig()).stream(131072, 8),
			note:  "no flow control / error correction",
		},
		{
			name:  "kernel-level (TCP-like)",
			intra: 0,
			inter: us(klcLatency(prof, 0)),
			bw:    klcBandwidth(prof, 131072, 6),
			note:  "traps+interrupts+copies (our extra row)",
		},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %11s %11s %10s  %s\n", "protocol", "intra lat", "inter lat", "bandwidth", "notes")
	for _, rw := range rows {
		intra := "-"
		if rw.intra > 0 {
			intra = fmt.Sprintf("%.1fus", rw.intra)
		}
		fmt.Fprintf(&b, "%-30s %11s %9.1fus %7.1fMB/s  %s\n", rw.name, intra, rw.inter, rw.bw, rw.note)
	}
	fmt.Fprintf(&b, "\npaper: BCL 2.7/18.3 µs, 391/146 MB/s; GM 11-21 µs, >140 MB/s;\n"+
		"BIP very low latency but lower bandwidth; AM-II worse latency and\n"+
		"much lower bandwidth (extra copy).\n")
	r.Text = b.String()
	r.metric("bcl_inter_us", rows[0].inter)
	r.metric("bcl_bw_mbps", rows[0].bw)
	r.metric("gm_inter_us", rows[1].inter)
	r.metric("gm_bw_mbps", rows[1].bw)
	r.metric("amii_inter_us", rows[2].inter)
	r.metric("amii_bw_mbps", rows[2].bw)
	r.metric("bip_inter_us", rows[3].inter)
	r.metric("bip_bw_mbps", rows[3].bw)
	r.metric("klc_inter_us", rows[4].inter)
	r.metric("klc_bw_mbps", rows[4].bw)
	return r
}

// table3 reproduces MPI and PVM over BCL.
func table3() *Report {
	r := newReport("table3", "Performance of BCL and MPI/PVM over BCL (paper Table 3)")
	prof := hw.DAWNING3000()
	type row struct {
		name                 string
		intraL, interL       float64
		intraBW, interBW     float64
		paperIL, paperEL     float64
		paperIBW, papererBWs float64
	}
	rows := []row{
		{
			name:   "BCL",
			intraL: us(bclLatency(prof, true, 0)), interL: us(bclLatency(prof, false, 0)),
			intraBW: bclBandwidth(prof, true, 262144, 6), interBW: bclBandwidth(prof, false, 131072, 8),
			paperIL: 2.7, paperEL: 18.3, paperIBW: 391, papererBWs: 146,
		},
		{
			name:   "MPI over BCL",
			intraL: us(mpiLatency(prof, true)), interL: us(mpiLatency(prof, false)),
			intraBW: mpiBandwidth(prof, true, 262144, 6), interBW: mpiBandwidth(prof, false, 131072, 6),
			paperIL: 6.3, paperEL: 23.7, paperIBW: 328, papererBWs: 131,
		},
		{
			name:   "PVM over BCL",
			intraL: us(pvmLatency(prof, true)), interL: us(pvmLatency(prof, false)),
			intraBW: pvmBandwidth(prof, true, 262144, 6), interBW: pvmBandwidth(prof, false, 131072, 6),
			paperIL: 6.5, paperEL: 22.4, paperIBW: 313, papererBWs: 131,
		},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %22s %22s %24s %24s\n", "", "intra latency", "inter latency", "intra bandwidth", "inter bandwidth")
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s %12s %10s %12s %10s\n",
		"layer", "measured", "paper", "measured", "paper", "measured", "paper", "measured", "paper")
	for _, rw := range rows {
		fmt.Fprintf(&b, "%-14s %8.1fus %8.1fus %8.1fus %8.1fus %9.0fMB/s %7.0fMB/s %9.0fMB/s %7.0fMB/s\n",
			rw.name, rw.intraL, rw.paperIL, rw.interL, rw.paperEL,
			rw.intraBW, rw.paperIBW, rw.interBW, rw.papererBWs)
	}
	r.Text = b.String()
	r.metric("mpi_inter_us", rows[1].interL)
	r.metric("mpi_intra_us", rows[1].intraL)
	r.metric("mpi_inter_mbps", rows[1].interBW)
	r.metric("pvm_inter_us", rows[2].interL)
	r.metric("pvm_intra_us", rows[2].intraL)
	r.metric("pvm_inter_mbps", rows[2].interBW)
	return r
}
