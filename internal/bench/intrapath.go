package bench

import (
	"fmt"
	"strings"

	"bcl/internal/cluster"
	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// ablationIntraPath reproduces the argument of the paper's section 4.2:
// there are three ways to move data between two processes on one SMP
// node —
//
//  1. "the traditional way": through the NIC, out and back (process A
//     DMAs to the NIC, the NIC DMAs back to process B) — both
//     transfers cross the same PCI bus;
//  2. a shared-memory queue with two pipelined copies (BCL's choice);
//  3. a direct user-to-user copy — fastest, but "any mistake or malice
//     operation during a directly inter-process memory access can
//     cause the target process crashed", so BCL rejects it.
//
// The report measures all three on the same node model.
func ablationIntraPath() *Report {
	r := newReport("ablation-intrapath", "Intra-node strategies (paper §4.2): NIC loopback vs shared memory vs direct copy")
	prof := hw.DAWNING3000()

	nicLat, nicBW := nicLoopback(prof)
	shmLat := bclLatency(prof, true, 0)
	shmBW := bclBandwidth(prof, true, 131072, 8)
	dirLat, dirBW := directCopy(prof)

	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %16s  %s\n", "strategy", "0B latency", "128KB bandwidth", "safety")
	fmt.Fprintf(&b, "%-28s %10.2fus %12.1fMB/s  %s\n", "through the NIC (loopback)", us(nicLat), nicBW, "safe, but slow: PCI crossed twice")
	fmt.Fprintf(&b, "%-28s %10.2fus %12.1fMB/s  %s\n", "shared memory (BCL)", us(shmLat), shmBW, "safe: only the shared area exposed")
	fmt.Fprintf(&b, "%-28s %10.2fus %12.1fMB/s  %s\n", "direct user-to-user copy", us(dirLat), dirBW, "UNSAFE: full peer address space exposed")
	fmt.Fprintf(&b, "\nBCL picks shared memory: ~%.0fx the loopback bandwidth at a tiny\nfraction of direct copy's risk surface, with pipelining hiding the\nsecond copy (see ablation-pipeline).\n", shmBW/nicBW)
	r.Text = b.String()
	r.metric("nic_lat_us", us(nicLat))
	r.metric("nic_bw_mbps", nicBW)
	r.metric("shm_lat_us", us(shmLat))
	r.metric("shm_bw_mbps", shmBW)
	r.metric("direct_lat_us", us(dirLat))
	r.metric("direct_bw_mbps", dirBW)
	return r
}

// nicLoopback measures the "traditional way": both processes on node 0
// exchanging through the NIC's loopback path, driven at the raw NIC
// layer (the BCL library would route this over shared memory, which is
// exactly the point of the comparison).
func nicLoopback(prof *hw.Profile) (latency sim.Time, bandwidth float64) {
	build := func() (*cluster.Cluster, *nic.NIC, *mem.AddrSpace, *mem.AddrSpace) {
		c := newCluster(cluster.Config{Nodes: 1, Profile: prof,
			NIC: nic.Config{Translate: nic.HostTranslated, Completion: nic.UserEventQueue, Reliable: true}})
		nd := c.Nodes[0]
		sa := nd.Kernel.Spawn().Space
		sb := nd.Kernel.Spawn().Space
		nd.NIC.RegisterPort(1)
		nd.NIC.RegisterPort(2)
		return c, nd.NIC, sa, sb
	}
	pin := func(c *cluster.Cluster, space *mem.AddrSpace, va mem.VAddr, n int) []mem.Segment {
		segs, err := space.Segments(va, n)
		if err != nil {
			panic(err)
		}
		for _, s := range segs {
			for off := 0; off == 0 || off < s.Len; off += prof.PageSize {
				c.Nodes[0].Mem.PinFrame(s.Phys + mem.PAddr(off))
			}
		}
		return segs
	}

	// Latency: warm single small message through the loopback.
	{
		c, dev, sa, sb := build()
		sva := sa.Alloc(64)
		ssegs := pin(c, sa, sva, 64)
		rva := sb.Alloc(4096)
		rsegs := pin(c, sb, rva, 4096)
		const iters = 4
		sendAt := make([]sim.Time, iters)
		var warm sim.Time
		dev.PostRecv(2, 1, &nic.RecvDesc{Len: 4096, Segs: rsegs, VA: rva, Space: sb})
		c.Env.Go("send", func(p *sim.Proc) {
			// Model the host-side cost of the kernel send path, as the
			// BCL library pays it.
			for i := 0; i < iters; i++ {
				sendAt[i] = p.Now()
				p.Sleep(prof.UserCompose + prof.TrapEnter + prof.IoctlDispatch +
					prof.SecurityCheck + prof.TranslateHit + prof.PIOFill(prof.SendDescWords) + prof.TrapExit)
				dev.PostSend(p, &nic.SendDesc{
					Kind: nic.DescData, MsgID: uint64(i + 1), SrcPort: 1, DstNode: 0,
					DstPort: 2, Channel: 1, Len: 0, Segs: ssegs[:0],
				})
				p.Sleep(400 * sim.Microsecond)
			}
		})
		c.Env.Go("recv", func(p *sim.Proc) {
			pt, _ := dev.LookupPort(2)
			for i := 0; i < iters; i++ {
				pt.RecvEvQ.Recv(p)
				warm = p.Now() - sendAt[i] + prof.CompletionPoll + prof.EventDecode
				if i < iters-1 {
					dev.PostRecv(2, 1, &nic.RecvDesc{Len: 4096, Segs: rsegs, VA: rva, Space: sb})
				}
			}
		})
		c.Env.RunUntil(sim.Second)
		latency = warm
	}

	// Bandwidth: stream 128 KB messages through the loopback.
	{
		c, dev, sa, sb := build()
		const size = 131072
		const msgs = 6
		sva := sa.Alloc(size)
		ssegs := pin(c, sa, sva, size)
		rva := sb.Alloc(size)
		rsegs := pin(c, sb, rva, size)
		var start, end sim.Time
		for i := 0; i < msgs; i++ {
			dev.PostRecv(2, i+1, &nic.RecvDesc{Len: size, Segs: rsegs, VA: rva, Space: sb})
		}
		c.Env.Go("send", func(p *sim.Proc) {
			start = p.Now()
			for i := 0; i < msgs; i++ {
				dev.PostSend(p, &nic.SendDesc{
					Kind: nic.DescData, MsgID: uint64(i + 1), SrcPort: 1, DstNode: 0,
					DstPort: 2, Channel: i + 1, Len: size, Segs: ssegs,
				})
			}
		})
		c.Env.Go("recv", func(p *sim.Proc) {
			pt, _ := dev.LookupPort(2)
			for i := 0; i < msgs; i++ {
				pt.RecvEvQ.Recv(p)
			}
			end = p.Now()
		})
		c.Env.RunUntil(30 * sim.Second)
		bandwidth = mbps(msgs*size, end-start)
	}
	return latency, bandwidth
}

// directCopy models the unsafe user-to-user variant: one memcpy from
// source to destination address space, no queueing, no protection.
func directCopy(prof *hw.Profile) (latency sim.Time, bandwidth float64) {
	c := newCluster(cluster.Config{Nodes: 1, Profile: prof,
		NIC: nic.Config{Translate: nic.HostTranslated, Completion: nic.UserEventQueue, Reliable: true}})
	nd := c.Nodes[0]
	var lat sim.Time
	var bw float64
	c.Env.Go("copy", func(p *sim.Proc) {
		// Latency: notice + one zero-byte copy + completion check.
		t0 := p.Now()
		p.Sleep(prof.UserCompose)
		nd.Memcpy(p, 0)
		p.Sleep(prof.EventDecode)
		lat = p.Now() - t0
		// Bandwidth: stream copies.
		const size = 131072
		const msgs = 8
		t0 = p.Now()
		for i := 0; i < msgs; i++ {
			nd.Memcpy(p, size)
		}
		bw = mbps(msgs*size, p.Now()-t0)
	})
	c.Env.Run()
	return lat, bw
}
