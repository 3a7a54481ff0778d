package nic

import (
	"fmt"

	"bcl/internal/fabric"
	"bcl/internal/mem"
	"bcl/internal/sim"
)

// This file is the MCP (Message Control Program): the firmware running
// on the NIC's control processor. Three engines share the card:
//
//   - sendEngine drains the send request queue, fetches payload from
//     host memory by DMA (double-buffered so the fetch of fragment k+1
//     overlaps the injection of fragment k), packetises, seals a CRC,
//     and injects — per-message protocol processing plus per-fragment
//     processing serialise with link injection, which sets the ~146
//     MB/s plateau the paper measures against the 160 MB/s link.
//   - recvEngine drains the fabric RX queue: CRC check, go-back-N
//     sequencing, payload DMA into the posted buffer, cumulative ACKs,
//     completion events (DMAed to user event queues, or interrupts in
//     kernel-level mode), and the target side of RMA.
//   - retxEngine replays unacknowledged packets when a flow's
//     retransmission timer fires or a NACK arrives.
//
// All three charge their processing to the single LANai processor
// resource, so send and receive traffic genuinely contend on the card.

// pending is an unacknowledged transmitted packet retained for
// retransmission. pkt holds the pristine payload; wire copies are
// cloned so that in-fabric corruption cannot damage the retained copy.
type pending struct {
	pkt      *fabric.Packet
	desc     *SendDesc
	lastFrag bool
	sram     int
	sentAt   sim.Time // first transmission instant (RTT sampling)
	retx     bool     // retransmitted at least once (Karn: never sample)
}

// txFlow is the sender-side reliability state toward one remote node.
type txFlow struct {
	dst     int
	nextSeq uint64
	unacked []*pending
	retries int
	timer   sim.Timer
	window  *sim.Cond

	// Peer-health state machine: Up -> Suspect on the first retransmit
	// round, Suspect -> Dead on retry exhaustion, Dead -> Probing once
	// liveness probes start, Probing -> Up on a probe ACK (or any
	// genuine ACK progress).
	health     PeerHealth
	probeTimer sim.Timer
	// failed records MsgIDs already reported by failFlow so the
	// fail-fast path does not post a second EvSendFailed for trailing
	// fragments of the same message.
	failed map[uint64]bool

	// peerEpoch is the peer firmware's boot epoch as last seen on its
	// control packets; a jump means the peer rebooted and wiped its
	// receive state, so this flow rewinds and replays (resyncFlow).
	peerEpoch uint32
	// inflight tracks data/RMA-write messages transmitted toward the
	// peer but not yet acknowledged/failed, in first-transmit order,
	// so a rewind can replay them from fragment zero.
	inflight map[uint64]*SendDesc
	order    []uint64

	// Adaptive-RTO estimator state (Config.AdaptiveRTO).
	srtt      sim.Time // smoothed RTT
	rttvar    sim.Time // mean deviation
	baseRTT   sim.Time // best RTT observed (gray-failure baseline)
	grayOn    bool     // currently steered onto the alternate rail
	grayTimer sim.Timer
}

// rxFlow is the receiver-side sequencing state from one remote node.
type rxFlow struct {
	src    int
	expect uint64
	asm    map[uint64]*rxAssembly

	// srcEpoch is the sender firmware's boot epoch as stamped on its
	// packets; a jump means the sender rebooted and restarted its
	// sequence numbering from zero.
	srcEpoch uint32
	// done remembers the last rxDoneRing completed message ids so a
	// journal-replayed message a rebooted sender re-sends is swallowed
	// (ACKed but not re-delivered) — the exactly-once guarantee.
	done       map[uint64]bool
	doneOrder  []uint64
	lastResync sim.Time // RESYNC send throttle
}

// rxDoneRing bounds the per-flow completed-message ring. It only needs
// to cover messages that can be simultaneously unretired in the
// sender's journal, which the send window bounds far below this.
const rxDoneRing = 128

// rxAssembly tracks one in-progress incoming message.
type rxAssembly struct {
	desc       *RecvDesc
	port       *Port
	channel    int
	got        int
	gotSet     []bool // per-fragment receipt bitmap (dedups replay overlap)
	frags      int
	baseOffset int  // extra offset into desc (RMA writes)
	recvEvent  bool // post EvRecvDone on completion
	sysBuf     bool // buffer came from the system pool
}

// where labels this NIC in trace spans.
func (n *NIC) where() string { return n.row }

func (n *NIC) flowTo(dst int) *txFlow {
	f, ok := n.tx[dst]
	if !ok {
		f = &txFlow{dst: dst, window: sim.NewCond(n.env)}
		n.tx[dst] = f
	}
	return f
}

func (n *NIC) flowFrom(src int) *rxFlow {
	f, ok := n.rx[src]
	if !ok {
		f = &rxFlow{src: src, asm: make(map[uint64]*rxAssembly)}
		n.rx[src] = f
	}
	return f
}

// ---------------------------------------------------------------- send

// fetchJob is one fragment staged in NIC SRAM, flowing from the fetch
// engine to the injection engine. The two engines form a pipeline so
// the host-DMA fetch of fragment (or message) k+1 overlaps the link
// injection of k — across message boundaries too, which matters for
// upper layers that issue many chunk-sized messages back to back.
type fetchJob struct {
	desc     *SendDesc
	fragIdx  int
	frags    int
	payload  []byte
	sram     int
	lastFrag bool
	err      error
	epoch    uint32 // boot epoch the fragment was staged under
}

func (n *NIC) sendEngine(p *sim.Proc) {
	// The fetch half: arbitrate across the per-endpoint send rings,
	// stage payload fragments into SRAM by host DMA, hand them to the
	// injector. With QoS off the arbiter replays strict cross-ring
	// arrival order one whole message at a time (single-tenant
	// behaviour); with QoS on it grants wire fragments under weighted
	// round-robin so endpoints share the DMA engine proportionally.
	for {
		r, d, idx := n.nextFrag(p)
		epoch := n.bootEpoch // staging epoch: a crash mid-fetch voids the job
		if idx == 0 {
			n.stats.MsgsSent++
			if d.Born == 0 {
				// Raw-NIC callers (and firmware-generated descriptors
				// that did not inherit a birth time) are born at
				// dequeue, so the latency histogram covers every
				// architecture.
				d.Born = p.Now()
			}
		}
		if d.Kind == DescRMARead {
			// A read request is a single control packet: no payload.
			n.fetchQ.Send(p, fetchJob{desc: d, frags: 1, lastFrag: true, epoch: epoch})
			n.finishMsg(r)
			continue
		}
		lo := idx * n.prof.MaxPacket
		hi := lo + n.prof.MaxPacket
		if hi > d.Len {
			hi = d.Len
		}
		if hi < lo {
			hi = lo
		}
		buf, err := n.fetchRange(p, d, lo, hi-lo)
		sram := len(buf)
		if sram > 0 {
			n.sram.Acquire(p, sram)
		}
		last := idx == r.frags-1
		n.fetchQ.Send(p, fetchJob{
			desc: d, fragIdx: idx, frags: r.frags, payload: buf,
			sram: sram, lastFrag: last, err: err, epoch: epoch,
		})
		if err != nil || last {
			// A fetch error abandons the rest of the message (the
			// injector surfaces the failure).
			n.finishMsg(r)
		}
	}
}

// nextFrag blocks until some ring has work, picks the ring the active
// arbitration policy grants, and returns the next fragment of its
// in-service message. The ring's fragment cursor is advanced; the
// caller must finishMsg once the message's last (or failing) fragment
// has been handed to the injector.
func (n *NIC) nextFrag(p *sim.Proc) (*sendRing, *SendDesc, int) {
	for {
		if n.fwDead {
			// Crashed firmware fetches nothing; FinishReboot broadcasts.
			n.sendWork.Wait(p)
			continue
		}
		var r *sendRing
		if n.cfg.QoS {
			r = n.pickWRR()
		} else {
			r = n.pickFIFO()
		}
		if r == nil {
			n.sendWork.Wait(p)
			continue
		}
		if r.cur == nil {
			r.cur = r.q[0]
			r.q = r.q[1:]
			r.fragIdx = 0
			r.frags = 1
			if r.cur.Kind != DescRMARead {
				r.frags = n.prof.Packets(r.cur.Len)
			}
		}
		idx := r.fragIdx
		r.fragIdx++
		return r, r.cur, idx
	}
}

// finishMsg retires a ring's in-service message and reaps the ring if
// its port closed and the backlog has drained.
func (n *NIC) finishMsg(r *sendRing) {
	r.cur = nil
	if r.closed && !r.hasWork() {
		n.removeRing(r.port)
	}
}

// pickFIFO is the single-tenant arbitration policy: once a message is
// in service it runs to completion, and the next message is the one
// that was posted earliest across all rings — exactly the behaviour of
// one shared send queue.
func (n *NIC) pickFIFO() *sendRing {
	var best *sendRing
	var bestSeq uint64
	for _, id := range n.ringOrder {
		r := n.rings[id]
		if r.cur != nil {
			return r
		}
		if len(r.q) == 0 {
			continue
		}
		if best == nil || r.q[0].arrival < bestSeq {
			best = r
			bestSeq = r.q[0].arrival
		}
	}
	return best
}

// pickWRR grants wire fragments under weighted round-robin: a ring
// with work keeps the grant while it has round credits, then refills
// and passes the grant on. Every ring with work is served at least its
// weight's worth of fragments per full rotation, so no endpoint can
// starve another regardless of backlog depth.
func (n *NIC) pickWRR() *sendRing {
	// Two full rotations: the first may only refill exhausted credits,
	// the second is then guaranteed to grant any ring that has work.
	for scanned := 0; scanned < 2*len(n.ringOrder); scanned++ {
		if n.rrPos >= len(n.ringOrder) {
			n.rrPos = 0
		}
		r := n.rings[n.ringOrder[n.rrPos]]
		if r.hasWork() && r.credits > 0 {
			r.credits--
			n.stats.QoSFrags++
			return r
		}
		r.credits = r.weight
		n.rrPos++
	}
	return nil
}

// injectEngine is the injection half of the send pipeline.
func (n *NIC) injectEngine(p *sim.Proc) {
	skipMsg := uint64(0) // message being dropped after a fetch error
	for {
		j := n.fetchQ.Recv(p)
		d := j.desc
		if n.fwDead || j.epoch != n.bootEpoch {
			// Staged under a boot epoch that has since crashed: the
			// fragment's SRAM was already wiped conceptually; the kernel
			// journal replay re-issues the message if it still matters.
			if j.sram > 0 {
				n.sram.Release(j.sram)
			}
			continue
		}
		if j.err != nil {
			// Bad host descriptor (fault/unpinned). Surface a send
			// failure; the kernel path validates before posting, so
			// this fires mainly for the user-level architecture.
			if j.sram > 0 {
				n.sram.Release(j.sram)
			}
			skipMsg = d.MsgID
			n.failMessage(p, d)
			continue
		}
		if d.MsgID == skipMsg && d.MsgID != 0 {
			if j.sram > 0 {
				n.sram.Release(j.sram)
			}
			continue
		}
		if d.Kind == DescCollMcast || d.Kind == DescCollComb {
			if j.fragIdx != 0 {
				// Collective payloads are single-packet by contract (the
				// library validates); drop stray fragments defensively.
				if j.sram > 0 {
					n.sram.Release(j.sram)
				}
				continue
			}
			// Hand the staged payload (and its SRAM accounting) to the
			// collective engine: from here on the message fans out over
			// the tree without re-touching host memory.
			n.collQ.Post(collJob{kind: collJobLocal, desc: d, payload: j.payload, sram: j.sram, epoch: n.bootEpoch})
			continue
		}
		flow := n.flowTo(d.DstNode)
		if d.Kind == DescRMARead {
			n.cpu.Use(p, 1, n.prof.MCPSendProc)
			pkt := &fabric.Packet{
				Kind: fabric.KindRMARead, Src: n.node, Dst: d.DstNode,
				SrcPort: d.SrcPort, DstPort: d.DstPort, Channel: d.Channel,
				MsgID: d.MsgID, Frags: 1, MsgLen: d.Len, Offset: d.Offset,
				Tag: uint64(d.ReplyChannel), Trace: d.Trace, Born: d.Born,
			}
			pkt.Seal()
			n.transmit(p, flow, pkt, d, true, 0)
			continue
		}
		kind := fabric.KindData
		if d.Kind == DescRMAWrite {
			kind = fabric.KindRMAWrite
		}
		cost := n.prof.MCPPacketProc
		stage := "nic: packet processing"
		if j.fragIdx == 0 {
			cost = n.prof.MCPDescFetch + n.prof.MCPSendProc
			stage = "nic: send proc (reliable protocol)"
		}
		n.Tracer.DoFlow(p, stage, n.where(), d.Trace, func() { n.cpu.Use(p, 1, cost) })
		pkt := &fabric.Packet{
			Kind: kind, Src: n.node, Dst: d.DstNode,
			SrcPort: d.SrcPort, DstPort: d.DstPort, Channel: d.Channel,
			MsgID: d.MsgID, FragIdx: j.fragIdx, Frags: j.frags, MsgLen: d.Len,
			Offset: d.Offset + j.fragIdx*n.prof.MaxPacket, Tag: d.Tag,
			Payload: j.payload, Trace: d.Trace, Born: d.Born,
		}
		pkt.Seal()
		n.Tracer.DoFlow(p, "nic: inject to network", n.where(), d.Trace, func() {
			n.transmit(p, flow, pkt, d, j.lastFrag, j.sram)
		})
	}
}

// fetchRange DMAs [lo, lo+ln) of the descriptor's buffer from host
// memory into a fresh NIC buffer, charging bus time (and, in
// NIC-translated mode, translation cache costs).
func (n *NIC) fetchRange(p *sim.Proc, d *SendDesc, lo, ln int) ([]byte, error) {
	if ln == 0 {
		return nil, nil
	}
	buf := make([]byte, ln)
	segs, err := n.resolve(p, d.Segs, d.VA, d.Space, lo, ln)
	if err != nil {
		return nil, err
	}
	dmaStart := p.Now()
	done := 0
	for _, s := range segs {
		n.busDMA(p, s.Len)
		if err := n.hmem.DMARead(s.Phys, buf[done:done+s.Len]); err != nil {
			return nil, err
		}
		done += s.Len
	}
	n.Tracer.AddFlow("nic: host DMA fetch", n.where(), d.Trace, dmaStart, p.Now())
	return buf, nil
}

// resolve produces the physical segments for byte range [lo, lo+ln) of
// a buffer, either by slicing the host-translated scatter/gather list
// or by translating on the card.
func (n *NIC) resolve(p *sim.Proc, segs []mem.Segment, va mem.VAddr, space *mem.AddrSpace, lo, ln int) ([]mem.Segment, error) {
	if n.cfg.Translate == HostTranslated || segs != nil {
		return sliceSegs(segs, lo, ln), nil
	}
	if space == nil {
		return nil, fmt.Errorf("nic%d: NIC-translated descriptor without address space", n.node)
	}
	pageSize := int64(space.Mem().PageSize())
	var out []mem.Segment
	addr := int64(va) + int64(lo)
	left := ln
	for left > 0 {
		vpage := addr / pageSize
		off := addr % pageSize
		pa, hit, err := n.tlb.lookup(space, vpage)
		if err != nil {
			return nil, err
		}
		if hit {
			n.stats.TLBHits++
			n.cpu.Use(p, 1, n.prof.NICTranslateLook)
		} else {
			n.stats.TLBMisses++
			n.cpu.Use(p, 1, n.prof.NICTranslateLook+n.prof.NICTranslateMiss)
		}
		chunk := int(pageSize - off)
		if chunk > left {
			chunk = left
		}
		out = append(out, mem.Segment{Phys: pa + mem.PAddr(off), Len: chunk})
		addr += int64(chunk)
		left -= chunk
	}
	return out, nil
}

// sliceSegs cuts the byte range [lo, lo+ln) out of a scatter/gather
// list.
func sliceSegs(segs []mem.Segment, lo, ln int) []mem.Segment {
	var out []mem.Segment
	pos := 0
	for _, s := range segs {
		if ln <= 0 {
			break
		}
		segEnd := pos + s.Len
		if segEnd <= lo {
			pos = segEnd
			continue
		}
		start := 0
		if lo > pos {
			start = lo - pos
		}
		take := s.Len - start
		if take > ln {
			take = ln
		}
		out = append(out, mem.Segment{Phys: s.Phys + mem.PAddr(start), Len: take})
		ln -= take
		lo += take
		pos = segEnd
	}
	return out
}

// transmit runs the reliability window and injects the packet.
func (n *NIC) transmit(p *sim.Proc, flow *txFlow, pkt *fabric.Packet, d *SendDesc, lastFrag bool, sram int) {
	pkt.Epoch = n.bootEpoch
	if !n.cfg.Reliable {
		n.inject(p, pkt)
		if sram > 0 {
			n.sram.Release(sram)
		}
		if lastFrag {
			n.retireSend(nil, d.MsgID)
			if !d.NoEvent {
				// Fire-and-forget: declare success at injection.
				n.postEvent(p, d.SrcPort, EvSendDone, d, 0)
			}
		}
		return
	}
	for len(flow.unacked) >= n.cfg.Window {
		flow.window.Wait(p)
		if n.tx[d.DstNode] != flow {
			// The firmware rebooted while we waited for window space:
			// this fragment belongs to the dead boot epoch; the kernel
			// journal replay re-issues the message.
			if sram > 0 {
				n.sram.Release(sram)
			}
			return
		}
	}
	if reported, tracked := flow.failed[pkt.MsgID]; tracked {
		// Trailing fragment of a message already being failed:
		// suppress it (whatever the current health) so the receiver
		// never sees a partial message resumed mid-stream.
		if sram > 0 {
			n.sram.Release(sram)
		}
		if lastFrag {
			delete(flow.failed, pkt.MsgID)
			if !reported {
				n.stats.FastFails++
				n.failMessage(p, d)
			}
		}
		return
	}
	if flow.health == PeerDead || flow.health == PeerProbing {
		// Fail fast: don't burn a full retry ladder against a peer the
		// firmware already believes is gone. Probes re-admit it.
		if sram > 0 {
			n.sram.Release(sram)
		}
		if lastFrag {
			n.stats.FastFails++
			n.Obs.Event(n.env.Now(), n.node, "nic", "fast-fail", pkt.Trace,
				fmt.Sprintf("dst=%d msg=%d peer %v", d.DstNode, d.MsgID, flow.health))
			n.failMessage(p, d)
		} else {
			if flow.failed == nil {
				flow.failed = make(map[uint64]bool)
			}
			flow.failed[pkt.MsgID] = false // report deferred to lastFrag
		}
		return
	}
	// Track the message for rewind replay, on fragment zero only: a
	// trailing fragment still in the pipeline after the message was
	// acked (and retired) must not resurrect it, or its completion
	// event would fire twice.
	if (d.Kind == DescData || d.Kind == DescRMAWrite) && pkt.FragIdx == 0 {
		if _, live := flow.inflight[pkt.MsgID]; !live {
			if flow.inflight == nil {
				flow.inflight = make(map[uint64]*SendDesc)
			}
			flow.inflight[pkt.MsgID] = d
			flow.order = append(flow.order, pkt.MsgID)
		}
	}
	pkt.Seq = flow.nextSeq
	flow.nextSeq++
	flow.unacked = append(flow.unacked, &pending{
		pkt: pkt, desc: d, lastFrag: lastFrag, sram: sram, sentAt: p.Now(),
	})
	if flow.timer == (sim.Timer{}) {
		n.armTimer(flow)
	}
	n.inject(p, wireCopy(pkt))
}

// inject pushes one packet into the fabric, counting it.
func (n *NIC) inject(p *sim.Proc, pkt *fabric.Packet) {
	n.stats.PacketsSent++
	n.stats.BytesSent += uint64(len(pkt.Payload))
	n.ep.Inject(p, pkt)
}

// wireCopy clones a packet so in-fabric corruption cannot reach the
// retained retransmission copy.
func wireCopy(pkt *fabric.Packet) *fabric.Packet {
	c := *pkt
	if len(pkt.Payload) > 0 {
		c.Payload = append([]byte(nil), pkt.Payload...)
	}
	return &c
}

func (n *NIC) armTimer(f *txFlow) {
	f.timer.Cancel()
	f.timer = n.env.After(n.retxDelay(f), func() {
		f.timer = sim.Timer{}
		n.retxQ.Post(f)
	})
}

// retxDelay is the adaptive retransmit timeout: the base value for the
// first round, then exponential backoff capped at RetransmitBackoffMax,
// with deterministic jitter to de-synchronise competing flows. The
// jitter is a hash of (node, dst, round) rather than an env.Rand()
// draw so arming a timer never perturbs the shared RNG stream.
func (n *NIC) retxDelay(f *txFlow) sim.Time {
	base := n.prof.RetransmitTimeout
	ceil := n.prof.RetransmitBackoffMax
	if ceil <= 0 {
		ceil = 16 * base
	}
	if n.cfg.AdaptiveRTO && f.srtt > 0 {
		// Jacobson-style RTO replaces the fixed base: srtt + 4*rttvar,
		// floored so a burst of fast ACKs cannot collapse the timer
		// into spurious retransmits. The exponential backoff below
		// still multiplies it per retry round.
		rto := f.srtt + 4*f.rttvar
		floor := n.prof.RTOMin
		if floor <= 0 {
			floor = base / 4
		}
		if rto < floor {
			rto = floor
		}
		if rto > ceil {
			rto = ceil
		}
		base = rto
		n.stats.RTOAdapted++
	}
	d := base
	for i := 0; i < f.retries && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	if f.retries > 0 {
		n.stats.Backoffs++
		d += detJitter(n.node, f.dst, f.retries, d/4)
	}
	return d
}

// detJitter hashes (node, dst, round) into [0, span) — splitmix64
// finaliser, fully deterministic.
func detJitter(node, dst, round int, span sim.Time) sim.Time {
	if span <= 0 {
		return 0
	}
	x := sim.Splitmix64(uint64(node)<<42 ^ uint64(dst)<<21 ^ uint64(round))
	return sim.Time(x % uint64(span))
}

// probeInterval paces liveness probes to a dead peer.
func (n *NIC) probeInterval() sim.Time {
	if n.prof.PeerProbeInterval > 0 {
		return n.prof.PeerProbeInterval
	}
	return 4 * n.prof.RetransmitTimeout
}

func (n *NIC) wakeWindow(f *txFlow) { f.window.Broadcast() }

// ---------------------------------------------------------- retransmit

func (n *NIC) retxEngine(p *sim.Proc) {
	for {
		f := n.retxQ.Recv(p)
		if n.fwDead || n.tx[f.dst] != f {
			// Crashed firmware retransmits nothing; a flow replaced by a
			// reboot is stale and its timer event is void.
			continue
		}
		if f.health == PeerDead || f.health == PeerProbing {
			// The probe timer routes through this queue so probes are
			// injected from process context.
			n.sendProbe(p, f)
			continue
		}
		if len(f.unacked) == 0 {
			continue
		}
		f.retries++
		if f.retries > n.cfg.MaxRetries {
			n.failFlow(p, f)
			continue
		}
		if f.health == PeerUp {
			f.health = PeerSuspect
		}
		if n.cfg.AdaptiveRTO {
			// A timeout is itself RTT evidence: the oldest unacked
			// packet has waited this long without an ACK, so the true
			// RTT is at least that (when the peer is alive). Without
			// this, Karn's rule starves the estimator on a gray rail —
			// every packet gets retransmitted before its ACK lands, no
			// sample is ever clean, and the RTO can never learn an RTT
			// above its current value.
			n.rttSample(f, n.env.Now()-f.unacked[0].sentAt)
		}
		n.Obs.Event(n.env.Now(), n.node, "nic", "retx-round",
			f.unacked[0].pkt.Trace,
			fmt.Sprintf("dst=%d round=%d pkts=%d", f.dst, f.retries, len(f.unacked)))
		for _, pd := range f.unacked {
			pd.retx = true // Karn's rule: an ambiguous ACK never samples
			n.Tracer.DoFlow(p, "nic: retransmit", n.where(), pd.pkt.Trace, func() {
				n.cpu.Use(p, 1, n.prof.MCPPacketProc)
				n.stats.Retransmits++
				n.inject(p, wireCopy(pd.pkt))
			})
		}
		n.armTimer(f)
	}
}

// failFlow abandons every in-flight message on a flow after retry
// exhaustion, reporting EvSendFailed once per message, marks the peer
// Dead and starts the liveness-probe cycle.
func (n *NIC) failFlow(p *sim.Proc, f *txFlow) {
	if f.failed == nil {
		f.failed = make(map[uint64]bool)
	}
	complete := make(map[uint64]bool) // lastFrag in window: no trailing frags coming
	for _, pd := range f.unacked {
		if pd.lastFrag {
			complete[pd.pkt.MsgID] = true
		}
	}
	seen := make(map[uint64]bool)
	for _, pd := range f.unacked {
		if pd.sram > 0 {
			n.sram.Release(pd.sram)
		}
		n.retireSend(f, pd.pkt.MsgID) // abandoned: the journal forgets it
		if pd.desc.OnFail != nil {
			// Collective forwards: the engine reparents the branch
			// instead of surfacing a host event.
			if !seen[pd.pkt.MsgID] {
				seen[pd.pkt.MsgID] = true
				pd.desc.OnFail()
			}
			continue
		}
		if !seen[pd.pkt.MsgID] && !pd.desc.NoEvent {
			seen[pd.pkt.MsgID] = true
			if !complete[pd.pkt.MsgID] {
				f.failed[pd.pkt.MsgID] = true // already reported here
			}
			n.stats.SendFailures++
			n.Obs.Event(n.env.Now(), n.node, "nic", "send-failed", pd.pkt.Trace,
				fmt.Sprintf("dst=%d msg=%d retries exhausted", f.dst, pd.pkt.MsgID))
			n.postEvent(p, pd.desc.SrcPort, EvSendFailed, pd.desc, 0)
		}
	}
	f.unacked = nil
	f.retries = 0
	f.timer.Cancel()
	f.timer = sim.Timer{}
	if f.health != PeerDead && f.health != PeerProbing {
		f.health = PeerDead
		n.stats.PeerDeaths++
		now := n.env.Now()
		n.Tracer.Add("nic: peer dead", n.where(), now, now)
		n.Obs.Event(now, n.node, "nic", "peer-dead", 0, fmt.Sprintf("dst=%d", f.dst))
		n.armProbe(f)
	}
	n.wakeWindow(f)
}

// armProbe schedules the next liveness probe toward a dead peer.
func (n *NIC) armProbe(f *txFlow) {
	f.probeTimer.Cancel()
	f.probeTimer = n.env.After(n.probeInterval(), func() {
		f.probeTimer = sim.Timer{}
		n.retxQ.Post(f)
	})
}

// sendProbe injects one liveness probe and re-arms the probe timer.
func (n *NIC) sendProbe(p *sim.Proc, f *txFlow) {
	f.health = PeerProbing
	n.cpu.Use(p, 1, n.prof.MCPAckProc)
	n.stats.Probes++
	n.Obs.Event(n.env.Now(), n.node, "nic", "probe", 0, fmt.Sprintf("dst=%d", f.dst))
	pb := &fabric.Packet{Kind: fabric.KindProbe, Src: n.node, Dst: f.dst}
	pb.Seal()
	n.ep.Inject(p, pb)
	n.armProbe(f)
}

// markPeerUp re-admits a peer after liveness evidence (probe ACK or
// genuine go-back-N progress).
func (n *NIC) markPeerUp(f *txFlow) {
	if f.health == PeerDead || f.health == PeerProbing {
		n.stats.PeerRecoveries++
		now := n.env.Now()
		n.Tracer.Add("nic: peer recovered", n.where(), now, now)
		n.Obs.Event(now, n.node, "nic", "peer-recovered", 0, fmt.Sprintf("dst=%d", f.dst))
	}
	f.health = PeerUp
	f.retries = 0
	f.probeTimer.Cancel()
	f.probeTimer = sim.Timer{}
	n.wakeWindow(f)
}

// failMessage reports a send failure detected before injection (bad
// descriptor) or a fail-fast rejection.
func (n *NIC) failMessage(p *sim.Proc, d *SendDesc) {
	if d.OnFail != nil {
		d.OnFail()
		return
	}
	// The failure is surfaced to the host, so the journal must not
	// resurrect the message after a firmware reboot.
	n.retireSend(n.tx[d.DstNode], d.MsgID)
	if !d.NoEvent {
		n.stats.SendFailures++
		n.postEvent(p, d.SrcPort, EvSendFailed, d, 0)
	}
}

// ------------------------------------------------------------- receive

func (n *NIC) recvEngine(p *sim.Proc) {
	for {
		pkt := n.ep.RX.Recv(p)
		if n.fwDead {
			// Crashed firmware receives nothing; the wire drains into
			// the void and senders' timers recover after the reboot.
			n.stats.DeadDrops++
			continue
		}
		n.stats.PacketsRecv++
		switch pkt.Kind {
		case fabric.KindAck:
			n.handleAck(p, pkt)
		case fabric.KindNack:
			n.handleNack(p, pkt)
		case fabric.KindProbe:
			n.handleProbe(p, pkt)
		case fabric.KindProbeAck:
			n.handleProbeAck(p, pkt)
		case fabric.KindResync:
			n.handleResync(p, pkt)
		case fabric.KindData, fabric.KindRMAWrite, fabric.KindRMARead:
			n.handleData(p, pkt)
		case fabric.KindCollMcast, fabric.KindCollComb:
			n.handleCollPkt(p, pkt)
		default:
			panic(fmt.Sprintf("nic%d: unknown packet kind %v", n.node, pkt.Kind))
		}
	}
}

// handleProbeAck re-admits a dead peer and resyncs the go-back-N
// numbering: abandoned packets consumed sequence numbers the receiver
// never saw; the probe ACK carries the receiver's next expected
// sequence (and its boot epoch — a rebooted peer triggers a rewind
// instead).
func (n *NIC) handleProbeAck(p *sim.Proc, pkt *fabric.Packet) {
	n.cpu.Use(p, 1, n.prof.MCPAckProc)
	f := n.flowTo(pkt.Src)
	if n.noteEpoch(p, f, pkt.Epoch) {
		return
	}
	if len(f.unacked) == 0 {
		f.nextSeq = pkt.AckSeq
	}
	n.markPeerUp(f)
}

func (n *NIC) handleAck(p *sim.Proc, pkt *fabric.Packet) {
	n.cpu.Use(p, 1, n.prof.MCPAckProc)
	f := n.flowTo(pkt.Src)
	if n.noteEpoch(p, f, pkt.Epoch) {
		return
	}
	progress := false
	for len(f.unacked) > 0 && f.unacked[0].pkt.Seq <= pkt.AckSeq {
		pd := f.unacked[0]
		f.unacked = f.unacked[1:]
		progress = true
		if pd.sram > 0 {
			n.sram.Release(pd.sram)
		}
		if n.cfg.AdaptiveRTO && !pd.retx {
			n.rttSample(f, p.Now()-pd.sentAt)
		}
		if pd.lastFrag {
			// A rewind-replay can put two lastFrag pendings of the same
			// tracked message in flight; completion is first-wins via
			// inflight. Untracked kinds (RMA reads, collective forwards)
			// are never replayed, so they complete unconditionally.
			tracked := pd.desc.Kind == DescData || pd.desc.Kind == DescRMAWrite
			_, live := f.inflight[pd.pkt.MsgID]
			n.retireSend(f, pd.pkt.MsgID)
			if (!tracked || live) && !pd.desc.NoEvent {
				n.postEvent(p, pd.desc.SrcPort, EvSendDone, pd.desc, 0)
			}
		}
	}
	if progress {
		n.markPeerUp(f)
	}
	f.timer.Cancel()
	f.timer = sim.Timer{}
	if len(f.unacked) > 0 {
		n.armTimer(f)
	}
}

func (n *NIC) handleNack(p *sim.Proc, pkt *fabric.Packet) {
	n.cpu.Use(p, 1, n.prof.MCPAckProc)
	n.stats.NACKs++
	f := n.flowTo(pkt.Src)
	if n.noteEpoch(p, f, pkt.Epoch) {
		return
	}
	if len(f.unacked) == 0 {
		return
	}
	// Back off briefly, then go-back-N from the NACKed point; the
	// receiver's expected sequence has not advanced.
	f.timer.Cancel()
	f.timer = n.env.After(n.prof.RetransmitTimeout/4, func() {
		f.timer = sim.Timer{}
		n.retxQ.Post(f)
	})
}

func (n *NIC) handleData(p *sim.Proc, pkt *fabric.Packet) {
	n.Tracer.DoFlow(p, "nic: recv processing", n.where(), pkt.Trace, func() {
		n.cpu.Use(p, 1, n.prof.MCPRecvProc)
	})
	if !pkt.Verify() {
		n.stats.CRCDrops++
		n.Obs.Event(n.env.Now(), n.node, "nic", "crc-drop", pkt.Trace,
			fmt.Sprintf("src=%d seq=%d", pkt.Src, pkt.Seq))
		return // silence; sender's timer recovers
	}
	f := n.flowFrom(pkt.Src)
	if n.cfg.Reliable {
		if !n.rxEpochAdmit(pkt, f) {
			return
		}
		if pkt.Seq < f.expect {
			// Duplicate of something already delivered: re-ACK.
			n.stats.SeqDrops++
			n.sendAck(p, pkt.Src, f.expect-1)
			return
		}
		if pkt.Seq > f.expect {
			// Gap: go-back-N discards until the sender rewinds. After
			// OUR reboot the gap is permanent (the sender's window ran
			// past our restarted numbering), so ask for a rewind.
			n.stats.SeqDrops++
			n.maybeResync(p, f)
			return
		}
		if f.done[pkt.MsgID] {
			// A journal replay (sender reboot) or rewind overlap is
			// re-sending a message we already delivered: swallow it in
			// sequence — ACK, but never re-deliver. Exactly-once.
			n.stats.DupMsgDrops++
			f.expect++
			n.sendAck(p, pkt.Src, pkt.Seq)
			return
		}
	}

	if pkt.Kind == fabric.KindRMARead {
		if ok := n.handleRMARead(p, pkt); !ok {
			n.sendNack(p, pkt)
			return
		}
		if n.cfg.Reliable {
			f.expect++
			n.sendAck(p, pkt.Src, pkt.Seq)
		}
		return
	}

	asm, err := n.assemblyFor(p, f, pkt)
	if err != nil {
		n.stats.NoBufferDrops++
		n.Obs.Event(n.env.Now(), n.node, "nic", "no-buffer-drop", pkt.Trace,
			fmt.Sprintf("src=%d: %v", pkt.Src, err))
		if n.cfg.Reliable {
			n.sendNack(p, pkt)
		}
		return
	}

	// Copy the payload into the host buffer by DMA.
	if len(pkt.Payload) > 0 {
		off := asm.baseOffset + pkt.Offset
		segs, rerr := n.resolve(p, asm.desc.Segs, asm.desc.VA, asm.desc.Space, off, len(pkt.Payload))
		if rerr != nil {
			n.stats.NoBufferDrops++
			if n.cfg.Reliable {
				n.sendNack(p, pkt)
			}
			return
		}
		dmaStart := p.Now()
		done := 0
		for _, s := range segs {
			n.busDMA(p, s.Len)
			if werr := n.hmem.DMAWrite(s.Phys, pkt.Payload[done:done+s.Len]); werr != nil {
				n.stats.NoBufferDrops++
				if n.cfg.Reliable {
					n.sendNack(p, pkt)
				}
				return
			}
			done += s.Len
		}
		n.Tracer.AddFlow("nic: payload DMA to host", n.where(), pkt.Trace, dmaStart, p.Now())
	}
	n.stats.BytesReceived += uint64(len(pkt.Payload))

	if n.cfg.Reliable {
		f.expect++
		n.sendAck(p, pkt.Src, pkt.Seq)
	}

	// Count first receipts only: a rewind-replay from a peer-reboot
	// resync can overlap fragments the original pipeline already
	// delivered (same message id, fresh sequence numbers).
	if pkt.FragIdx >= 0 && pkt.FragIdx < len(asm.gotSet) && !asm.gotSet[pkt.FragIdx] {
		asm.gotSet[pkt.FragIdx] = true
		asm.got++
	}
	if asm.got == asm.frags {
		delete(f.asm, pkt.MsgID)
		n.stats.MsgsReceived++
		if n.cfg.Reliable {
			n.markDone(f, pkt.MsgID)
		}
		if n.Journal != nil {
			// The posting is consumed only now that the message is
			// whole: a crash mid-assembly replays the posting and the
			// sender's rewind re-delivers into it from fragment zero.
			switch {
			case asm.sysBuf:
				n.Journal.SysConsumed(asm.port.ID, asm.desc.VA)
			case asm.recvEvent:
				n.Journal.RecvConsumed(asm.port.ID, asm.channel)
			}
		}
		if pkt.Born > 0 {
			n.Obs.Observe(n.node, "nic", "msg_latency_ns", int64(n.env.Now()-pkt.Born))
		}
		if asm.recvEvent {
			ev := &Event{
				Type: EvRecvDone, Port: pkt.DstPort, Channel: pkt.Channel,
				MsgID: pkt.MsgID, Len: pkt.MsgLen, Tag: pkt.Tag,
				SrcNode: pkt.Src, SrcPort: pkt.SrcPort, VA: asm.desc.VA,
				Stamp: n.env.Now(), Trace: pkt.Trace,
			}
			n.deliverEvent(p, asm.port, asm.port.RecvEvQ, ev)
		}
	}
}

// assemblyFor finds or creates the assembly record for a message,
// resolving the target buffer on its first fragment.
func (n *NIC) assemblyFor(p *sim.Proc, f *rxFlow, pkt *fabric.Packet) (*rxAssembly, error) {
	if asm, ok := f.asm[pkt.MsgID]; ok {
		return asm, nil
	}
	// Resolving the destination channel state costs firmware time once
	// per message.
	n.cpu.Use(p, 1, n.prof.MCPChannelLookup)
	port, ok := n.ports[pkt.DstPort]
	if !ok {
		return nil, fmt.Errorf("nic%d: port %d not registered", n.node, pkt.DstPort)
	}
	asm := &rxAssembly{
		port: port, channel: pkt.Channel, frags: pkt.Frags,
		gotSet: make([]bool, pkt.Frags), recvEvent: true,
	}

	switch {
	case pkt.Kind == fabric.KindRMAWrite:
		d, okc := port.open[pkt.Channel]
		if !okc {
			return nil, fmt.Errorf("nic%d: open channel %d not registered", n.node, pkt.Channel)
		}
		base := pkt.Offset - pkt.FragIdx*n.prof.MaxPacket // message base offset in remote buffer
		if base < 0 || base+pkt.MsgLen > d.Len {
			return nil, fmt.Errorf("nic%d: RMA write out of bounds", n.node)
		}
		asm.desc = d
		asm.recvEvent = false
		// RMA fragments carry absolute buffer offsets already.
		asm.baseOffset = 0
	case pkt.Channel == 0:
		// Channel 0 is the system channel: grab a pool buffer. The size
		// check comes before the take: a rejected message is NACKed and
		// retransmitted, and each retry would otherwise eat a buffer.
		d, okb := port.system.Peek()
		if !okb {
			return nil, fmt.Errorf("nic%d: system pool empty on port %d", n.node, pkt.DstPort)
		}
		if pkt.MsgLen > d.Len {
			return nil, fmt.Errorf("nic%d: message too large for system buffer", n.node)
		}
		port.system.TryRecv()
		asm.desc = d
		asm.sysBuf = true
	default:
		d, okc := port.normal[pkt.Channel]
		if !okc {
			return nil, fmt.Errorf("nic%d: channel %d not armed on port %d", n.node, pkt.Channel, pkt.DstPort)
		}
		if pkt.MsgLen > d.Len {
			return nil, fmt.Errorf("nic%d: message exceeds posted buffer", n.node)
		}
		asm.desc = d
		// A normal channel consumes its posting.
		delete(port.normal, pkt.Channel)
	}
	f.asm[pkt.MsgID] = asm
	return asm, nil
}

// handleRMARead services a read request: it fabricates a send
// descriptor over the registered open buffer and queues it to its own
// send engine. Reports false if the request is invalid.
func (n *NIC) handleRMARead(p *sim.Proc, pkt *fabric.Packet) bool {
	port, ok := n.ports[pkt.DstPort]
	if !ok {
		return false
	}
	d, ok := port.open[pkt.Channel]
	if !ok {
		return false
	}
	if pkt.Offset < 0 || pkt.Offset+pkt.MsgLen > d.Len {
		return false
	}
	reply := &SendDesc{
		Kind:    DescData,
		MsgID:   n.NextMsgID(),
		SrcPort: pkt.DstPort,
		DstNode: pkt.Src,
		DstPort: pkt.SrcPort,
		Channel: int(pkt.Tag), // the initiator's reply channel
		Len:     pkt.MsgLen,
		Segs:    sliceSegs(d.Segs, pkt.Offset, pkt.MsgLen),
		VA:      d.VA + mem.VAddr(pkt.Offset),
		Space:   d.Space,
		NoEvent: true,
		Trace:   pkt.Trace, // the reply stays on the initiator's flow
		Born:    pkt.Born,
	}
	n.postDesc(reply)
	return true
}

// handleProbe answers a liveness probe; the reply is what re-admits
// the prober's flow toward us. It carries our next expected sequence
// from the prober so the sender can resync its go-back-N epoch.
func (n *NIC) handleProbe(p *sim.Proc, pkt *fabric.Packet) {
	n.cpu.Use(p, 1, n.prof.MCPAckProc)
	ack := &fabric.Packet{
		Kind: fabric.KindProbeAck, Src: n.node, Dst: pkt.Src,
		AckSeq: n.flowFrom(pkt.Src).expect, Epoch: n.bootEpoch,
	}
	ack.Seal()
	n.ep.Inject(p, ack)
}

func (n *NIC) sendAck(p *sim.Proc, dst int, seq uint64) {
	ack := &fabric.Packet{Kind: fabric.KindAck, Src: n.node, Dst: dst, AckSeq: seq, Epoch: n.bootEpoch}
	ack.Seal()
	n.ep.Inject(p, ack)
}

func (n *NIC) sendNack(p *sim.Proc, cause *fabric.Packet) {
	nack := &fabric.Packet{Kind: fabric.KindNack, Src: n.node, Dst: cause.Src, AckSeq: cause.Seq, Epoch: n.bootEpoch}
	nack.Seal()
	n.ep.Inject(p, nack)
}

// ------------------------------------------------------------- events

// postEvent builds and delivers a sender-side event for a descriptor.
func (n *NIC) postEvent(p *sim.Proc, portID int, t EventType, d *SendDesc, ln int) {
	port, ok := n.ports[portID]
	if !ok {
		return
	}
	ev := &Event{
		Type: t, Port: portID, Channel: d.Channel, MsgID: d.MsgID,
		Len: d.Len, Tag: d.Tag, SrcNode: n.node, SrcPort: d.SrcPort,
		Stamp: n.env.Now(), Trace: d.Trace,
	}
	n.deliverEvent(p, port, port.SendEvQ, ev)
}

// deliverEvent charges the completion-path costs and hands the event
// to the host: DMA into the user event queue, or an interrupt.
func (n *NIC) deliverEvent(p *sim.Proc, port *Port, q *sim.Queue[*Event], ev *Event) {
	n.Tracer.DoFlow(p, "nic: completion event DMA", n.where(), ev.Trace, func() {
		n.cpu.Use(p, 1, n.prof.MCPEventDMA)
		n.Bus.Use(p, 1, n.prof.EventBusTime)
	})
	if n.cfg.Completion == Interrupt {
		n.stats.Interrupts++
		if n.InterruptHandler != nil {
			n.InterruptHandler(ev)
		}
		return
	}
	q.Post(ev)
}
