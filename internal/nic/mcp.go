package nic

import (
	"fmt"
	"slices"

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
// retransmission. pkt is the pristine descriptor; every transmission
// puts a pool clone of it on the wire, which shares the payload by
// reference (a fault hook corrupts a private copy, see fabric.Fault),
// so in-fabric corruption cannot damage the retained bytes.
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
	unacked sim.Ring[pending] // at most Config.Window packets, oldest first
	retries int
	timer   sim.Timer
	window  *sim.Cond

	// Timer callbacks, built once per flow so arming a timer (once per
	// ACK) allocates nothing: onTimer queues a retransmit round, onProbe
	// the next liveness probe, onGray ends a rail-steering hold.
	onTimer, onProbe, onGray func()

	// Peer-health state machine: Up -> Suspect on the first retransmit
	// round, Suspect -> Dead on retry exhaustion, Dead -> Probing once
	// liveness probes start, Probing -> Up on a probe ACK (or any
	// genuine ACK progress).
	health     PeerHealth
	probeTimer sim.Timer
	// failed lists the messages being failed whose trailing fragments
	// are still to come down the pipeline, so those are suppressed, and
	// whether failFlow already reported the failure, so the fail-fast
	// path does not post a second EvSendFailed. A handful at most.
	failed []failedMsg

	// peerEpoch is the peer firmware's boot epoch as last seen on its
	// control packets; a jump means the peer rebooted and wiped its
	// receive state, so this flow rewinds and replays (resyncFlow).
	peerEpoch uint32
	// inflight tracks data/RMA-write messages transmitted toward the
	// peer but not yet acknowledged/failed, in first-transmit order,
	// so a rewind can replay them from fragment zero. The send window
	// bounds it, so a message is found by walking it.
	inflight sim.Ring[*SendDesc]

	// Adaptive-RTO estimator state (Config.AdaptiveRTO).
	srtt      sim.Time // smoothed RTT
	rttvar    sim.Time // mean deviation
	baseRTT   sim.Time // best RTT observed (gray-failure baseline)
	grayOn    bool     // currently steered onto the alternate rail
	grayTimer sim.Timer
}

type failedMsg struct {
	id       uint64
	reported bool
}

// inflightIdx returns the replay-order position of a message in flight
// on the flow, -1 if it is not (or no longer).
func (f *txFlow) inflightIdx(msgID uint64) int {
	for i := 0; i < f.inflight.Len(); i++ {
		if (*f.inflight.At(i)).MsgID == msgID {
			return i
		}
	}
	return -1
}

// failedIdx returns the index of a message in the failed list, -1 if it
// is not being failed.
func (f *txFlow) failedIdx(msgID uint64) int {
	for i := range f.failed {
		if f.failed[i].id == msgID {
			return i
		}
	}
	return -1
}

// markFailed lists a message as being failed, or updates its entry.
func (f *txFlow) markFailed(msgID uint64, reported bool) {
	if i := f.failedIdx(msgID); i >= 0 {
		f.failed[i].reported = reported
		return
	}
	f.failed = append(f.failed, failedMsg{id: msgID, reported: reported})
}

// rxFlow is the receiver-side sequencing state from one remote node.
type rxFlow struct {
	src    int
	expect uint64
	asm    []*rxAssembly // messages in progress: one per sending port at most, so found by walking

	// srcEpoch is the sender firmware's boot epoch as stamped on its
	// packets; a jump means the sender rebooted and restarted its
	// sequence numbering from zero.
	srcEpoch uint32
	// done remembers the last DoneRing completed message ids so a
	// journal-replayed message a rebooted sender re-sends is swallowed
	// (ACKed but not re-delivered) — the exactly-once guarantee; once
	// full, the oldest makes way for the newest. doneMax is the highest id
	// ever recorded: ids from one card only grow, so the id of a new
	// message is above it and is known not to be in the ring without a
	// look.
	done       sim.Ring[uint64]
	doneMax    uint64
	lastResync sim.Time // RESYNC send throttle
}

// isDone reports whether msgID is among the last DoneRing messages
// completed on the flow.
func (f *rxFlow) isDone(msgID uint64) bool {
	if msgID > f.doneMax {
		return false
	}
	for i := 0; i < f.done.Len(); i++ {
		if *f.done.At(i) == msgID {
			return true
		}
	}
	return false
}

// recordDone enters a completed message in the done-ring.
func (f *rxFlow) recordDone(msgID uint64) {
	f.doneMax = max(f.doneMax, msgID)
	f.done.PushLast(msgID, DoneRing)
}

// DoneRing is the depth of the per-flow completed-message ring, and of
// the kernel journal's mirror of it. It only needs to cover messages
// that can be simultaneously unretired in the sender's journal, which
// the send window bounds far below this.
const DoneRing = 128

// rxAssembly tracks one in-progress incoming message.
type rxAssembly struct {
	msgID      uint64
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
	f := n.tx.Get(dst)
	if f == nil {
		f = &txFlow{dst: dst, window: sim.NewCond(n.env)}
		f.onTimer = func() {
			f.timer = sim.Timer{}
			n.retxQ.Post(f)
		}
		f.onProbe = func() {
			f.probeTimer = sim.Timer{}
			n.retxQ.Post(f)
		}
		f.onGray = func() { n.grayRestore(f) }
		n.tx.Set(dst, f)
	}
	return f
}

func (n *NIC) flowFrom(src int) *rxFlow {
	f := n.rx.Get(src)
	if f == nil {
		f = &rxFlow{src: src}
		n.rx.Set(src, f)
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
	pkt      *fabric.Packet // pooled descriptor holding the fetched payload; nil for a read request or a failed fetch
	sram     int
	lastFrag bool
	err      error
	epoch    uint32 // boot epoch the fragment was staged under
}

// dropJob releases what a staged fragment holds when the injector
// discards it.
func (n *NIC) dropJob(j fetchJob) {
	if j.sram > 0 {
		n.sram.Release(j.sram)
	}
	if j.pkt != nil {
		j.pkt.Release()
	}
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
		pkt, err := n.fetchRange(p, d, lo, hi-lo)
		sram := 0
		if pkt != nil {
			sram = len(pkt.Payload)
		}
		if sram > 0 {
			n.sram.Acquire(p, sram)
		}
		last := idx == r.frags-1
		n.fetchQ.Send(p, fetchJob{
			desc: d, fragIdx: idx, frags: r.frags, pkt: pkt,
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
			r.cur = r.q.Pop().d
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
		n.removeRing(r)
	}
}

// pickFIFO is the single-tenant arbitration policy: once a message is
// in service it runs to completion, and the next message is the one
// that was posted earliest across all rings — exactly the behaviour of
// one shared send queue.
func (n *NIC) pickFIFO() *sendRing {
	var best *sendRing
	var bestSeq uint64
	for _, r := range n.ringOrder {
		if r.cur != nil {
			return r
		}
		if r.q.Len() == 0 {
			continue
		}
		if arrival := r.q.At(0).arrival; best == nil || arrival < bestSeq {
			best = r
			bestSeq = arrival
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
		r := n.ringOrder[n.rrPos]
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
			n.dropJob(j)
			continue
		}
		if d.Len < 0 {
			// Only a free list's poison is negative (under go test).
			panic(fmt.Sprintf("nic%d: send pipeline holds a descriptor that was retired and recycled", n.node))
		}
		if j.err != nil {
			// Bad host descriptor (fault/unpinned). Surface a send
			// failure; the kernel path validates before posting, so
			// this fires mainly for the user-level architecture.
			n.dropJob(j)
			skipMsg = d.MsgID
			n.failMessage(p, d)
			continue
		}
		if d.MsgID == skipMsg && d.MsgID != 0 {
			n.dropJob(j)
			continue
		}
		if d.Kind == DescCollMcast || d.Kind == DescCollComb {
			if j.fragIdx != 0 {
				// Collective payloads are single-packet by contract (the
				// library validates); drop stray fragments defensively.
				n.dropJob(j)
				continue
			}
			// Hand the staged payload (and its SRAM accounting) to the
			// collective engine: from here on the message fans out over
			// the tree without re-touching host memory. The engine keeps
			// and shares payloads for as long as a collective runs, so it
			// gets a GC-owned copy, not the pooled buffer.
			payload := append([]byte(nil), j.pkt.Payload...)
			j.pkt.Release()
			n.collQ.Post(collJob{kind: collJobLocal, desc: d, payload: payload, sram: j.sram, epoch: n.bootEpoch})
			continue
		}
		flow := n.flowTo(d.DstNode)
		pkt := j.pkt
		if d.Kind == DescRMARead {
			n.cpu.Use(p, 1, n.prof.MCPSendProc)
			pkt = n.pool.Get(0)
			pkt.Kind, pkt.Frags, pkt.Offset = fabric.KindRMARead, 1, d.Offset
			pkt.Tag = uint64(d.ReplyChannel)
			n.stamp(pkt, d)
			n.transmit(p, flow, pkt, d, true, 0)
			continue
		}
		cost := n.prof.MCPPacketProc
		stage := "nic: packet processing"
		if j.fragIdx == 0 {
			cost = n.prof.MCPDescFetch + n.prof.MCPSendProc
			stage = "nic: send proc (reliable protocol)"
		}
		n.Tracer.DoFlow(p, stage, n.where(), d.Trace, func() { n.cpu.Use(p, 1, cost) })
		pkt.Kind = fabric.KindData
		if d.Kind == DescRMAWrite {
			pkt.Kind = fabric.KindRMAWrite
		}
		pkt.FragIdx, pkt.Frags = j.fragIdx, j.frags
		pkt.Offset = d.Offset + j.fragIdx*n.prof.MaxPacket
		pkt.Tag = d.Tag
		n.stamp(pkt, d)
		n.Tracer.DoFlow(p, "nic: inject to network", n.where(), d.Trace, func() {
			n.transmit(p, flow, pkt, d, j.lastFrag, j.sram)
		})
	}
}

// stamp fills in the header fields every packet of a message takes
// from its descriptor and seals the CRC — once: clones carry it.
func (n *NIC) stamp(pkt *fabric.Packet, d *SendDesc) {
	pkt.Src, pkt.Dst = n.node, d.DstNode
	pkt.SrcPort, pkt.DstPort, pkt.Channel = d.SrcPort, d.DstPort, d.Channel
	pkt.MsgID, pkt.MsgLen = d.MsgID, d.Len
	pkt.Trace, pkt.Born = d.Trace, d.Born
	pkt.Seal()
}

// fetchRange DMAs [lo, lo+ln) of the descriptor's buffer from host
// memory into the payload of a pooled packet — the buffer the bytes
// stay in until the receiving NIC has DMAed them out — charging bus
// time (and, in NIC-translated mode, translation cache costs).
func (n *NIC) fetchRange(p *sim.Proc, d *SendDesc, lo, ln int) (*fabric.Packet, error) {
	pkt := n.pool.Get(ln)
	if ln == 0 {
		return pkt, nil
	}
	segs, err := n.resolve(p, &n.fetchSegs, d.Segs, d.VA, d.Space, lo, ln)
	if err != nil {
		pkt.Release()
		return nil, err
	}
	dmaStart := p.Now()
	done := 0
	for _, s := range segs {
		n.busDMA(p, s.Len)
		if err := n.hmem.DMARead(s.Phys, pkt.Payload[done:done+s.Len]); err != nil {
			pkt.Release()
			return nil, err
		}
		done += s.Len
	}
	n.Tracer.AddFlow("nic: host DMA fetch", n.where(), d.Trace, dmaStart, p.Now())
	return pkt, nil
}

// resolve produces the physical segments for byte range [lo, lo+ln) of
// a buffer, either by slicing the host-translated scatter/gather list
// or by translating on the card. The result lives in *scratch, the
// calling engine's own slice, until that engine's next resolve.
func (n *NIC) resolve(p *sim.Proc, scratch *[]mem.Segment, segs []mem.Segment, va mem.VAddr, space *mem.AddrSpace, lo, ln int) ([]mem.Segment, error) {
	out := (*scratch)[:0]
	if n.cfg.Translate == HostTranslated || segs != nil {
		out = appendSegs(out, segs, lo, ln)
		*scratch = out
		return out, nil
	}
	if space == nil {
		return nil, fmt.Errorf("nic%d: NIC-translated descriptor without address space", n.node)
	}
	pageSize := int64(space.Mem().PageSize())
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
	*scratch = out
	return out, nil
}

// sliceSegs cuts the byte range [lo, lo+ln) out of a scatter/gather
// list into a fresh slice.
func sliceSegs(segs []mem.Segment, lo, ln int) []mem.Segment {
	return appendSegs(nil, segs, lo, ln)
}

// appendSegs appends the byte range [lo, lo+ln) of a scatter/gather
// list to out.
func appendSegs(out, segs []mem.Segment, lo, ln int) []mem.Segment {
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

// transmit runs the reliability window and injects the packet. It
// takes over pkt: the flow's retransmit queue keeps it until the ACK,
// and every path that does not queue it releases it.
func (n *NIC) transmit(p *sim.Proc, flow *txFlow, pkt *fabric.Packet, d *SendDesc, lastFrag bool, sram int) {
	pkt.Epoch = n.bootEpoch
	if !n.cfg.Reliable {
		n.inject(p, pkt)
		if sram > 0 {
			n.sram.Release(sram)
		}
		if lastFrag {
			// Fire-and-forget: declare success at injection.
			ev, post := n.sendEvent(EvSendDone, d), !d.NoEvent
			n.retireSend(nil, d.MsgID, d, true)
			if post {
				n.postEvent(p, ev)
			}
		}
		return
	}
	for flow.unacked.Len() >= n.cfg.Window {
		flow.window.Wait(p)
		if n.tx.Get(d.DstNode) != flow {
			// The firmware rebooted while we waited for window space:
			// this fragment belongs to the dead boot epoch; the kernel
			// journal replay re-issues the message.
			if sram > 0 {
				n.sram.Release(sram)
			}
			pkt.Release()
			return
		}
	}
	if i := flow.failedIdx(pkt.MsgID); i >= 0 {
		// Trailing fragment of a message already being failed:
		// suppress it (whatever the current health) so the receiver
		// never sees a partial message resumed mid-stream.
		if sram > 0 {
			n.sram.Release(sram)
		}
		if lastFrag {
			reported := flow.failed[i].reported
			flow.failed = append(flow.failed[:i], flow.failed[i+1:]...)
			if !reported {
				n.stats.FastFails++
				n.failMessage(p, d)
			}
		}
		pkt.Release()
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
			n.obs.Event(n.env.Now(), n.node, "nic", "fast-fail", pkt.Trace,
				fmt.Sprintf("dst=%d msg=%d peer %v", d.DstNode, d.MsgID, flow.health))
			n.failMessage(p, d)
		} else {
			flow.markFailed(pkt.MsgID, false) // report deferred to lastFrag
		}
		pkt.Release()
		return
	}
	// Track the message for rewind replay, on fragment zero only: a
	// trailing fragment still in the pipeline after the message was
	// acked (and retired) must not resurrect it, or its completion
	// event would fire twice.
	if (d.Kind == DescData || d.Kind == DescRMAWrite) && pkt.FragIdx == 0 {
		if flow.inflightIdx(pkt.MsgID) < 0 {
			flow.inflight.Push(d)
		}
	}
	pkt.Seq = flow.nextSeq
	flow.nextSeq++
	flow.unacked.Push(pending{
		pkt: pkt, desc: d, lastFrag: lastFrag, sram: sram, sentAt: p.Now(),
	})
	if flow.timer == (sim.Timer{}) {
		n.armTimer(flow)
	}
	n.inject(p, n.pool.Clone(pkt))
}

// inject pushes one packet into the fabric, counting it.
func (n *NIC) inject(p *sim.Proc, pkt *fabric.Packet) {
	n.stats.PacketsSent++
	n.stats.BytesSent += uint64(len(pkt.Payload))
	n.ep.Inject(p, pkt)
}

func (n *NIC) armTimer(f *txFlow) {
	f.timer.Cancel()
	f.timer = n.env.After(n.retxDelay(f), f.onTimer)
}

// retxDelay is the adaptive retransmit timeout: the base value for the
// first round, then exponential backoff capped at RetransmitBackoffMax,
// with deterministic jitter to de-synchronise competing flows. The
// jitter is a hash of (node, dst, round) rather than an env.Rand()
// draw so arming a timer never perturbs the shared RNG stream.
func (n *NIC) retxDelay(f *txFlow) sim.Time {
	base := n.prof.RetransmitTimeout
	ceil := n.prof.RetransmitBackoffMax
	if n.cfg.AdaptiveRTO && f.srtt > 0 {
		// Jacobson-style RTO replaces the fixed base: srtt + 4*rttvar,
		// floored at a quarter of the base so a burst of fast ACKs
		// cannot collapse the timer into spurious retransmits. The
		// exponential backoff below still multiplies it per retry round.
		rto := f.srtt + 4*f.rttvar
		if floor := base / 4; rto < floor {
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

func (n *NIC) wakeWindow(f *txFlow) { f.window.Broadcast() }

// wipeUnacked empties a flow's retransmit queue, returning the SRAM and
// the packets it holds.
func (n *NIC) wipeUnacked(f *txFlow) {
	for f.unacked.Len() > 0 {
		pd := f.unacked.Pop()
		if pd.sram > 0 {
			n.sram.Release(pd.sram)
		}
		pd.pkt.Release()
	}
}

// ---------------------------------------------------------- retransmit

func (n *NIC) retxEngine(p *sim.Proc) {
	for {
		f := n.retxQ.Recv(p)
		if n.fwDead || n.tx.Get(f.dst) != f {
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
		if f.unacked.Len() == 0 {
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
			n.rttSample(f, n.env.Now()-f.unacked.At(0).sentAt)
		}
		n.obs.Event(n.env.Now(), n.node, "nic", "retx-round",
			f.unacked.At(0).pkt.Trace,
			fmt.Sprintf("dst=%d round=%d pkts=%d", f.dst, f.retries, f.unacked.Len()))
		// The round is the window as it stands now: every packet in it
		// goes out again even if its ACK lands while an earlier one is
		// being injected. Cloning up front takes the payload references
		// that keep those bytes alive past such an ACK.
		first := f.unacked.Head()
		round := n.retxRound[:0]
		for i := 0; i < f.unacked.Len(); i++ {
			round = append(round, n.pool.Clone(f.unacked.At(i).pkt))
		}
		for i, wire := range round {
			if pd := f.unacked.Live(first + uint64(i)); pd != nil {
				pd.retx = true // Karn's rule: an ambiguous ACK never samples
			}
			n.Tracer.DoFlow(p, "nic: retransmit", n.where(), wire.Trace, func() {
				n.cpu.Use(p, 1, n.prof.MCPPacketProc)
				n.stats.Retransmits++
				n.inject(p, wire)
			})
			round[i] = nil
		}
		n.retxRound = round[:0]
		n.armTimer(f)
	}
}

// failFlow abandons every in-flight message on a flow after retry
// exhaustion, reporting EvSendFailed once per message, marks the peer
// Dead and starts the liveness-probe cycle.
func (n *NIC) failFlow(p *sim.Proc, f *txFlow) {
	complete := make(map[uint64]bool) // lastFrag in window: no trailing frags coming
	first, count := f.unacked.Head(), f.unacked.Len()
	for i := 0; i < count; i++ {
		if pd := f.unacked.At(i); pd.lastFrag {
			complete[pd.pkt.MsgID] = true
		}
	}
	seen := make(map[uint64]bool)
	for i := 0; i < count; i++ {
		// Delivering a failure event blocks, and the window stays queued
		// meanwhile (so the injector keeps seeing it full): an entry an
		// ACK retired in that time is skipped, and the fields used after
		// a blocking call are copied out first.
		pd := f.unacked.Live(first + uint64(i))
		if pd == nil {
			continue
		}
		if pd.sram > 0 {
			n.sram.Release(pd.sram)
			pd.sram = 0
		}
		d, msgID, traceID := pd.desc, pd.pkt.MsgID, pd.pkt.Trace
		ev := n.sendEvent(EvSendFailed, d)
		n.retireSend(f, msgID, d, false) // abandoned: the journal forgets it
		if d.OnFail != nil {
			// Collective forwards: the engine reparents the branch
			// instead of surfacing a host event.
			if !seen[msgID] {
				seen[msgID] = true
				d.OnFail()
			}
			continue
		}
		if !seen[msgID] && !d.NoEvent {
			seen[msgID] = true
			if !complete[msgID] {
				f.markFailed(msgID, true) // already reported here
			}
			n.stats.SendFailures++
			n.obs.Event(n.env.Now(), n.node, "nic", "send-failed", traceID,
				fmt.Sprintf("dst=%d msg=%d retries exhausted", f.dst, msgID))
			n.postEvent(p, ev)
		}
	}
	n.wipeUnacked(f)
	f.retries = 0
	f.timer.Cancel()
	f.timer = sim.Timer{}
	if f.health != PeerDead && f.health != PeerProbing {
		f.health = PeerDead
		n.stats.PeerDeaths++
		now := n.env.Now()
		n.Tracer.Add("nic: peer dead", n.where(), now, now)
		n.obs.Event(now, n.node, "nic", "peer-dead", 0, fmt.Sprintf("dst=%d", f.dst))
		n.armProbe(f)
	}
	n.wakeWindow(f)
}

// armProbe schedules the next liveness probe toward a dead peer.
func (n *NIC) armProbe(f *txFlow) {
	f.probeTimer.Cancel()
	f.probeTimer = n.env.After(n.prof.PeerProbeInterval, f.onProbe)
}

// sendProbe injects one liveness probe and re-arms the probe timer.
func (n *NIC) sendProbe(p *sim.Proc, f *txFlow) {
	f.health = PeerProbing
	n.cpu.Use(p, 1, n.prof.MCPAckProc)
	n.stats.Probes++
	n.obs.Event(n.env.Now(), n.node, "nic", "probe", 0, fmt.Sprintf("dst=%d", f.dst))
	n.ep.Inject(p, n.control(fabric.KindProbe, f.dst, 0, 0))
	n.armProbe(f)
}

// markPeerUp re-admits a peer after liveness evidence (probe ACK or
// genuine go-back-N progress).
func (n *NIC) markPeerUp(f *txFlow) {
	if f.health == PeerDead || f.health == PeerProbing {
		n.stats.PeerRecoveries++
		now := n.env.Now()
		n.Tracer.Add("nic: peer recovered", n.where(), now, now)
		n.obs.Event(now, n.node, "nic", "peer-recovered", 0, fmt.Sprintf("dst=%d", f.dst))
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
	ev, post := n.sendEvent(EvSendFailed, d), !d.NoEvent
	n.retireSend(n.tx.Get(d.DstNode), d.MsgID, d, false)
	if post {
		n.stats.SendFailures++
		n.postEvent(p, ev)
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
			pkt.Release()
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
			if n.handleCollPkt(p, pkt) {
				continue // the collective engine releases it
			}
		default:
			panic(fmt.Sprintf("nic%d: unknown packet kind %v", n.node, pkt.Kind))
		}
		// Handled or dropped, this NIC is the packet's last holder: the
		// descriptor and this reference to the payload go back to the pool.
		pkt.Release()
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
	if f.unacked.Len() == 0 {
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
	for f.unacked.Len() > 0 && f.unacked.At(0).pkt.Seq <= pkt.AckSeq {
		pd := f.unacked.Pop()
		msgID := pd.pkt.MsgID
		pd.pkt.Release() // the sender's reference: the bytes are delivered
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
			// are never replayed, so they complete unconditionally. The
			// event is composed before the message is retired: retiring
			// frees the descriptor.
			d := pd.desc
			tracked := d.Kind == DescData || d.Kind == DescRMAWrite
			live := f.inflightIdx(msgID) >= 0
			ev, post := n.sendEvent(EvSendDone, d), (!tracked || live) && !d.NoEvent
			n.retireSend(f, msgID, d, true)
			if post {
				n.postEvent(p, ev)
			}
		}
	}
	if progress {
		n.markPeerUp(f)
	}
	f.timer.Cancel()
	f.timer = sim.Timer{}
	if f.unacked.Len() > 0 {
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
	if f.unacked.Len() == 0 {
		return
	}
	// Back off briefly, then go-back-N from the NACKed point; the
	// receiver's expected sequence has not advanced.
	f.timer.Cancel()
	f.timer = n.env.After(n.prof.RetransmitTimeout/4, f.onTimer)
}

func (n *NIC) handleData(p *sim.Proc, pkt *fabric.Packet) {
	n.Tracer.DoFlow(p, "nic: recv processing", n.where(), pkt.Trace, func() {
		n.cpu.Use(p, 1, n.prof.MCPRecvProc)
	})
	if !pkt.Verify() {
		n.stats.CRCDrops++
		n.obs.Event(n.env.Now(), n.node, "nic", "crc-drop", pkt.Trace,
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
		if f.isDone(pkt.MsgID) {
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
		n.obs.Event(n.env.Now(), n.node, "nic", "no-buffer-drop", pkt.Trace,
			fmt.Sprintf("src=%d: %v", pkt.Src, err))
		if n.cfg.Reliable {
			n.sendNack(p, pkt)
		}
		return
	}

	// Copy the payload into the host buffer by DMA.
	if len(pkt.Payload) > 0 {
		off := asm.baseOffset + pkt.Offset
		segs, rerr := n.resolve(p, &n.recvSegs, asm.desc.Segs, asm.desc.VA, asm.desc.Space, off, len(pkt.Payload))
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
		f.asm = slices.DeleteFunc(f.asm, func(a *rxAssembly) bool { return a == asm })
		n.stats.MsgsReceived++
		if n.cfg.Reliable {
			n.markDone(f, pkt.MsgID)
		}
		// The posting is consumed only now that the message is whole: a
		// crash mid-assembly replays the posting and the sender's rewind
		// re-delivers into it from fragment zero.
		va := asm.desc.VA
		if asm.sysBuf || asm.recvEvent { // not an RMA window: those stay registered
			n.consumed(asm.port, asm.channel, asm.desc)
		}
		asm.desc = nil
		if pkt.Born > 0 && n.obs != nil {
			if n.msgLatency == nil {
				n.msgLatency = n.obs.Reg.Histogram(n.node, "nic", "msg_latency_ns")
			}
			n.msgLatency.Observe(int64(n.env.Now() - pkt.Born))
		}
		if asm.recvEvent {
			n.deliverEvent(p, asm.port, asm.port.RecvEvQ, Event{
				Type: EvRecvDone, Port: pkt.DstPort, Channel: pkt.Channel,
				MsgID: pkt.MsgID, Len: pkt.MsgLen, Tag: pkt.Tag,
				SrcNode: pkt.Src, SrcPort: pkt.SrcPort, VA: va,
				Stamp: n.env.Now(), Trace: pkt.Trace,
			})
		}
		n.asms.Put(asm)
	}
}

// newAssembly returns a cleared assembly record for a message of frags
// fragments, reusing one a completed message gave back (handleData).
func (n *NIC) newAssembly(frags int) *rxAssembly {
	asm, ok := n.asms.Get()
	if !ok {
		asm = &rxAssembly{}
	}
	set := asm.gotSet[:0]
	if cap(set) < frags {
		set = make([]bool, frags)
	}
	set = set[:frags]
	clear(set)
	*asm = rxAssembly{frags: frags, gotSet: set}
	return asm
}

// assemblyFor finds or creates the assembly record for a message,
// resolving the target buffer on its first fragment.
func (n *NIC) assemblyFor(p *sim.Proc, f *rxFlow, pkt *fabric.Packet) (*rxAssembly, error) {
	for _, asm := range f.asm {
		if asm.msgID == pkt.MsgID {
			return asm, nil
		}
	}
	// Resolving the destination channel state costs firmware time once
	// per message.
	n.cpu.Use(p, 1, n.prof.MCPChannelLookup)
	port := n.ports.Get(pkt.DstPort)
	if port == nil {
		return nil, fmt.Errorf("nic%d: port %d not registered", n.node, pkt.DstPort)
	}
	asm := n.newAssembly(pkt.Frags)
	asm.msgID, asm.port, asm.channel, asm.recvEvent = pkt.MsgID, port, pkt.Channel, true

	switch {
	case pkt.Kind == fabric.KindRMAWrite:
		d := port.open.Get(pkt.Channel)
		if d == nil {
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
		d := port.normal.Get(pkt.Channel)
		if d == nil {
			return nil, fmt.Errorf("nic%d: channel %d not armed on port %d", n.node, pkt.Channel, pkt.DstPort)
		}
		if pkt.MsgLen > d.Len {
			return nil, fmt.Errorf("nic%d: message exceeds posted buffer", n.node)
		}
		asm.desc = d
		// A normal channel consumes its posting.
		port.normal.Set(pkt.Channel, nil)
	}
	f.asm = append(f.asm, asm)
	return asm, nil
}

// handleRMARead services a read request: it fabricates a send
// descriptor over the registered open buffer and queues it to its own
// send engine. Reports false if the request is invalid.
func (n *NIC) handleRMARead(p *sim.Proc, pkt *fabric.Packet) bool {
	port := n.ports.Get(pkt.DstPort)
	if port == nil {
		return false
	}
	d := port.open.Get(pkt.Channel)
	if d == nil {
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
	// No kernel command posted the reply, so the card journals it: a
	// crash here still replays it.
	if n.Journal != nil {
		n.Journal.SendPosted(reply)
	}
	return true
}

// handleProbe answers a liveness probe; the reply is what re-admits
// the prober's flow toward us. It carries our next expected sequence
// from the prober so the sender can resync its go-back-N epoch.
func (n *NIC) handleProbe(p *sim.Proc, pkt *fabric.Packet) {
	n.cpu.Use(p, 1, n.prof.MCPAckProc)
	n.ep.Inject(p, n.control(fabric.KindProbeAck, pkt.Src, n.flowFrom(pkt.Src).expect, n.bootEpoch))
}

// control builds a payload-free control packet (ACK, NACK, probe,
// probe ACK, RESYNC) from the pool. An empty payload's CRC is the zero
// the descriptor already holds, so there is nothing to seal.
func (n *NIC) control(kind fabric.PacketKind, dst int, ackSeq uint64, epoch uint32) *fabric.Packet {
	pkt := n.pool.Get(0)
	pkt.Kind, pkt.Src, pkt.Dst, pkt.AckSeq, pkt.Epoch = kind, n.node, dst, ackSeq, epoch
	return pkt
}

func (n *NIC) sendAck(p *sim.Proc, dst int, seq uint64) {
	n.ep.Inject(p, n.control(fabric.KindAck, dst, seq, n.bootEpoch))
}

func (n *NIC) sendNack(p *sim.Proc, cause *fabric.Packet) {
	n.ep.Inject(p, n.control(fabric.KindNack, cause.Src, cause.Seq, n.bootEpoch))
}

// ------------------------------------------------------------- events

// sendEvent composes the sender-side completion event of a descriptor.
func (n *NIC) sendEvent(t EventType, d *SendDesc) Event {
	return Event{
		Type: t, Port: d.SrcPort, Channel: d.Channel, MsgID: d.MsgID,
		Len: d.Len, Tag: d.Tag, SrcNode: n.node, SrcPort: d.SrcPort,
		Stamp: n.env.Now(), Trace: d.Trace,
	}
}

// postEvent delivers a sender-side event to the port that sent the
// message, if it is still registered.
func (n *NIC) postEvent(p *sim.Proc, ev Event) {
	if port := n.ports.Get(ev.Port); port != nil {
		n.deliverEvent(p, port, port.SendEvQ, ev)
	}
}

// deliverEvent charges the completion-path costs and hands the event
// to the host: DMA into the user event queue, or an interrupt.
func (n *NIC) deliverEvent(p *sim.Proc, port *Port, q *sim.Queue[Event], ev Event) {
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
