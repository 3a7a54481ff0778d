package nic

import (
	"cmp"
	"fmt"
	"slices"

	"bcl/internal/fabric"
	"bcl/internal/mem"
	"bcl/internal/nic/coll"
	"bcl/internal/nic/gbn"
	"bcl/internal/sim"
)

// This file is the collective offload engine: a fifth firmware engine
// that turns one host trap into a whole tree collective. A
// DescCollMcast payload is replicated down the context's distribution
// tree from NIC SRAM, so host memory is touched once at the origin and
// once at each receiver. A DescCollComb payload is folded up a
// combining tree (sum/min/max over real bytes); the root DMAs the
// result and, in release mode, multicasts it back down, which is how
// barriers open. coll.Member makes every decision of that protocol, and
// the engine carries them out on its process (collCarry). Collective
// packets ride the go-back-N flows, so per-branch retransmission, CRC
// checking and peer health come for free.
//
// Semantics under faults, which coll's FuzzCollective checks: an
// interior member's death is healed by adoption (its children receive
// from the forwarding NIC, an aggregate goes to the next live ancestor)
// and, in release mode, by each member re-offering its own contribution
// to the root until the result arrives; a dead leaf blocks a barrier
// (its arrival can never be certified); a dead root is not supported
// (choose a healthy root at context creation). Non-release combines
// (plain Reduce) rely on go-back-N only: an interior death after the
// ACK but before the merge can lose the aggregate, so fault-prone
// callers should use release mode (Allreduce/Barrier semantics).

// CollSpec describes one collective context as the host registers it.
type CollSpec struct {
	ID    int       // context id, unique per NIC
	Me    int       // this node's member index
	Nodes []int     // member index -> node id
	Ports []int     // member index -> BCL port id on that node
	Plan  coll.Plan // tree shape (shared verbatim by every member)

	// Landing is the pinned host ring collective payloads are DMAed
	// into; it must cover Slots*SlotSize bytes.
	Landing  RecvDesc
	SlotSize int
	Slots    int
}

// CollCtx is the NIC-resident state of one collective context: its
// spec, the protocol core's records (coll.Member) and the journal holds.
type CollCtx struct {
	CollSpec
	core *coll.Member
	// ownMsg maps a release-mode combine seq to the journaled local
	// contribution. The journal holds it until the result returns, so a
	// firmware crash between contribution and release replays the
	// contribution instead of stalling the barrier.
	ownMsg map[uint64]*heldSend
}

// heldSend is a local contribution the journal holds: its message id,
// its descriptor once collLocal is done with it (nil before), which
// goes back to the card's free list when the hold ends, and the timer
// of its next re-offer to the root.
type heldSend struct {
	msgID uint64
	desc  *SendDesc
	timer sim.Timer
}

// freeColl frees what a collective context taken off the card holds:
// the SRAM of its records comes back, and their retry timers stop.
func (n *NIC) freeColl(ctx *CollCtx) {
	n.releaseSRAM(ctx.core.SRAM())
	ctx.disarm()
}

// disarm stops the context's retry timers.
func (c *CollCtx) disarm() {
	for _, seq := range sortedKeys(c.ownMsg) {
		c.ownMsg[seq].timer.Cancel()
	}
}

func (c *CollCtx) slotFor(origin int, seq uint64) int {
	return (origin*31 + int(seq%1024)) % c.Slots
}

// RegisterCollCtx installs a collective context. The host has already
// paid the trap/PIO cost of programming it.
func (n *NIC) RegisterCollCtx(s *CollSpec) error {
	if _, dup := n.colls[s.ID]; dup {
		return fmt.Errorf("nic%d: coll ctx %d registered twice", n.node, s.ID)
	}
	if s.Plan.N != len(s.Nodes) || len(s.Nodes) != len(s.Ports) {
		return fmt.Errorf("nic%d: coll ctx %d: plan/member mismatch", n.node, s.ID)
	}
	if s.Plan.N < 1 || s.Plan.N > coll.MaxMembers {
		return fmt.Errorf("nic%d: coll ctx %d: %d members (max %d)", n.node, s.ID, s.Plan.N, coll.MaxMembers)
	}
	if s.Me < 0 || s.Me >= s.Plan.N {
		return fmt.Errorf("nic%d: coll ctx %d: bad member index %d", n.node, s.ID, s.Me)
	}
	if s.Slots < 1 || s.SlotSize < 1 || s.Landing.Len < s.Slots*s.SlotSize {
		return fmt.Errorf("nic%d: coll ctx %d: landing ring too small", n.node, s.ID)
	}
	n.colls[s.ID] = &CollCtx{
		CollSpec: *s,
		core:     coll.NewMember(s.Plan, s.Me),
		ownMsg:   make(map[uint64]*heldSend),
	}
	return nil
}

// sortedKeys returns a map's keys in ascending order, so teardown and
// replay walks of the collective tables stay deterministic.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// collRetryDelay paces release-mode re-contributions: from eight times
// the go-back-N timeout (retries are the healing path, not the fast
// path), doubling per round, jittered deterministically.
func (n *NIC) collRetryDelay(seq uint64, round int) sim.Time {
	base := 8 * n.prof.RetransmitTimeout
	d := base
	for i := 0; i < round && d < 8*base; i++ {
		d *= 2
	}
	return d + gbn.Jitter(n.node, int(seq%1024), round, d/4)
}

// ------------------------------------------------------------ plumbing

type collJobKind uint8

const (
	collJobLocal  collJobKind = iota // host descriptor with fetched payload
	collJobPkt                       // collective packet off the wire
	collJobRetry                     // release-mode retry timer fired
	collJobFail                      // a forward's flow failed: reparent
	collJobResend                    // peer reboot rewound a flow: re-inject
	collJobDrop                      // a closed port's context left the card: free it
)

type collJob struct {
	kind    collJobKind
	desc    *SendDesc      // collJobLocal / collJobResend
	payload []byte         // collJobLocal: fetched bytes
	sram    int            // collJobLocal / collJobResend: SRAM held
	pkt     *fabric.Packet // collJobPkt / collJobFail / collJobResend (pristine copy)
	ctxID   int            // collJobRetry / collJobFail
	seq     uint64         // collJobRetry
	member  int            // collJobFail: member whose flow failed
	epoch   uint32         // boot epoch the job was created under
	ctx     *CollCtx       // collJobDrop
}

// collEngine drains the collective work queue. It is its own firmware
// process so blocking on a full go-back-N window (or on SRAM) never
// stalls the receive MCP that feeds it.
func (n *NIC) collEngine(p *sim.Proc) {
	a := &collCarry{n: n, p: p}
	for {
		j := n.collQ.Recv(p)
		if j.kind == collJobDrop {
			// Whatever the epoch: a reboot frees only the contexts still
			// on the card, and no later job can reach this one. Its held
			// contributions end too: the kernel's journal dropped them
			// with the port's sends.
			n.freeColl(j.ctx)
			for _, seq := range sortedKeys(j.ctx.ownMsg) {
				n.collRetireOwn(j.ctx, seq)
			}
			continue
		}
		if n.fwDead || j.epoch != n.bootEpoch {
			// Queued under a boot epoch that has since crashed: the
			// context state it references was wiped with the SRAM.
			n.releaseSRAM(j.sram)
			if j.kind == collJobPkt {
				j.pkt.Release()
			}
			continue
		}
		switch j.kind {
		case collJobLocal:
			n.collLocal(a, j)
		case collJobPkt:
			// Whatever the core keeps of the packet (a forward down the
			// tree, an aggregate) is a copy, so the wire descriptor ends here.
			if !a.on(j.pkt.Coll.Ctx) {
				n.obs.Event(n.env.Now(), n.node, "nic", "coll-unknown-ctx", j.pkt.Trace,
					fmt.Sprintf("src=%d ctx=%d", j.pkt.Src, j.pkt.Coll.Ctx))
			} else {
				if j.pkt.Kind == fabric.KindCollComb {
					n.stats.CollCombines++
				}
				a.ctx.core.Receive(a, j.pkt)
			}
			j.pkt.Release()
		case collJobRetry:
			if a.on(j.ctxID) {
				a.ctx.core.Retry(a, j.seq)
			}
		case collJobFail:
			if a.on(j.ctxID) {
				a.ctx.core.Failed(a, j.member, j.pkt)
			}
		case collJobResend:
			// Single-packet by contract; re-enters the rewound window
			// from collective-engine context so the receive MCP never
			// waits for window space.
			p.Await(func(k func(a, b uint64)) bool {
				return n.transmit(n.flowTo(j.desc.DstNode), j.pkt, j.desc, true, j.sram, k, 0, 0)
			})
		}
	}
}

// handleCollPkt runs in the receive MCP, once a collective packet's
// processing has been charged: CRC and go-back-N discipline exactly
// like data traffic, then the hand-off to the engine (rxCollAcked).
func (n *NIC) handleCollPkt() {
	if f := n.rxInSequence("nic: coll recv", " coll"); f != nil {
		n.rxAccept(f, rxCollAcked)
	}
}

// collLocal services a host-injected collective descriptor whose
// payload the fetch engine already staged into SRAM.
func (n *NIC) collLocal(a *collCarry, j collJob) {
	d := j.desc
	if !a.on(d.Coll.Ctx) || d.Len > n.prof.MaxPacket {
		n.releaseSRAM(j.sram)
		a.p.Await(func(k func(a, b uint64)) bool { return n.failMessage(d, k, 0, 0) })
		return
	}
	n.cpu.Use(a.p, 1, n.prof.MCPCollProc)
	pkt := &fabric.Packet{Kind: fabric.KindCollComb, Coll: d.Coll, Payload: j.payload,
		Tag: d.Tag, Trace: d.Trace, Born: d.Born, MsgID: d.MsgID}
	if d.Kind == DescCollMcast {
		n.stats.CollMcasts++
		pkt.Kind = fabric.KindCollMcast
	}
	a.ctx.core.Post(a, pkt, j.sram)
	if !d.NoEvent {
		n.postEvent(a.p, n.sendEvent(EvSendDone, d))
	}
	// Everything except a held release contribution is complete for the
	// journal once folded/fanned out. A held one leaves its descriptor
	// to collRetireOwn; a hold that ended while this job ran (the root
	// completing on its own contribution) left it here.
	if h := a.ctx.ownMsg[d.Coll.Seq]; h != nil && h.msgID == d.MsgID {
		h.desc = d
	} else {
		n.retireSend(d.MsgID, d, true)
	}
}

// collRetireOwn releases the journal hold on a release-mode combine's
// local contribution once its result has arrived (or the context dies).
func (n *NIC) collRetireOwn(ctx *CollCtx, seq uint64) {
	if h, ok := ctx.ownMsg[seq]; ok {
		delete(ctx.ownMsg, seq)
		n.retireSend(h.msgID, h.desc, true)
	}
}

// ---------------------------------------------------------- carry-out

// collCarry carries out the core's decisions (coll.Acts) on the engine's
// process, for the context of the job in hand.
type collCarry struct {
	n   *NIC
	p   *sim.Proc
	ctx *CollCtx
}

// on points the carry-out at context id and reports whether it is on
// the card.
func (a *collCarry) on(id int) bool {
	a.ctx = a.n.colls[id]
	return a.ctx != nil
}

func (a *collCarry) Healthy(m int) bool { return a.n.PeerHealthy(a.ctx.Nodes[m]) }

func (a *collCarry) Hold(b int) {
	if b > 0 {
		a.n.sram.Acquire(a.p, b)
	}
}

func (a *collCarry) Free(b int) { a.n.releaseSRAM(b) }

func (a *collCarry) Fold(traceID uint64) {
	a.n.Tracer.DoFlow(a.p, "nic: coll combine", a.n.where(), traceID, func() {
		a.n.cpu.Use(a.p, 1, a.n.prof.MCPCombineProc)
	})
}

func (a *collCarry) Keep(seq, msgID uint64) { a.ctx.ownMsg[seq] = &heldSend{msgID: msgID} }

func (a *collCarry) Retire(seq uint64) { a.n.collRetireOwn(a.ctx, seq) }

func (a *collCarry) Arm(seq uint64, round int) {
	n, id := a.n, a.ctx.ID
	a.ctx.ownMsg[seq].timer = n.env.After(n.collRetryDelay(seq, round), func() {
		n.collQ.Post(collJob{kind: collJobRetry, ctxID: id, seq: seq, epoch: n.bootEpoch})
	})
}

func (a *collCarry) Disarm(seq uint64) { a.ctx.ownMsg[seq].timer.Cancel() }

func (a *collCarry) Note(k coll.Note, pkt *fabric.Packet, x uint64) {
	n, now, h := a.n, a.n.env.Now(), pkt.Coll
	switch k {
	case coll.Dup:
		n.stats.CollDups++
	case coll.Overlap:
		n.stats.CollOverlapDrops++
		n.obs.Event(now, n.node, "nic", "coll-overlap-drop", pkt.Trace,
			fmt.Sprintf("ctx=%d seq=%d have=%x got=%x", h.Ctx, h.Seq, x, h.Mask))
	case coll.Reparent:
		n.stats.CollReparents++
		n.Tracer.AddFlow("nic: coll reparent", n.where(), pkt.Trace, now, now)
		n.obs.Event(now, n.node, "nic", "coll-reparent", pkt.Trace,
			fmt.Sprintf("ctx=%d around member %d", h.Ctx, x))
	case coll.Adopt:
		n.stats.CollAdoptions++
		n.Tracer.AddFlow("nic: coll adopt", n.where(), pkt.Trace, now, now)
		n.obs.Event(now, n.node, "nic", "coll-adopt", pkt.Trace, fmt.Sprintf("ctx=%d member %d", h.Ctx, x))
	case coll.NoAncestor:
		n.obs.Event(now, n.node, "nic", "coll-no-ancestor", pkt.Trace, fmt.Sprintf("ctx=%d seq=%d", h.Ctx, h.Seq))
	case coll.Retried:
		n.stats.CollRetries++
		n.obs.Event(now, n.node, "nic", "coll-retry", pkt.Trace,
			fmt.Sprintf("ctx=%d seq=%d round=%d", h.Ctx, h.Seq, x))
	}
}

// Send transmits one collective packet to a member over the reliable
// flow, retaining it for retransmission like any message. A flow
// failure goes back to the core (coll.Member.Failed), not to the host.
// What is retained is a GC-owned copy of proto's header sharing its
// payload (the core never mutates a payload once it is on a packet), so
// it outlives the pooled wire packet proto may be.
func (a *collCarry) Send(m int, proto *fabric.Packet) {
	n, p, ctx := a.n, a.p, a.ctx
	node := ctx.Nodes[m]
	pkt := proto.CopyOut()
	pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort = n.node, node, ctx.Ports[ctx.Me], ctx.Ports[m]
	pkt.Channel, pkt.Frags, pkt.MsgLen = CollChannel, 1, len(pkt.Payload)
	pkt.MsgID = n.NextMsgID()
	pkt.Seal()
	sram := len(pkt.Payload)
	if sram > 0 {
		n.sram.Acquire(p, sram)
	}
	kind := DescCollMcast
	if pkt.Kind == fabric.KindCollComb {
		kind = DescCollComb
	}
	ctxID := ctx.ID
	d := &SendDesc{
		Kind: kind, MsgID: pkt.MsgID, SrcPort: pkt.SrcPort,
		DstNode: node, DstPort: pkt.DstPort, Channel: CollChannel,
		Len: len(pkt.Payload), Tag: pkt.Tag, Coll: pkt.Coll,
		NoEvent: true, Trace: pkt.Trace, Born: pkt.Born,
		OnFail: func() {
			n.collQ.Post(collJob{kind: collJobFail, ctxID: ctxID, member: m, pkt: pkt, epoch: n.bootEpoch})
		},
	}
	n.stats.CollForwards++
	n.Tracer.DoFlow(p, "nic: coll forward", n.where(), pkt.Trace, func() {
		n.cpu.Use(p, 1, n.prof.MCPCollProc)
		p.Await(func(k func(a, b uint64)) bool { return n.transmit(n.flowTo(node), pkt, d, true, sram, k, 0, 0) })
	})
}

// Deliver DMAs a collective payload into the context's landing ring and
// posts the completion event, exactly one bus round trip and one event
// DMA — the O(1) host cost the offload buys.
func (a *collCarry) Deliver(pkt *fabric.Packet, result bool) {
	n, p, ctx, h := a.n, a.p, a.ctx, pkt.Coll
	port := n.ports.Get(ctx.Ports[ctx.Me])
	if port == nil {
		return
	}
	off := ctx.slotFor(h.Origin, h.Seq) * ctx.SlotSize
	if ln := min(len(pkt.Payload), ctx.SlotSize); ln > 0 {
		done := 0
		for _, s := range sliceSegs(ctx.Landing.Segs, off, ln) {
			p.Await(func(k func(a, b uint64)) bool {
				n.collBus.resume = k
				n.busDMA(&n.collBus, s.Len, 0)
				return false
			})
			if err := n.hmem.DMAWrite(s.Phys, pkt.Payload[done:done+s.Len]); err != nil {
				return
			}
			done += s.Len
		}
	}
	n.stats.CollDeliveries++
	if pkt.Born > 0 && n.obs != nil {
		if n.collLatency == nil {
			n.collLatency = n.obs.Reg.Histogram(n.node, "nic", "coll_latency_ns")
		}
		n.collLatency.Observe(int64(n.env.Now() - pkt.Born))
	}
	kind := CollEvMcast
	if result {
		kind = CollEvResult
	}
	ev := Event{
		Type: EvRecvDone, Port: ctx.Ports[ctx.Me], Channel: CollChannel,
		MsgID: h.Seq, Len: len(pkt.Payload), Tag: pkt.Tag,
		SrcNode: ctx.Nodes[h.Origin], SrcPort: ctx.ID,
		VA: ctx.Landing.VA + mem.VAddr(off), Trace: pkt.Trace,
		CollKind: kind, CollOrigin: h.Origin, CollDead: h.Dead,
	}
	n.Tracer.DoFlow(p, "nic: coll result DMA", n.where(), pkt.Trace, func() {
		p.Await(func(k func(a, b uint64)) bool {
			n.deliverEvent(port.RecvEvQ, ev, k, 0, 0)
			return false
		})
	})
}
