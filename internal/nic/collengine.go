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
// that turns one host trap into a whole tree collective. Two descriptor
// kinds drive it:
//
//   - DescCollMcast injects a payload the NICs replicate down the
//     context's distribution tree. Every hop forwards from NIC SRAM —
//     host memory is touched exactly twice per member pair: the DMA
//     fetch at the origin and the DMA landing at each receiver.
//   - DescCollComb contributes a payload to a combining tree: each NIC
//     folds its children's contributions (sum/min/max over real bytes)
//     in SRAM and forwards a single aggregate to its parent. The root
//     DMAs a completion event (and, in release mode, multicasts the
//     result back down, which is how barriers open).
//
// Collective packets ride the existing go-back-N flows, so per-branch
// retransmission, CRC checking and peer health come for free. On top
// of that the engine adds tree-level fault handling: a branch whose
// member is Dead is routed around — the member's children are adopted
// by the forwarding NIC (multicast) or the aggregate is re-routed to
// the next live ancestor (combine), with the member recorded in the
// packet's Dead mask so the root can complete without it. Release-mode
// combines additionally retain each member's own contribution and
// re-offer it straight to the root on a backoff timer until the result
// arrives, which heals aggregates lost inside a dying interior NIC.
//
// Semantics under faults: an interior member's death is healed by
// adoption; a dead leaf correctly blocks a barrier (its arrival can
// never be certified); a dead root is not supported (choose a healthy
// root at context creation). Non-release combines (plain Reduce) rely
// on go-back-N only — an interior death after the ACK but before the
// merge can lose the aggregate, so fault-prone callers should use
// release mode (Allreduce/Barrier semantics).

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

// mkey identifies one multicast instance: sequence numbers are
// per-origin.
type mkey struct {
	origin int
	seq    uint64
}

// combState is one in-progress combine at this member.
type combState struct {
	hdr     fabric.CollHdr // op/dt/release as fixed by the first contribution
	tag     uint64
	trace   uint64
	born    sim.Time
	payload []byte // running aggregate, in SRAM
	sram    int
	mask    uint64 // members folded into payload
	dead    uint64 // members learned dead
	sent    uint64 // coverage at the (single) upward forward, 0 if none
}

// ownContrib is a member's pristine contribution, retained in release
// mode so it can be re-offered to the root until the result returns.
type ownContrib struct {
	hdr     fabric.CollHdr
	tag     uint64
	trace   uint64
	born    sim.Time
	payload []byte
	sram    int
	timer   sim.Timer
	round   int
}

// combDone records a completed combine so stragglers are answered
// instead of reopening state. At the root of a release-mode combine it
// keeps the result bytes (host-side copy; SRAM is freed) so a late
// retrier can be re-released directly.
type combDone struct {
	hdr     fabric.CollHdr
	tag     uint64
	trace   uint64
	born    sim.Time
	dead    uint64
	payload []byte
}

// CollCtx is the NIC-resident state of one collective context.
type CollCtx struct {
	CollSpec

	combs map[uint64]*combState
	own   map[uint64]*ownContrib
	done  map[uint64]*combDone
	mseen map[mkey]bool   // multicast delivered to this host
	fseen map[mkey]bool   // multicast forwarded to the children
	rseen map[uint64]bool // release result delivered
	rfwd  map[uint64]bool // release result forwarded
	// ownMsg maps a release-mode combine seq to the journaled local
	// contribution. The journal holds it until the result returns, so a
	// firmware crash between contribution and release replays the
	// contribution instead of stalling the barrier.
	ownMsg map[uint64]heldSend
}

// heldSend is a local contribution the journal holds: its message id,
// and its descriptor once collLocal is done with it (nil before), which
// goes back to the card's free list when the hold ends.
type heldSend struct {
	msgID uint64
	desc  *SendDesc
}

// freeColl frees what a collective context taken off the card holds:
// the SRAM of its aggregates and retained contributions comes back, and
// their retry timers stop.
func (n *NIC) freeColl(ctx *CollCtx) {
	for _, seq := range sortedKeys(ctx.combs) {
		n.releaseSRAM(ctx.combs[seq].sram)
	}
	for _, seq := range sortedKeys(ctx.own) {
		oc := ctx.own[seq]
		oc.timer.Cancel()
		n.releaseSRAM(oc.sram)
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
		combs:    make(map[uint64]*combState),
		own:      make(map[uint64]*ownContrib),
		done:     make(map[uint64]*combDone),
		mseen:    make(map[mkey]bool),
		fseen:    make(map[mkey]bool),
		rseen:    make(map[uint64]bool),
		rfwd:     make(map[uint64]bool),
		ownMsg:   make(map[uint64]heldSend),
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
			n.collLocal(p, j)
		case collJobPkt:
			// Whatever the engine keeps of the packet (a forward down the
			// tree) is a CopyOut, so the wire descriptor ends here.
			n.collPacket(p, j.pkt)
			j.pkt.Release()
		case collJobRetry:
			n.collRetry(p, j)
		case collJobFail:
			n.collFail(p, j)
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

// ----------------------------------------------------------- local ops

// collLocal services a host-injected collective descriptor whose
// payload the fetch engine already staged into SRAM.
func (n *NIC) collLocal(p *sim.Proc, j collJob) {
	d := j.desc
	ctx, ok := n.colls[d.Coll.Ctx]
	if !ok || d.Len > n.prof.MaxPacket {
		n.releaseSRAM(j.sram)
		p.Await(func(k func(a, b uint64)) bool { return n.failMessage(d, k, 0, 0) })
		return
	}
	n.cpu.Use(p, 1, n.prof.MCPCollProc)
	switch d.Kind {
	case DescCollMcast:
		n.stats.CollMcasts++
		hdr := d.Coll
		hdr.Origin = ctx.Me
		// The origin already holds the data: pre-mark delivery so the
		// tree copy that loops back is forward-only here.
		ctx.mseen[mkey{hdr.Origin, hdr.Seq}] = true
		proto := &fabric.Packet{
			Kind: fabric.KindCollMcast, Channel: CollChannel,
			Frags: 1, MsgLen: len(j.payload), Tag: d.Tag,
			Coll: hdr, Payload: j.payload, Trace: d.Trace, Born: d.Born,
		}
		if ctx.Me == ctx.Plan.Root {
			ctx.fseen[mkey{hdr.Origin, hdr.Seq}] = true
			n.collFanout(p, ctx, proto, ctx.Plan.Children(ctx.Me))
		} else {
			// Non-root origin: hand the message to the root, which owns
			// the distribution tree.
			n.collFanout(p, ctx, proto, []int{ctx.Plan.Root})
		}
		n.releaseSRAM(j.sram)
	case DescCollComb:
		hdr := d.Coll
		hdr.Origin = ctx.Me
		hdr.Mask = coll.Bit(ctx.Me)
		hdr.Dead = 0
		if hdr.Release && ctx.ownMsg[hdr.Seq].msgID == 0 && ctx.done[hdr.Seq] == nil {
			// Hold the journal record until the result returns: a
			// firmware crash in between replays the contribution.
			ctx.ownMsg[hdr.Seq] = heldSend{msgID: d.MsgID}
		}
		n.collContribute(p, ctx, ctx.Me, hdr, j.payload, d.Tag, d.Trace, d.Born)
		if hdr.Release && ctx.Me != ctx.Plan.Root {
			// Retain the pristine contribution for the healing path; the
			// SRAM held for the fetch transfers to it.
			if _, dup := ctx.own[hdr.Seq]; !dup && ctx.done[hdr.Seq] == nil {
				ctx.own[hdr.Seq] = &ownContrib{
					hdr: hdr, tag: d.Tag, trace: d.Trace, born: d.Born,
					payload: j.payload, sram: j.sram,
				}
				n.armCollRetry(ctx, hdr.Seq)
			} else {
				n.releaseSRAM(j.sram)
			}
		} else {
			n.releaseSRAM(j.sram)
		}
	default:
		n.releaseSRAM(j.sram)
		p.Await(func(k func(a, b uint64)) bool { return n.failMessage(d, k, 0, 0) })
		return
	}
	if !d.NoEvent {
		n.postEvent(p, n.sendEvent(EvSendDone, d))
	}
	// Everything except a held release contribution is complete for the
	// journal once folded/fanned out. A held one leaves its descriptor
	// to collRetireOwn; a hold that ended while this job ran (the root
	// completing on its own contribution) left it here.
	if ctx.ownMsg[d.Coll.Seq].msgID == d.MsgID {
		ctx.ownMsg[d.Coll.Seq] = heldSend{msgID: d.MsgID, desc: d}
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

// --------------------------------------------------------- wire events

// collPacket services one collective packet off the wire.
func (n *NIC) collPacket(p *sim.Proc, pkt *fabric.Packet) {
	ctx, ok := n.colls[pkt.Coll.Ctx]
	if !ok {
		n.obs.Event(n.env.Now(), n.node, "nic", "coll-unknown-ctx", pkt.Trace,
			fmt.Sprintf("src=%d ctx=%d", pkt.Src, pkt.Coll.Ctx))
		return
	}
	if pkt.Kind == fabric.KindCollComb {
		n.stats.CollCombines++
		n.collContribute(p, ctx, pkt.Coll.Origin, pkt.Coll, pkt.Payload, pkt.Tag, pkt.Trace, pkt.Born)
		return
	}
	if pkt.Coll.Release {
		n.collRelease(p, ctx, pkt)
		return
	}
	// Data multicast: deliver to this host, then fan out.
	k := mkey{pkt.Coll.Origin, pkt.Coll.Seq}
	if !ctx.mseen[k] {
		ctx.mseen[k] = true
		n.collDeliver(p, ctx, CollEvMcast, pkt.Coll.Origin, pkt.Coll.Seq,
			pkt.Payload, pkt.Tag, pkt.Coll.Dead, pkt.Trace, pkt.Born)
	} else {
		n.stats.CollDups++
	}
	if !ctx.fseen[k] {
		ctx.fseen[k] = true
		n.collFanout(p, ctx, pkt, ctx.Plan.Children(ctx.Me))
	}
}

// collRelease services a combine result coming back down the tree.
func (n *NIC) collRelease(p *sim.Proc, ctx *CollCtx, pkt *fabric.Packet) {
	seq := pkt.Coll.Seq
	if oc, ok := ctx.own[seq]; ok {
		oc.timer.Cancel()
		n.releaseSRAM(oc.sram)
		delete(ctx.own, seq)
	}
	if st, ok := ctx.combs[seq]; ok {
		n.releaseSRAM(st.sram)
		delete(ctx.combs, seq)
	}
	if ctx.done[seq] == nil {
		ctx.done[seq] = &combDone{hdr: pkt.Coll, tag: pkt.Tag, trace: pkt.Trace, born: pkt.Born, dead: pkt.Coll.Dead}
	}
	n.collRetireOwn(ctx, seq)
	if !ctx.rseen[seq] {
		ctx.rseen[seq] = true
		n.collDeliver(p, ctx, CollEvResult, pkt.Coll.Origin, seq,
			pkt.Payload, pkt.Tag, pkt.Coll.Dead, pkt.Trace, pkt.Born)
	} else {
		n.stats.CollDups++
	}
	if !ctx.rfwd[seq] {
		ctx.rfwd[seq] = true
		n.collFanout(p, ctx, pkt, ctx.Plan.Children(ctx.Me))
	}
}

// ------------------------------------------------------------- combine

// collContribute folds one contribution (local or off the wire) into
// the combine state for its sequence. Only disjoint coverage is folded:
// a subset is a retransmit-style duplicate; a partial overlap cannot be
// separated from already-folded bytes and is dropped defensively.
func (n *NIC) collContribute(p *sim.Proc, ctx *CollCtx, from int, hdr fabric.CollHdr, payload []byte, tag uint64, traceID uint64, born sim.Time) {
	seq := hdr.Seq
	if dn, ok := ctx.done[seq]; ok {
		n.stats.CollDups++
		if ctx.Me == ctx.Plan.Root && dn.hdr.Release && from != ctx.Me {
			// A straggler still re-offering its contribution missed the
			// release: answer it directly from the retained result.
			n.collSendRelease(p, ctx, seq, dn, from)
		}
		return
	}
	st, ok := ctx.combs[seq]
	if !ok {
		st = &combState{hdr: hdr, tag: tag, trace: traceID, born: born}
		ctx.combs[seq] = st
	}
	if st.mask&hdr.Mask != 0 {
		if hdr.Mask&^st.mask == 0 {
			n.stats.CollDups++
		} else {
			n.stats.CollOverlapDrops++
			n.obs.Event(n.env.Now(), n.node, "nic", "coll-overlap-drop", traceID,
				fmt.Sprintf("ctx=%d seq=%d have=%x got=%x", ctx.ID, seq, st.mask, hdr.Mask))
		}
		st.dead |= hdr.Dead
		n.collAdvance(p, ctx, seq, st)
		return
	}
	if st.payload == nil {
		st.payload = append([]byte(nil), payload...)
		st.sram = len(st.payload)
		if st.sram > 0 {
			n.sram.Acquire(p, st.sram)
		}
	} else {
		n.Tracer.DoFlow(p, "nic: coll combine", n.where(), traceID, func() {
			n.cpu.Use(p, 1, n.prof.MCPCombineProc)
		})
		coll.Combine(st.payload, payload, coll.Op(st.hdr.Op), coll.DT(st.hdr.DT))
	}
	st.mask |= hdr.Mask
	st.dead |= hdr.Dead
	n.collAdvance(p, ctx, seq, st)
}

// collAdvance checks whether a combine can progress: completion at the
// root, or the single upward forward elsewhere.
func (n *NIC) collAdvance(p *sim.Proc, ctx *CollCtx, seq uint64, st *combState) {
	pl := ctx.Plan
	full := pl.FullMask()
	if ctx.Me == pl.Root {
		if (st.mask|st.dead)&full != full {
			return
		}
		dn := &combDone{hdr: st.hdr, tag: st.tag, trace: st.trace, born: st.born, dead: st.dead}
		dn.hdr.Dead = st.dead
		if st.hdr.Release {
			dn.payload = append([]byte(nil), st.payload...)
		}
		ctx.done[seq] = dn
		n.collRetireOwn(ctx, seq)
		n.collDeliver(p, ctx, CollEvResult, ctx.Me, seq, st.payload, st.tag, st.dead, st.trace, st.born)
		if st.hdr.Release {
			ctx.rseen[seq] = true
			ctx.rfwd[seq] = true
			proto := &fabric.Packet{
				Kind: fabric.KindCollMcast, Channel: CollChannel,
				Frags: 1, MsgLen: len(dn.payload), Tag: st.tag,
				Coll:    fabric.CollHdr{Ctx: ctx.ID, Seq: seq, Origin: ctx.Me, Dead: st.dead, Op: st.hdr.Op, DT: st.hdr.DT, Release: true},
				Payload: dn.payload, Trace: st.trace, Born: st.born,
			}
			n.collFanout(p, ctx, proto, pl.Children(ctx.Me))
		}
		n.releaseSRAM(st.sram)
		delete(ctx.combs, seq)
		return
	}
	if st.sent != 0 {
		return // forward-once; the healing path re-offers single bits
	}
	need := pl.SubtreeMask(ctx.Me) &^ st.dead
	if st.mask&need != need {
		return
	}
	n.collForwardUp(p, ctx, seq, st)
}

// collForwardUp sends this member's aggregate to its first live
// ancestor, recording any dead ancestors skipped on the way.
func (n *NIC) collForwardUp(p *sim.Proc, ctx *CollCtx, seq uint64, st *combState) {
	hdr := st.hdr
	hdr.Seq = seq
	hdr.Origin = ctx.Me
	target := -1
	for _, a := range ctx.Plan.Ancestors(ctx.Me) {
		if st.dead&coll.Bit(a) == 0 && n.PeerHealthy(ctx.Nodes[a]) {
			target = a
			break
		}
		if st.dead&coll.Bit(a) == 0 {
			st.dead |= coll.Bit(a)
			n.stats.CollReparents++
			n.collNoteReparent(st.trace, ctx.ID, a)
		}
	}
	if target < 0 {
		n.obs.Event(n.env.Now(), n.node, "nic", "coll-no-ancestor", st.trace,
			fmt.Sprintf("ctx=%d seq=%d", ctx.ID, seq))
		return
	}
	hdr.Mask = st.mask
	hdr.Dead = st.dead
	st.sent = st.mask
	pkt := &fabric.Packet{
		Kind: fabric.KindCollComb, Channel: CollChannel,
		Frags: 1, MsgLen: len(st.payload), Tag: st.tag,
		Coll: hdr, Payload: append([]byte(nil), st.payload...),
		Trace: st.trace, Born: st.born,
	}
	n.collSend(p, ctx, target, pkt)
}

// collSendRelease re-sends a completed release result directly to one
// member (a straggler that missed the tree distribution).
func (n *NIC) collSendRelease(p *sim.Proc, ctx *CollCtx, seq uint64, dn *combDone, to int) {
	pkt := &fabric.Packet{
		Kind: fabric.KindCollMcast, Channel: CollChannel,
		Frags: 1, MsgLen: len(dn.payload), Tag: dn.tag,
		Coll:    fabric.CollHdr{Ctx: ctx.ID, Seq: seq, Origin: ctx.Plan.Root, Dead: dn.dead, Op: dn.hdr.Op, DT: dn.hdr.DT, Release: true},
		Payload: dn.payload, Trace: dn.trace, Born: dn.born,
	}
	n.collSend(p, ctx, to, pkt)
}

// ------------------------------------------------- retries & reparents

// armCollRetry schedules the next release-mode re-contribution for a
// sequence this member still awaits a result for.
func (n *NIC) armCollRetry(ctx *CollCtx, seq uint64) {
	oc := ctx.own[seq]
	if oc == nil || oc.round >= 16 {
		return // give up pacing; the collective is unrecoverable anyway
	}
	id := ctx.ID
	oc.timer = n.env.After(n.collRetryDelay(seq, oc.round), func() {
		oc.timer = sim.Timer{}
		n.collQ.Post(collJob{kind: collJobRetry, ctxID: id, seq: seq, epoch: n.bootEpoch})
	})
}

// collRetry re-offers this member's own contribution straight to the
// root. Single-bit masks can never partially overlap, so the healing
// path composes safely with whatever aggregates survived.
func (n *NIC) collRetry(p *sim.Proc, j collJob) {
	ctx, ok := n.colls[j.ctxID]
	if !ok {
		return
	}
	oc := ctx.own[j.seq]
	if oc == nil {
		return // result arrived in the meantime
	}
	oc.round++
	n.stats.CollRetries++
	hdr := oc.hdr
	hdr.Mask = coll.Bit(ctx.Me)
	if st := ctx.combs[j.seq]; st != nil {
		hdr.Dead |= st.dead // share what we learned about dead members
	}
	hdr.Origin = ctx.Me
	n.obs.Event(n.env.Now(), n.node, "nic", "coll-retry", oc.trace,
		fmt.Sprintf("ctx=%d seq=%d round=%d", ctx.ID, j.seq, oc.round))
	pkt := &fabric.Packet{
		Kind: fabric.KindCollComb, Channel: CollChannel,
		Frags: 1, MsgLen: len(oc.payload), Tag: oc.tag,
		Coll: hdr, Payload: append([]byte(nil), oc.payload...),
		Trace: oc.trace, Born: oc.born,
	}
	n.collSend(p, ctx, ctx.Plan.Root, pkt)
	n.armCollRetry(ctx, j.seq)
}

// collFail services a forward whose underlying flow was declared dead:
// the tree heals around the member.
func (n *NIC) collFail(p *sim.Proc, j collJob) {
	ctx, ok := n.colls[j.ctxID]
	if !ok {
		return
	}
	pkt := j.pkt
	n.stats.CollReparents++
	n.collNoteReparent(pkt.Trace, ctx.ID, j.member)
	pkt = pkt.CopyOut()
	pkt.Coll.Dead |= coll.Bit(j.member)
	if pkt.Kind == fabric.KindCollComb {
		// Upward path: re-route the aggregate to the next live ancestor.
		if ctx.done[pkt.Coll.Seq] != nil {
			return
		}
		if st := ctx.combs[pkt.Coll.Seq]; st != nil {
			st.dead |= coll.Bit(j.member)
		}
		for _, a := range ctx.Plan.Ancestors(ctx.Me) {
			if pkt.Coll.Dead&coll.Bit(a) == 0 && n.PeerHealthy(ctx.Nodes[a]) {
				n.collSend(p, ctx, a, pkt)
				return
			}
			pkt.Coll.Dead |= coll.Bit(a)
		}
		n.obs.Event(n.env.Now(), n.node, "nic", "coll-no-ancestor", pkt.Trace,
			fmt.Sprintf("ctx=%d seq=%d", ctx.ID, pkt.Coll.Seq))
		return
	}
	// Downward path (multicast or release): adopt the dead member's
	// children so its whole subtree still receives the message.
	children := ctx.Plan.Children(j.member)
	n.stats.CollAdoptions += uint64(len(children))
	for _, c := range children {
		n.collNoteAdopt(pkt.Trace, ctx.ID, c)
	}
	n.collFanout(p, ctx, pkt, children)
}

func (n *NIC) collNoteReparent(traceID uint64, ctxID, member int) {
	now := n.env.Now()
	n.Tracer.AddFlow("nic: coll reparent", n.where(), traceID, now, now)
	n.obs.Event(now, n.node, "nic", "coll-reparent", traceID,
		fmt.Sprintf("ctx=%d around member %d", ctxID, member))
}

func (n *NIC) collNoteAdopt(traceID uint64, ctxID, member int) {
	now := n.env.Now()
	n.Tracer.AddFlow("nic: coll adopt", n.where(), traceID, now, now)
	n.obs.Event(now, n.node, "nic", "coll-adopt", traceID,
		fmt.Sprintf("ctx=%d member %d", ctxID, member))
}

// --------------------------------------------------------- forwarding

// collFanout forwards a downward packet to a set of members, routing
// around any it already believes dead.
func (n *NIC) collFanout(p *sim.Proc, ctx *CollCtx, proto *fabric.Packet, members []int) {
	for _, m := range members {
		if m == ctx.Me {
			continue
		}
		if proto.Coll.Dead&coll.Bit(m) != 0 || !n.PeerHealthy(ctx.Nodes[m]) {
			// Known-dead member: adopt its children immediately.
			pkt := proto.CopyOut()
			if pkt.Coll.Dead&coll.Bit(m) == 0 {
				pkt.Coll.Dead |= coll.Bit(m)
				n.stats.CollReparents++
				n.collNoteReparent(pkt.Trace, ctx.ID, m)
			}
			children := ctx.Plan.Children(m)
			n.stats.CollAdoptions += uint64(len(children))
			for _, c := range children {
				n.collNoteAdopt(pkt.Trace, ctx.ID, c)
			}
			n.collFanout(p, ctx, pkt, children)
			continue
		}
		n.collSend(p, ctx, m, proto)
	}
}

// collSend transmits one collective packet to a member over the
// reliable flow, retaining it for retransmission like any message. A
// flow failure reparents instead of surfacing a host event. What is
// retained is a GC-owned copy of proto's header sharing its payload
// (the engine never mutates a payload once it is on a packet), so it
// outlives the pooled wire packet proto may be.
func (n *NIC) collSend(p *sim.Proc, ctx *CollCtx, m int, proto *fabric.Packet) {
	node := ctx.Nodes[m]
	pkt := proto.CopyOut()
	pkt.Src = n.node
	pkt.Dst = node
	pkt.SrcPort = ctx.Ports[ctx.Me]
	pkt.DstPort = ctx.Ports[m]
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
	member := m
	failPkt := pkt
	d := &SendDesc{
		Kind: kind, MsgID: pkt.MsgID, SrcPort: pkt.SrcPort,
		DstNode: node, DstPort: pkt.DstPort, Channel: CollChannel,
		Len: len(pkt.Payload), Tag: pkt.Tag, Coll: pkt.Coll,
		NoEvent: true, Trace: pkt.Trace, Born: pkt.Born,
		OnFail: func() {
			n.collQ.Post(collJob{kind: collJobFail, ctxID: ctxID, member: member, pkt: failPkt, epoch: n.bootEpoch})
		},
	}
	n.stats.CollForwards++
	n.Tracer.DoFlow(p, "nic: coll forward", n.where(), pkt.Trace, func() {
		n.cpu.Use(p, 1, n.prof.MCPCollProc)
		p.Await(func(k func(a, b uint64)) bool { return n.transmit(n.flowTo(node), pkt, d, true, sram, k, 0, 0) })
	})
}

// ------------------------------------------------------------ delivery

// collDeliver DMAs a collective payload into the context's landing
// ring and posts the completion event, exactly one bus round trip and
// one event DMA — the O(1) host cost the offload buys.
func (n *NIC) collDeliver(p *sim.Proc, ctx *CollCtx, kind uint8, origin int, seq uint64, payload []byte, tag uint64, dead uint64, traceID uint64, born sim.Time) {
	port := n.ports.Get(ctx.Ports[ctx.Me])
	if port == nil {
		return
	}
	slot := ctx.slotFor(origin, seq)
	off := slot * ctx.SlotSize
	ln := len(payload)
	if ln > ctx.SlotSize {
		ln = ctx.SlotSize
	}
	if ln > 0 {
		segs := sliceSegs(ctx.Landing.Segs, off, ln)
		done := 0
		for _, s := range segs {
			p.Await(func(k func(a, b uint64)) bool {
				n.collBus.resume = k
				n.busDMA(&n.collBus, s.Len, 0)
				return false
			})
			if err := n.hmem.DMAWrite(s.Phys, payload[done:done+s.Len]); err != nil {
				return
			}
			done += s.Len
		}
	}
	n.stats.CollDeliveries++
	if born > 0 && n.obs != nil {
		if n.collLatency == nil {
			n.collLatency = n.obs.Reg.Histogram(n.node, "nic", "coll_latency_ns")
		}
		n.collLatency.Observe(int64(n.env.Now() - born))
	}
	ev := Event{
		Type: EvRecvDone, Port: ctx.Ports[ctx.Me], Channel: CollChannel,
		MsgID: seq, Len: len(payload), Tag: tag,
		SrcNode: ctx.Nodes[origin], SrcPort: ctx.ID,
		VA: ctx.Landing.VA + mem.VAddr(off), Trace: traceID,
		CollKind: kind, CollOrigin: origin, CollDead: dead,
	}
	n.Tracer.DoFlow(p, "nic: coll result DMA", n.where(), traceID, func() {
		p.Await(func(k func(a, b uint64)) bool {
			n.deliverEvent(port.RecvEvQ, ev, k, 0, 0)
			return false
		})
	})
}
