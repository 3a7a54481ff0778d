package bcl

import (
	"fmt"

	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/nic/coll"
	"bcl/internal/sim"
)

// Collective offload surface. A collective context programs the NIC's
// offload engine with a tree over a set of ports; after setup, one
// kernel trap injects a whole multicast or combine — the NICs forward
// and fold entirely below the host. Completion events arrive on the
// reserved CollChannel with payloads landed in a pinned ring, so the
// receive side stays pure user-level polling, exactly like the paper's
// point-to-point path.

// CollChannel is the reserved channel collective events carry.
const CollChannel = nic.CollChannel

// CollSlots and CollSlotSize size the pinned landing ring per context.
// Collectives are used lock-step (each member consumes a result before
// the next one can complete), so a small ring suffices.
const CollSlots = 8

// CollCtx is the library handle for one registered collective context.
type CollCtx struct {
	ID       int
	Me       int
	Plan     coll.Plan
	SlotSize int
}

// RegisterColl programs a collective context into the local NIC: it
// pins a landing ring and hands the membership and tree plan to the
// firmware. Every member must register the same id, members and plan
// (with its own index) before any collective is injected.
func (pt *Port) RegisterColl(p *sim.Proc, id, me int, members []Addr, plan coll.Plan) (*CollCtx, error) {
	if pt.closed {
		return nil, ErrClosed
	}
	if len(members) != plan.N || plan.N < 1 || plan.N > coll.MaxMembers {
		return nil, fmt.Errorf("bcl: coll ctx %d: bad membership (%d members, max %d)", id, len(members), coll.MaxMembers)
	}
	if me < 0 || me >= plan.N || members[me] != pt.addr {
		return nil, fmt.Errorf("bcl: coll ctx %d: member %d is not this port", id, me)
	}
	slotSize := pt.node.Prof.MaxPacket
	ringLen := CollSlots * slotSize
	va := pt.proc.Space.Alloc(ringLen)
	nodes := make([]int, plan.N)
	ports := make([]int, plan.N)
	for i, a := range members {
		nodes[i] = a.Node
		ports[i] = a.Port
	}
	k := pt.node.Kernel
	err := k.Trap(p, func() error {
		if cerr := pt.checkPort(p, va, ringLen, pt.addr.Node); cerr != nil {
			return cerr
		}
		segs, terr := k.TranslateAndPin(p, pt.proc.PID, pt.proc.Space, va, ringLen, nil)
		if terr != nil {
			return terr
		}
		// Program the context control block: membership, plan, ring.
		return k.RegisterCollCtx(p, &nic.CollSpec{
			ID: id, Me: me, Nodes: nodes, Ports: ports, Plan: plan,
			Landing:  nic.RecvDesc{Len: ringLen, Segs: segs, VA: va, Space: pt.proc.Space},
			SlotSize: slotSize, Slots: CollSlots,
		})
	})
	if err != nil {
		return nil, err
	}
	return &CollCtx{ID: id, Me: me, Plan: plan, SlotSize: slotSize}, nil
}

// CollMcast injects a tree multicast: ONE trap, after which the NICs
// replicate the payload down the context's tree from SRAM. seq must
// increase per origin member. Completion of the local injection is
// reported on the send event queue (WaitSend); deliveries land at
// every other member as CollEvMcast events on CollChannel.
func (pt *Port) CollMcast(p *sim.Proc, ctx *CollCtx, seq uint64, va mem.VAddr, n int, tag uint64) (uint64, error) {
	return pt.collPost(p, nic.DescCollMcast, va, n, tag,
		nic.CollHdr{Ctx: ctx.ID, Seq: seq, Origin: ctx.Me})
}

// CollCombine contributes this member's payload to a combining tree
// collective (barrier/reduce/allreduce). All members must use the same
// seq, op, dt and release flag for one collective. With release=true
// the root multicasts the combined result back down and every member
// receives a CollEvResult event; otherwise only the root does.
func (pt *Port) CollCombine(p *sim.Proc, ctx *CollCtx, seq uint64, va mem.VAddr, n int, op coll.Op, dt coll.DT, release bool) (uint64, error) {
	return pt.collPost(p, nic.DescCollComb, va, n, 0,
		nic.CollHdr{Ctx: ctx.ID, Seq: seq, Origin: ctx.Me, Op: uint8(op), DT: uint8(dt), Release: release})
}

// collPost injects one collective descriptor through the send trap,
// after the one check of its own: the payload fits one packet.
func (pt *Port) collPost(p *sim.Proc, kind nic.DescKind, va mem.VAddr, n int, tag uint64, hdr nic.CollHdr) (uint64, error) {
	if pt.closed {
		return 0, ErrClosed
	}
	if n < 0 || n > pt.node.Prof.MaxPacket {
		return 0, fmt.Errorf("bcl: collective payload %d exceeds one packet (%d)", n, pt.node.Prof.MaxPacket)
	}
	return pt.trapSend(p, &sendReq{kind: kind, dst: pt.addr, channel: CollChannel, va: va, n: n, tag: tag, coll: hdr})
}
