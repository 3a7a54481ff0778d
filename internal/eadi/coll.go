package eadi

import (
	"fmt"

	"bcl/internal/bcl"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/nic/coll"
	"bcl/internal/sim"
)

// Collective offload bridge. A CollContext pairs an EADI device with a
// NIC collective context covering the whole job, so the layers above
// (MPI communicators, PVM groups) can run barrier/bcast/reduce with one
// kernel trap per rank instead of one per tree edge.
//
// Event demultiplexing rule: completion events arrive on CollChannel.
// A multicast delivery with a non-zero tag word is a group-wide eager
// message (PVM group bcast) and feeds the normal matching path; a zero
// tag marks a collective-op payload (MPI bcast) consumed by waitMcast;
// combine results are consumed by waitResult. Lock-step collective
// usage keeps the pending stash tiny.

// CollContext is one registered offload context over the full job.
type CollContext struct {
	dev     *Device
	bctx    *bcl.CollCtx
	scratch mem.VAddr // 8-byte contribution for pure barriers

	combSeq  uint64
	mcastSeq uint64
	pending  []nic.Event

	// LastDead holds the dead-member mask reported by the most recent
	// combine result, for callers that care about partial completion.
	LastDead uint64
}

// NewCollContext programs collective context `id` rooted at member
// `root` (radix 0 = binomial tree) into the local NIC, covering every
// rank of the device's job in rank order.
func NewCollContext(p *sim.Proc, d *Device, id, root, radix int) (*CollContext, error) {
	members := make([]bcl.Addr, len(d.addrs))
	copy(members, d.addrs)
	plan := coll.Plan{N: len(d.addrs), Root: root, Radix: radix}
	bctx, err := d.port.RegisterColl(p, id, d.rank, members, plan)
	if err != nil {
		return nil, err
	}
	cc := &CollContext{dev: d, bctx: bctx, scratch: d.port.Process().Space.Alloc(8)}
	if d.colls == nil {
		d.colls = make(map[int]*CollContext)
	}
	d.colls[id] = cc
	return cc, nil
}

// Root returns the member index the context's tree is rooted at.
func (cc *CollContext) Root() int { return cc.bctx.Plan.Root }

// MaxPayload is the largest payload one offloaded collective carries.
func (cc *CollContext) MaxPayload() int { return cc.bctx.SlotSize }

// handleColl routes a CollChannel event: tagged multicast deliveries
// feed the eager matching path, everything else is stashed for the
// blocked collective op.
func (d *Device) handleColl(p *sim.Proc, ev nic.Event) {
	cc, ok := d.colls[ev.SrcPort] // SrcPort carries the context id
	if !ok {
		return
	}
	if ev.CollKind == nic.CollEvMcast && ev.Tag != 0 {
		// Group-wide eager message: members are in rank order, so the
		// origin member index IS the source rank.
		_, ctx, tag, _ := unpackTag(ev.Tag)
		d.deliverEager(p, ev, ev.CollOrigin, ctx, tag)
		return
	}
	cc.pending = append(cc.pending, ev)
}

// waitResult blocks until the combine result for seq lands.
func (cc *CollContext) waitResult(p *sim.Proc, seq uint64) nic.Event {
	for {
		for i, ev := range cc.pending {
			if ev.CollKind == nic.CollEvResult && ev.MsgID == seq {
				cc.pending = append(cc.pending[:i], cc.pending[i+1:]...)
				cc.LastDead = ev.CollDead
				return ev
			}
		}
		cc.dev.progress(p)
	}
}

// waitMcast blocks until an untagged multicast payload from origin
// lands (collective-op broadcast, not a group eager message).
func (cc *CollContext) waitMcast(p *sim.Proc, origin int) nic.Event {
	for {
		for i, ev := range cc.pending {
			if ev.CollKind == nic.CollEvMcast && ev.Tag == 0 && ev.CollOrigin == origin {
				cc.pending = append(cc.pending[:i], cc.pending[i+1:]...)
				return ev
			}
		}
		cc.dev.progress(p)
	}
}

// inject posts one collective descriptor and waits out its send event.
func (cc *CollContext) injectMcast(p *sim.Proc, seq uint64, va mem.VAddr, n int, tag uint64) error {
	if _, err := cc.dev.port.CollMcast(p, cc.bctx, seq, va, n, tag); err != nil {
		return err
	}
	if ev := cc.dev.port.WaitSend(p); ev.Type == nic.EvSendFailed {
		return fmt.Errorf("eadi: collective multicast injection failed")
	}
	return nil
}

func (cc *CollContext) injectCombine(p *sim.Proc, seq uint64, va mem.VAddr, n int, op coll.Op, dt coll.DT, release bool) error {
	if _, err := cc.dev.port.CollCombine(p, cc.bctx, seq, va, n, op, dt, release); err != nil {
		return err
	}
	if ev := cc.dev.port.WaitSend(p); ev.Type == nic.EvSendFailed {
		return fmt.Errorf("eadi: collective combine injection failed")
	}
	return nil
}

// Barrier runs an offloaded barrier: every member contributes an
// 8-byte token to a releasing combine and blocks for the root's
// release. One trap per rank, O(1) regardless of job size.
func (cc *CollContext) Barrier(p *sim.Proc) error {
	cc.combSeq++
	seq := cc.combSeq
	if err := cc.injectCombine(p, seq, cc.scratch, 8, coll.OpSum, coll.Int64, true); err != nil {
		return err
	}
	cc.waitResult(p, seq)
	return nil
}

// Bcast runs an offloaded broadcast of n bytes from rank root. The
// root injects one multicast; every other member blocks for the
// landed payload and copies it into va.
func (cc *CollContext) Bcast(p *sim.Proc, root int, va mem.VAddr, n int) error {
	if cc.dev.rank == root {
		cc.mcastSeq++
		return cc.injectMcast(p, cc.mcastSeq, va, n, 0)
	}
	ev := cc.waitMcast(p, root)
	return cc.copyOut(p, ev, va, n)
}

// Reduce contributes n bytes at sendVA to a non-releasing combine; the
// tree root receives the folded result into recvVA. Only valid when
// root == cc.Root() (the tree is rooted there) — callers fall back to
// the host algorithm otherwise.
func (cc *CollContext) Reduce(p *sim.Proc, sendVA, recvVA mem.VAddr, n int, op coll.Op, dt coll.DT) error {
	cc.combSeq++
	seq := cc.combSeq
	if err := cc.injectCombine(p, seq, sendVA, n, op, dt, false); err != nil {
		return err
	}
	if cc.dev.rank != cc.bctx.Plan.Root {
		return nil
	}
	ev := cc.waitResult(p, seq)
	return cc.copyOut(p, ev, recvVA, n)
}

// Allreduce contributes n bytes at sendVA to a releasing combine;
// every member receives the folded result into recvVA.
func (cc *CollContext) Allreduce(p *sim.Proc, sendVA, recvVA mem.VAddr, n int, op coll.Op, dt coll.DT) error {
	cc.combSeq++
	seq := cc.combSeq
	if err := cc.injectCombine(p, seq, sendVA, n, op, dt, true); err != nil {
		return err
	}
	ev := cc.waitResult(p, seq)
	return cc.copyOut(p, ev, recvVA, n)
}

// McastEager multicasts a tagged eager message to every other member
// (PVM group broadcast). Receivers see it as an ordinary tagged
// message from this rank via the normal Recv matching path.
func (cc *CollContext) McastEager(p *sim.Proc, ctx, tag int, va mem.VAddr, n int) error {
	cc.mcastSeq++
	return cc.injectMcast(p, cc.mcastSeq, va, n, packTag(kindEager, ctx, tag, 0))
}

// copyOut moves a landed collective payload from the pinned landing
// ring into the caller's buffer.
func (cc *CollContext) copyOut(p *sim.Proc, ev nic.Event, va mem.VAddr, n int) error {
	if ev.Len > n {
		return ErrTruncated
	}
	if ev.Len == 0 {
		return nil
	}
	if err := cc.dev.port.Process().Space.Copy(va, ev.VA, ev.Len); err != nil {
		return err
	}
	cc.dev.port.Node().Memcpy(p, ev.Len)
	return nil
}
