package oskernel

import (
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// The BCL kernel module's NIC command set. The kernel is the card's only
// writer: a trap body names a command, and the command charges the PIO
// fill that writes it into NIC memory, hands it to the card and, once
// the card has accepted it, journals it (recovery.go). The first two
// steps are the command's card half, a method of its own; the recovery
// replay walks the journal through the card halves alone, so boot and
// recovery program the card along one path at one PIO cost.

// RegisterPort programs endpoint id's port control block, send-DMA
// arbitration weight included (below 1 means 1), and returns its port.
func (k *Kernel) RegisterPort(p *sim.Proc, id, weight int) *nic.Port {
	weight = max(weight, 1)
	pt := k.programPort(p, id, weight)
	k.shadow.port(id).weight = weight
	return pt
}

func (k *Kernel) programPort(p *sim.Proc, id, weight int) *nic.Port {
	p.Sleep(k.prof.PIOFill(8)) // the port control block
	return k.snic.ReprogramPort(id, weight)
}

// ClosePort tears endpoint id down: the binding is released, the card
// drops the port's tables, and the journal forgets everything of it, so
// no replay resurrects the endpoint. Teardown is not PIO-costed.
func (k *Kernel) ClosePort(id int) {
	k.eps.Set(id, 0)
	if k.snic != nil {
		k.snic.ClosePort(id)
		k.shadow.closePort(id)
	}
}

// PostRecv arms a normal channel of port with the buffer d describes.
func (k *Kernel) PostRecv(p *sim.Proc, port, channel int, d *nic.RecvDesc) error {
	if err := k.programRecv(p, port, channel, d); err != nil {
		return err
	}
	k.shadow.port(port).normal.Set(channel, d)
	return nil
}

func (k *Kernel) programRecv(p *sim.Proc, port, channel int, d *nic.RecvDesc) error {
	p.Sleep(k.PIOFillCost(k.prof.RecvDescWords, len(d.Segs)))
	return k.snic.PostRecv(port, channel, d)
}

// AddSystemBuffer appends the buffer d describes to port's system pool.
func (k *Kernel) AddSystemBuffer(p *sim.Proc, port int, d *nic.RecvDesc) error {
	if err := k.programSysBuf(p, port, d); err != nil {
		return err
	}
	k.shadow.port(port).sys.Push(sysEntry{va: d.VA, desc: d})
	return nil
}

func (k *Kernel) programSysBuf(p *sim.Proc, port int, d *nic.RecvDesc) error {
	p.Sleep(k.PIOFillCost(k.prof.RecvDescWords, len(d.Segs)))
	return k.snic.AddSystemBuffer(port, d)
}

// RegisterOpen binds the buffer d describes to an open (RMA) channel of
// port.
func (k *Kernel) RegisterOpen(p *sim.Proc, port, channel int, d *nic.RecvDesc) error {
	if err := k.programOpen(p, port, channel, d); err != nil {
		return err
	}
	k.shadow.port(port).opens.Set(channel, d)
	return nil
}

func (k *Kernel) programOpen(p *sim.Proc, port, channel int, d *nic.RecvDesc) error {
	p.Sleep(k.PIOFillCost(k.prof.RecvDescWords, len(d.Segs)))
	return k.snic.RegisterOpen(port, channel, d)
}

// RegisterCollCtx programs a collective context's control block: its
// membership, plan and landing ring.
func (k *Kernel) RegisterCollCtx(p *sim.Proc, s *nic.CollSpec) error {
	if err := k.programColl(p, s); err != nil {
		return err
	}
	k.shadow.colls[s.ID] = s
	return nil
}

func (k *Kernel) programColl(p *sim.Proc, s *nic.CollSpec) error {
	p.Sleep(k.PIOFillCost(k.prof.RecvDescWords+2*len(s.Nodes), len(s.Landing.Segs)))
	return k.snic.RegisterCollCtx(s)
}

// PostSend queues d on its source port's send ring. Every send but an
// RMA read request is journaled: replaying a read would fabricate a
// second reply at the target while the initiator's reply channel is
// armed once, so a read in flight across a firmware crash surfaces as a
// library-level timeout, not as silent loss.
func (k *Kernel) PostSend(p *sim.Proc, d *nic.SendDesc) {
	k.programSend(p, d, false)
	if d.Kind != nic.DescRMARead {
		k.shadow.SendPosted(d)
	}
}

// programSend is PostSend's card half. A replayed descriptor goes back
// through the card's repost path, which marks it shared: a pass of the
// send pipeline from before the crash may still hold it.
func (k *Kernel) programSend(p *sim.Proc, d *nic.SendDesc, replay bool) {
	words := k.prof.SendDescWords
	if d.Kind == nic.DescCollMcast || d.Kind == nic.DescCollComb {
		words += 4 // the collective header
	}
	p.Sleep(k.PIOFillCost(words, len(d.Segs)))
	if replay {
		k.snic.RepostSend(d)
	} else {
		k.snic.PostSend(p, d)
	}
}

// restoreDone reloads a source's receive done-ring. The card writes that
// table itself, so it has a card half and no command.
func (k *Kernel) restoreDone(p *sim.Proc, src int, ids []uint64) {
	p.Sleep(k.prof.PIOFill(2 * len(ids)))
	k.snic.RestoreRxDone(src, ids)
}
