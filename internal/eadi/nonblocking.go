package eadi

import (
	"fmt"

	"bcl/internal/bcl"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// Nonblocking device operations, used by the MPI layer's
// Isend/Irecv/Wait. The device is driven by a single process, so
// "nonblocking" means: the matching state is recorded immediately and
// the progress engine runs inside the corresponding Wait.

// RecvHandle tracks one outstanding nonblocking receive.
type RecvHandle struct {
	pr *pendingRecv
}

// Status returns the result of a completed receive.
func (h *RecvHandle) Status() (Status, error) { return h.pr.status, h.pr.err }

// PostRecvNB posts a receive without waiting. If a matching message is
// already on the unexpected queue it completes immediately (including
// starting the rendezvous handshake for a queued RTS).
func (d *Device) PostRecvNB(p *sim.Proc, src, ctx, tag int, va mem.VAddr, n int) *RecvHandle {
	p.Sleep(matchCost)
	pr := &pendingRecv{src: src, ctx: ctx, tag: tag, va: va, n: n}
	h := &RecvHandle{pr: pr}
	for i, m := range d.unexpected {
		if m.ctx != ctx || !matches(src, tag, m.src, m.tag) {
			continue
		}
		d.unexpected = append(d.unexpected[:i], d.unexpected[i+1:]...)
		if m.rts != nil {
			// Arm the rendezvous data path; the FIN (or intra-node
			// delivery) completes pr later, under progress.
			if _, err := d.acceptRndvInto(p, m.rts, m.ctx, m.tag, pr); err != nil {
				pr.err = err
				pr.done = true
			}
			d.endMsg(m)
			return h
		}
		if len(m.data) > n {
			pr.err = ErrTruncated
		} else if len(m.data) > 0 {
			d.port.Node().Memcpy(p, len(m.data))
			pr.err = d.port.Process().Space.Write(va, m.data)
		}
		pr.status = Status{Source: m.src, Tag: m.tag, Len: len(m.data)}
		pr.done = true
		d.EagerRecv++
		d.endMsg(m)
		return h
	}
	d.posted = append(d.posted, pr)
	return h
}

// WaitRecvNB drives progress until the handle completes.
func (d *Device) WaitRecvNB(p *sim.Proc, h *RecvHandle) (Status, error) {
	for !h.pr.done {
		d.progress(p)
	}
	return h.pr.status, h.pr.err
}

// PollRecvNB drives at most one event of progress and reports whether
// the handle has completed.
func (d *Device) PollRecvNB(p *sim.Proc, h *RecvHandle) bool {
	if h.pr.done {
		return true
	}
	if ev, ok := d.port.TryRecv(p); ok {
		d.handle(p, ev)
	}
	return h.pr.done
}

// SendEagerNB fires an eager send without consuming its completion
// event; WaitEagerNB retires the oldest outstanding one. With several
// nonblocking sends in flight, completions retire in FIFO order (like
// the underlying send event queue), so a failure is attributed to the
// oldest unretired send.
func (d *Device) SendEagerNB(p *sim.Proc, dst, ctx, tag int, va mem.VAddr, n int) error {
	if n > EagerLimit {
		return fmt.Errorf("eadi: SendEagerNB of %d bytes exceeds the eager limit", n)
	}
	p.Sleep(packCost)
	d.EagerSent++
	_, err := d.port.Send(p, d.addrs[dst], bcl.SystemChannel, va, n, packTag(kindEager, ctx, tag, 0))
	return err
}

// WaitEagerNB retires one outstanding eager send.
func (d *Device) WaitEagerNB(p *sim.Proc) error {
	ev := d.port.WaitSend(p)
	if ev.Type == nic.EvSendFailed {
		return fmt.Errorf("eadi: nonblocking eager send failed")
	}
	return nil
}
