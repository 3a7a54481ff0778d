package bcl

import (
	"fmt"

	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// Send transmits n bytes at va to the destination's channel. tag is an
// immediate word delivered with the completion event (upper layers use
// it for matching headers).
//
// This is the semi-user-level path: the library composes the request
// in user space, then traps into the kernel where the BCL module
// validates the request, translates and pins the buffer through the
// pin-down page table, and PIO-fills the send descriptor into NIC
// memory. Control returns to user space as soon as the descriptor is
// posted; completion is reported asynchronously on the send event
// queue. Intra-node destinations take the shared-memory path and never
// trap.
//
// Send returns the message id used in the completion event.
func (pt *Port) Send(p *sim.Proc, dst Addr, channel int, va mem.VAddr, n int, tag uint64) (uint64, error) {
	if pt.closed {
		return 0, ErrClosed
	}
	if channel < 0 {
		return 0, ErrBadChannel
	}
	born := p.Now()
	pt.tr.Do(p, "user: compose request", host(pt), func() {
		p.Sleep(pt.node.Prof.UserCompose)
	})
	if dst.Node == pt.addr.Node {
		return pt.sendIntra(p, dst, channel, va, n, tag)
	}

	msgID := pt.node.NIC.NextMsgID()
	tid := trace.ID(pt.addr.Node, msgID)
	k := pt.node.Kernel
	var trapErr error
	pt.tr.DoFlow(p, "kernel: trap+check+translate+fill", host(pt), tid, func() {
		trapErr = k.Trap(p, func() error {
			if err := k.CheckRequest(p, pt.proc.PID, va, n, dst.Node, pt.sys.Cluster.Size()); err != nil {
				return err
			}
			if err := pt.checkOwner(); err != nil {
				return err
			}
			var (
				seg  [1]mem.Segment
				segs []mem.Segment
				err  error
			)
			pt.tr.Do(p, "kernel: pin/translate", host(pt), func() {
				segs, err = k.TranslateAndPin(p, pt.proc.PID, pt.proc.Space, va, n, seg[:0])
			})
			if err != nil {
				return err
			}
			d := pt.node.NIC.GetSendDesc()
			d.Kind, d.MsgID, d.SrcPort = nic.DescData, msgID, pt.addr.Port
			d.DstNode, d.DstPort, d.Channel = dst.Node, dst.Port, channel
			d.Len, d.Tag, d.Trace, d.Born = n, tag, tid, born
			d.Segs = append(d.Seg[:0], segs...)
			pt.tr.Do(p, "kernel: PIO descriptor fill", host(pt), func() {
				k.PostSend(p, d)
			})
			return nil
		})
	})
	if trapErr != nil {
		return 0, trapErr
	}
	pt.sent++
	pt.bytesSent += uint64(n)
	return msgID, nil
}

// PostRecv binds a user buffer to a normal channel (rendezvous: the
// posting must precede the matching send's arrival, or the sender's
// NIC will be NACKed until it does). The posting traps — "making ready
// for message buffer still need switch into kernel mode" — because the
// buffer must be validated, pinned, and its descriptor PIO-written to
// the NIC.
func (pt *Port) PostRecv(p *sim.Proc, channel int, va mem.VAddr, n int) error {
	if pt.closed {
		return ErrClosed
	}
	if channel <= 0 {
		return fmt.Errorf("%w: %d (normal channels are > 0)", ErrBadChannel, channel)
	}
	pt.tr.Do(p, "user: prepare recv posting", host(pt), func() {
		p.Sleep(pt.node.Prof.UserPostRecv)
	})
	k := pt.node.Kernel
	var err error
	pt.tr.Do(p, "kernel: post-recv trap", host(pt), func() {
		err = k.Trap(p, func() error {
			d, derr := pt.recvDesc(p, va, n)
			if derr != nil {
				return derr
			}
			return k.PostRecv(p, pt.addr.Port, channel, d)
		})
	})
	return err
}

// recvDesc is the kernel half every buffer posting shares before its
// command: validate the request, pin and translate [va, va+n), and fill
// in a receive descriptor from the card's free list. The descriptor is
// taken last, when nothing can fail any more: the command hands it to
// the NIC, which owns it from there. Runs inside a Trap body.
func (pt *Port) recvDesc(p *sim.Proc, va mem.VAddr, n int) (*nic.RecvDesc, error) {
	k := pt.node.Kernel
	if err := k.CheckRequest(p, pt.proc.PID, va, n, pt.addr.Node, pt.sys.Cluster.Size()); err != nil {
		return nil, err
	}
	if err := pt.checkOwner(); err != nil {
		return nil, err
	}
	var seg [1]mem.Segment
	segs, err := k.TranslateAndPin(p, pt.proc.PID, pt.proc.Space, va, n, seg[:0])
	if err != nil {
		return nil, err
	}
	d := pt.node.NIC.GetRecvDesc()
	d.Len, d.VA, d.Space = n, va, pt.proc.Space
	d.Segs = append(d.Seg[:0], segs...)
	return d, nil
}

// addSystemBuffer pins and appends one buffer to the system-channel
// pool (same kernel path as PostRecv).
func (pt *Port) addSystemBuffer(p *sim.Proc, va mem.VAddr, n int) error {
	k := pt.node.Kernel
	return k.Trap(p, func() error {
		d, err := pt.recvDesc(p, va, n)
		if err != nil {
			return err
		}
		return k.AddSystemBuffer(p, pt.addr.Port, d)
	})
}

// ReturnSystemBuffer gives a consumed pool buffer back to the system
// channel after the receiver has copied the message out.
func (pt *Port) ReturnSystemBuffer(p *sim.Proc, va mem.VAddr, n int) error {
	return pt.addSystemBuffer(p, va, n)
}

// SystemBuf names one pool buffer in a batched return.
type SystemBuf struct {
	VA  mem.VAddr
	Len int
}

// ReturnSystemBuffers returns several consumed pool buffers in a
// single kernel trap, amortizing the crossing cost over the batch (the
// kernel module's return command accepts a vector). bufs is not kept:
// the caller may refill it as soon as the call returns.
func (pt *Port) ReturnSystemBuffers(p *sim.Proc, bufs []SystemBuf) error {
	if len(bufs) == 0 {
		return nil
	}
	k := pt.node.Kernel
	return k.Trap(p, func() error {
		for _, b := range bufs {
			d, err := pt.recvDesc(p, b.VA, b.Len)
			if err != nil {
				return err
			}
			if err := k.AddSystemBuffer(p, pt.addr.Port, d); err != nil {
				return err
			}
		}
		return nil
	})
}

// WaitRecv blocks polling the receive event queue until a message
// completion arrives. The receiving path never enters the kernel: the
// event was DMAed into user memory by the NIC, and the poll is a pair
// of cached loads.
func (pt *Port) WaitRecv(p *sim.Proc) nic.Event {
	if ev, ok := pt.takePending(); ok {
		return pt.handOver(ev)
	}
	return pt.decode(p, pt.events.Recv(p))
}

// WaitRecvTimeout is WaitRecv giving up after d of virtual time (an
// empty poll still costs one completion-poll load). ok reports whether
// an event arrived. Event-loop layers that own their port block here
// between timer deadlines.
func (pt *Port) WaitRecvTimeout(p *sim.Proc, d sim.Time) (nic.Event, bool) {
	if ev, ok := pt.takePending(); ok {
		return pt.handOver(ev), true
	}
	ev, ok := pt.events.RecvTimeout(p, d)
	if !ok {
		p.Sleep(pt.node.Prof.CompletionPoll)
		return nic.Event{}, false
	}
	return pt.decode(p, ev), true
}

// TryRecv polls once without blocking.
func (pt *Port) TryRecv(p *sim.Proc) (nic.Event, bool) {
	if ev, ok := pt.takePending(); ok {
		return pt.handOver(ev), true
	}
	ev, ok := pt.events.TryRecv()
	if !ok {
		p.Sleep(pt.node.Prof.CompletionPoll)
		return nic.Event{}, false
	}
	p.Sleep(pt.node.Prof.CompletionPoll + pt.node.Prof.EventDecode)
	return pt.handOver(ev), true
}

// WaitRecvChannel waits for a completion on one specific channel,
// setting aside events for other channels (they are returned by later
// WaitRecv calls in arrival order). The set-aside list is the port's
// one demultiplexer; its poll+decode cost is paid when an event is set
// aside, its receive count when the event is handed over.
func (pt *Port) WaitRecvChannel(p *sim.Proc, channel int) nic.Event {
	for i := 0; i < pt.pending.Len(); i++ {
		if pt.pending.At(i).Channel == channel {
			return pt.handOver(pt.pending.Remove(i))
		}
	}
	for {
		ev := pt.events.Recv(p)
		p.Sleep(pt.node.Prof.CompletionPoll + pt.node.Prof.EventDecode)
		if ev.Channel == channel {
			return pt.handOver(ev)
		}
		pt.pending.Push(ev)
	}
}

// takePending pops the oldest event a selective wait set aside.
func (pt *Port) takePending() (nic.Event, bool) {
	if pt.pending.Len() == 0 {
		return nic.Event{}, false
	}
	return pt.pending.Pop(), true
}

// decode charges the traced user-space poll+decode of an event fresh
// off the queue and hands it over.
func (pt *Port) decode(p *sim.Proc, ev nic.Event) nic.Event {
	pt.tr.DoFlow(p, "user: poll+decode event", host(pt), ev.Trace, func() {
		p.Sleep(pt.node.Prof.CompletionPoll + pt.node.Prof.EventDecode)
	})
	return pt.handOver(ev)
}

// handOver counts a receive completion at the one point every event
// passes exactly once: where it is returned to the caller.
func (pt *Port) handOver(ev nic.Event) nic.Event {
	pt.received++
	pt.bytesReceived += uint64(ev.Len)
	return ev
}

// WaitSend blocks until the oldest outstanding send completes,
// returning its completion event (EvSendDone or EvSendFailed).
func (pt *Port) WaitSend(p *sim.Proc) nic.Event {
	return pt.sendDone(p, pt.sendEvs.Recv(p))
}

// TryWaitSend polls the send event queue without blocking, charging
// the completion cost only when an event is consumed. Layers that
// recycle send buffers by message id use this instead of WaitSend.
func (pt *Port) TryWaitSend(p *sim.Proc) (nic.Event, bool) {
	ev, ok := pt.sendEvs.TryRecv()
	if !ok {
		return nic.Event{}, false
	}
	return pt.sendDone(p, ev), true
}

// sendDone charges the traced user-space handling of a send completion.
func (pt *Port) sendDone(p *sim.Proc, ev nic.Event) nic.Event {
	pt.tr.DoFlow(p, "user: send completion", host(pt), ev.Trace, func() {
		p.Sleep(pt.node.Prof.SendComplete)
	})
	return ev
}

// DrainSendEvents consumes every queued send-completion event without
// blocking, charging the per-event completion cost, and reports how
// many completed vs failed. Event-loop layers that never block in
// WaitSend use this to keep the send event queue bounded and to notice
// EvSendFailed (dead peer) outcomes.
func (pt *Port) DrainSendEvents(p *sim.Proc) (done, failed int) {
	for {
		ev, ok := pt.TryWaitSend(p)
		if !ok {
			return done, failed
		}
		if ev.Type == nic.EvSendFailed {
			failed++
		} else {
			done++
		}
	}
}

// host labels this port's process in trace spans.
func host(pt *Port) string { return pt.row }

// checkOwner is the cross-endpoint half of the kernel's send-path
// security check: the calling process must still own this port's NIC
// endpoint. Runs inside a Trap body; the cost is part of the
// SecurityCheck charge CheckRequest already paid.
func (pt *Port) checkOwner() error {
	return pt.node.Kernel.CheckEndpointOwner(pt.proc.PID, pt.addr.Port)
}
