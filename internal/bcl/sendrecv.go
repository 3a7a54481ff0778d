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
			var segs []mem.Segment
			var err error
			pt.tr.Do(p, "kernel: pin/translate", host(pt), func() {
				segs, err = k.TranslateAndPin(p, pt.proc.PID, pt.proc.Space, va, n)
			})
			if err != nil {
				return err
			}
			pt.tr.Do(p, "kernel: PIO descriptor fill", host(pt), func() {
				p.Sleep(k.PIOFillCost(pt.node.Prof.SendDescWords, len(segs)))
			})
			pt.node.NIC.PostSend(p, &nic.SendDesc{
				Kind: nic.DescData, MsgID: msgID, SrcPort: pt.addr.Port,
				DstNode: dst.Node, DstPort: dst.Port, Channel: channel,
				Len: n, Tag: tag, Segs: segs,
				Trace: tid, Born: born,
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
			if cerr := k.CheckRequest(p, pt.proc.PID, va, n, pt.addr.Node, pt.sys.Cluster.Size()); cerr != nil {
				return cerr
			}
			if cerr := pt.checkOwner(); cerr != nil {
				return cerr
			}
			segs, terr := k.TranslateAndPin(p, pt.proc.PID, pt.proc.Space, va, n)
			if terr != nil {
				return terr
			}
			p.Sleep(k.PIOFillCost(pt.node.Prof.RecvDescWords, len(segs)))
			d := &nic.RecvDesc{Len: n, Segs: segs, VA: va, Space: pt.proc.Space}
			if perr := pt.node.NIC.PostRecv(pt.addr.Port, channel, d); perr != nil {
				return perr
			}
			k.ShadowPostRecv(pt.addr.Port, channel, d)
			return nil
		})
	})
	return err
}

// addSystemBuffer pins and appends one buffer to the system-channel
// pool (same kernel path as PostRecv).
func (pt *Port) addSystemBuffer(p *sim.Proc, va mem.VAddr, n int) error {
	k := pt.node.Kernel
	return k.Trap(p, func() error {
		if err := k.CheckRequest(p, pt.proc.PID, va, n, pt.addr.Node, pt.sys.Cluster.Size()); err != nil {
			return err
		}
		if err := pt.checkOwner(); err != nil {
			return err
		}
		segs, err := k.TranslateAndPin(p, pt.proc.PID, pt.proc.Space, va, n)
		if err != nil {
			return err
		}
		p.Sleep(k.PIOFillCost(pt.node.Prof.RecvDescWords, len(segs)))
		d := &nic.RecvDesc{Len: n, Segs: segs, VA: va, Space: pt.proc.Space}
		if aerr := pt.node.NIC.AddSystemBuffer(pt.addr.Port, d); aerr != nil {
			return aerr
		}
		k.ShadowSysBuf(pt.addr.Port, va, d)
		return nil
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
// kernel module's return command accepts a vector).
func (pt *Port) ReturnSystemBuffers(p *sim.Proc, bufs []SystemBuf) error {
	if len(bufs) == 0 {
		return nil
	}
	k := pt.node.Kernel
	return k.Trap(p, func() error {
		if err := pt.checkOwner(); err != nil {
			return err
		}
		for _, b := range bufs {
			if err := k.CheckRequest(p, pt.proc.PID, b.VA, b.Len, pt.addr.Node, pt.sys.Cluster.Size()); err != nil {
				return err
			}
			segs, err := k.TranslateAndPin(p, pt.proc.PID, pt.proc.Space, b.VA, b.Len)
			if err != nil {
				return err
			}
			p.Sleep(k.PIOFillCost(pt.node.Prof.RecvDescWords, len(segs)))
			d := &nic.RecvDesc{Len: b.Len, Segs: segs, VA: b.VA, Space: pt.proc.Space}
			if err := pt.node.NIC.AddSystemBuffer(pt.addr.Port, d); err != nil {
				return err
			}
			k.ShadowSysBuf(pt.addr.Port, b.VA, d)
		}
		return nil
	})
}

// WaitRecv blocks polling the receive event queue until a message
// completion arrives. The receiving path never enters the kernel: the
// event was DMAed into user memory by the NIC, and the poll is a pair
// of cached loads.
func (pt *Port) WaitRecv(p *sim.Proc) *nic.Event {
	if len(pt.pending) > 0 {
		ev := pt.pending[0]
		pt.pending = pt.pending[1:]
		return ev
	}
	ev := pt.events.Recv(p)
	pt.tr.DoFlow(p, "user: poll+decode event", host(pt), ev.Trace, func() {
		p.Sleep(pt.node.Prof.CompletionPoll + pt.node.Prof.EventDecode)
	})
	pt.received++
	pt.bytesReceived += uint64(ev.Len)
	return ev
}

// TryRecv polls once without blocking.
func (pt *Port) TryRecv(p *sim.Proc) (*nic.Event, bool) {
	if len(pt.pending) > 0 {
		ev := pt.pending[0]
		pt.pending = pt.pending[1:]
		return ev, true
	}
	ev, ok := pt.events.TryRecv()
	if !ok {
		p.Sleep(pt.node.Prof.CompletionPoll)
		return nil, false
	}
	p.Sleep(pt.node.Prof.CompletionPoll + pt.node.Prof.EventDecode)
	pt.received++
	pt.bytesReceived += uint64(ev.Len)
	return ev, true
}

// WaitRecvChannel waits for a completion on one specific channel,
// setting aside events for other channels (they are returned by later
// WaitRecv calls in arrival order).
func (pt *Port) WaitRecvChannel(p *sim.Proc, channel int) *nic.Event {
	for i, ev := range pt.pending {
		if ev.Channel == channel {
			pt.pending = append(pt.pending[:i], pt.pending[i+1:]...)
			return ev
		}
	}
	for {
		ev := pt.events.Recv(p)
		p.Sleep(pt.node.Prof.CompletionPoll + pt.node.Prof.EventDecode)
		if ev.Channel == channel {
			pt.received++
			pt.bytesReceived += uint64(ev.Len)
			return ev
		}
		pt.pending = append(pt.pending, ev)
	}
}

// WaitSend blocks until the oldest outstanding send completes,
// returning its completion event (EvSendDone or EvSendFailed).
func (pt *Port) WaitSend(p *sim.Proc) *nic.Event {
	ev := pt.sendEvs.Recv(p)
	pt.tr.DoFlow(p, "user: send completion", host(pt), ev.Trace, func() {
		p.Sleep(pt.node.Prof.SendComplete)
	})
	return ev
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
