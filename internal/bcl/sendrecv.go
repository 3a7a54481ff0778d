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
	if dst.Node == pt.addr.Node {
		pt.compose(p)
		return pt.sendIntra(p, dst, channel, va, n, tag)
	}
	return pt.trapSend(p, &sendReq{kind: nic.DescData, dst: dst, channel: channel, va: va, n: n, tag: tag})
}

// sendReq is one send-side request as the library composes it: the
// descriptor's kind-specific fields and the user buffer [va, va+n).
type sendReq struct {
	kind               nic.DescKind
	dst                Addr
	channel, offset, n int
	va                 mem.VAddr
	tag                uint64
	coll               nic.CollHdr
}

// compose charges the user-space composition of a request.
func (pt *Port) compose(p *sim.Proc) {
	pt.tr.Do(p, "user: compose request", host(pt), func() {
		p.Sleep(pt.node.Prof.UserCompose)
	})
}

// trapSend is the one send trap Send, RMAWrite and the collective posts
// share: compose the request, mint its message id and trace id, trap
// into the kernel, which checks the request, pins and translates the
// buffer and PIO-fills the descriptor onto the NIC, and count the send.
func (pt *Port) trapSend(p *sim.Proc, r *sendReq) (uint64, error) {
	born := p.Now()
	pt.compose(p)
	msgID := pt.node.NIC.NextMsgID()
	tid := trace.ID(pt.addr.Node, msgID)
	k := pt.node.Kernel
	var err error
	pt.tr.DoFlow(p, "kernel: trap+check+translate+fill", host(pt), tid, func() {
		err = k.Trap(p, func() error {
			d, derr := pt.sendDesc(p, r)
			if derr != nil {
				return derr
			}
			d.MsgID, d.Trace = msgID, tid
			if r.kind != nic.DescRMAWrite { // a write keeps the card's dequeue stamp in msg_latency_ns
				d.Born = born
			}
			pt.tr.Do(p, "kernel: PIO descriptor fill", host(pt), func() {
				k.PostSend(p, d)
			})
			return nil
		})
	})
	if err != nil {
		return 0, err
	}
	pt.sent++
	pt.bytesSent += uint64(r.n)
	return msgID, nil
}

// sendDesc is the kernel half of the send trap, as recvDesc is of a
// posting: check the request, pin and translate the buffer, and fill in
// a send descriptor from the card's free list. The descriptor is taken
// last, when nothing can fail any more. Runs inside a Trap body.
func (pt *Port) sendDesc(p *sim.Proc, r *sendReq) (*nic.SendDesc, error) {
	if err := pt.checkPort(p, r.va, r.n, r.dst.Node); err != nil {
		return nil, err
	}
	k := pt.node.Kernel
	var (
		seg  [1]mem.Segment
		segs []mem.Segment
		err  error
	)
	pt.tr.Do(p, "kernel: pin/translate", host(pt), func() {
		segs, err = k.TranslateAndPin(p, pt.proc.PID, pt.proc.Space, r.va, r.n, seg[:0])
	})
	if err != nil {
		return nil, err
	}
	d := pt.node.NIC.GetSendDesc()
	d.Kind, d.SrcPort = r.kind, pt.addr.Port
	d.DstNode, d.DstPort, d.Channel = r.dst.Node, r.dst.Port, r.channel
	d.Len, d.Offset, d.Tag, d.Coll = r.n, r.offset, r.tag, r.coll
	d.Segs = append(d.Seg[:0], segs...)
	return d, nil
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
	if err := pt.checkPort(p, va, n, pt.addr.Node); err != nil {
		return nil, err
	}
	k := pt.node.Kernel
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

// returnBatch is how many consumed pool buffers RecycleSystemBuffer
// queues before one kernel trap returns them all.
const returnBatch = 8

// RecycleSystemBuffer queues a consumed pool buffer for return to the
// system channel. Once returnBatch buffers are queued, one kernel trap
// returns them all, amortizing the crossing cost over the batch (the
// kernel module's return command accepts a vector).
func (pt *Port) RecycleSystemBuffer(p *sim.Proc, va mem.VAddr) error {
	pt.returns = append(pt.returns, va)
	if len(pt.returns) < returnBatch {
		return nil
	}
	return pt.FlushSystemBuffers(p)
}

// FlushSystemBuffers returns every queued pool buffer in one trap; with
// none queued it costs nothing. An event loop calls it when it finds
// nothing to receive, so a quiet port does not sit on its buffers.
func (pt *Port) FlushSystemBuffers(p *sim.Proc) error {
	if len(pt.returns) == 0 {
		return nil
	}
	k := pt.node.Kernel
	err := k.Trap(p, func() error {
		for _, va := range pt.returns {
			d, err := pt.recvDesc(p, va, pt.sysBufSize)
			if err != nil {
				return err
			}
			if err := k.AddSystemBuffer(p, pt.addr.Port, d); err != nil {
				return err
			}
		}
		return nil
	})
	pt.returns = pt.returns[:0]
	return err
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

// checkPort is the kernel's check of every request a trap on this port
// makes: the request itself (PID, buffer [va, va+n), target node), then
// its cross-endpoint half — the calling process must still own this
// port's NIC endpoint (part of the SecurityCheck charge CheckRequest
// pays). Runs inside a Trap body.
func (pt *Port) checkPort(p *sim.Proc, va mem.VAddr, n, dstNode int) error {
	k := pt.node.Kernel
	if err := k.CheckRequest(p, pt.proc.PID, va, n, dstNode, pt.sys.Cluster.Size()); err != nil {
		return err
	}
	return k.CheckEndpointOwner(pt.proc.PID, pt.addr.Port)
}
