package bcl

import (
	"fmt"

	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// Open channels: RMA. Once the target binds a buffer to an open
// channel, any process may read or write windows of that buffer; the
// remote host CPU is never involved — the target's MCP services the
// operation directly against the pinned pages.

// RegisterOpen binds [va, va+n) to an open channel for remote access.
// Like every NIC-state change in the semi-user-level architecture,
// registration traps: the kernel validates, pins and translates the
// region, then programs the channel.
func (pt *Port) RegisterOpen(p *sim.Proc, channel int, va mem.VAddr, n int) error {
	if pt.closed {
		return ErrClosed
	}
	if channel <= 0 {
		return fmt.Errorf("%w: %d", ErrBadChannel, channel)
	}
	k := pt.node.Kernel
	return k.Trap(p, func() error {
		d, err := pt.recvDesc(p, va, n)
		if err != nil {
			return err
		}
		return k.RegisterOpen(p, pt.addr.Port, channel, d)
	})
}

// RMAWrite writes n bytes at va into the remote open channel at the
// given offset. It returns the message id; completion arrives on the
// send event queue (WaitSend). One-sided: the target process sees
// nothing.
func (pt *Port) RMAWrite(p *sim.Proc, dst Addr, channel, offset int, va mem.VAddr, n int) (uint64, error) {
	if pt.closed {
		return 0, ErrClosed
	}
	return pt.trapSend(p, &sendReq{kind: nic.DescRMAWrite, dst: dst, channel: channel, offset: offset, va: va, n: n})
}

// RMARead reads n bytes at the given offset of the remote open channel
// into the local buffer at va. It blocks until the data has landed.
// The remote host CPU is not involved: the target NIC's firmware
// serves the read out of the registered pages.
func (pt *Port) RMARead(p *sim.Proc, dst Addr, channel, offset int, va mem.VAddr, n int) error {
	if pt.closed {
		return ErrClosed
	}
	// Arm a private reply channel with the destination buffer, then
	// issue the read request.
	reply := pt.CreateChannel()
	if err := pt.PostRecv(p, reply, va, n); err != nil {
		return err
	}
	p.Sleep(pt.node.Prof.UserCompose)
	msgID := pt.node.NIC.NextMsgID()
	k := pt.node.Kernel
	err := k.Trap(p, func() error {
		if cerr := pt.checkPort(p, va, n, dst.Node); cerr != nil {
			return cerr
		}
		// The kernel does not journal a read request, so nothing promises
		// to retire it across a firmware crash: its descriptor is the
		// garbage collector's.
		k.PostSend(p, &nic.SendDesc{
			Kind: nic.DescRMARead, MsgID: msgID, SrcPort: pt.addr.Port,
			DstNode: dst.Node, DstPort: dst.Port, Channel: channel,
			Len: n, Offset: offset, ReplyChannel: reply,
		})
		return nil
	})
	if err != nil {
		return err
	}
	ev := pt.WaitRecvChannel(p, reply)
	if ev.Type != nic.EvRecvDone || ev.Len != n {
		return fmt.Errorf("bcl: RMA read failed: %v len=%d", ev.Type, ev.Len)
	}
	return nil
}
