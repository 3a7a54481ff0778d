package bcl

import (
	"fmt"
	"slices"

	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// Intra-node communication: processes on the same SMP node exchange
// messages through a shared-memory buffer queue instead of the NIC.
// The sender copies the message into shared chunks and the receiving
// port's delivery engine copies them out into the posted buffer —
// two memcpys, pipelined chunk by chunk so they overlap in time, but
// contending on the node's memory system, which caps the plateau near
// half the raw memcpy bandwidth (the paper's 391 vs ~800 MB/s). The
// receiving port's intraQ is a FIFO, so fragments arrive in the order
// they were sent. No kernel trap appears anywhere on this path.

// intraFrag is one shared-memory chunk in flight between two local
// processes. The sender takes it off the receiving port's fragFree and
// reads the chunk into its data buffer; the receiving engine puts it
// back once the chunk is copied out.
type intraFrag struct {
	src     Addr
	channel int
	msgID   uint64
	tag     uint64
	frags   int
	msgLen  int
	offset  int
	data    []byte
}

// sendIntra runs the sender half of the shared-memory path.
func (pt *Port) sendIntra(p *sim.Proc, dst Addr, channel int, va mem.VAddr, n int, tag uint64) (uint64, error) {
	dstPort, ok := pt.sys.lookup(dst)
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrNoSuchPort, dst)
	}
	msgID := pt.node.NIC.NextMsgID()
	prof := pt.node.Prof

	pt.tr.Do(p, "shm: enqueue", host(pt), func() {
		p.Sleep(prof.ShmPost)
	})
	chunk := prof.ShmChunk
	frags := 1
	if n > 0 {
		frags = (n + chunk - 1) / chunk
	}
	var sendErr error
	pt.tr.Do(p, "shm: copy-in (pipelined)", host(pt), func() {
		for i := 0; i < frags; i++ {
			lo := i * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			f, ok := dstPort.fragFree.Get()
			if !ok {
				f = new(intraFrag)
			}
			*f = intraFrag{
				src: pt.addr, channel: channel, msgID: msgID, tag: tag,
				frags: frags, msgLen: n, offset: lo,
				data: slices.Grow(f.data[:0], hi-lo)[:hi-lo],
			}
			if err := pt.proc.Space.ReadInto(va+mem.VAddr(lo), f.data); err != nil {
				dstPort.fragFree.Put(f)
				sendErr = err
				return
			}
			// The copy into the shared region contends on the memory
			// system with the receiver's copy out of it.
			pt.node.Memcpy(p, hi-lo)
			dstPort.intraQ.Send(p, f)
		}
	})
	if sendErr != nil {
		return 0, sendErr
	}
	// The send completes once the last chunk is in the shared queue.
	pt.sendEvs.Post(nic.Event{
		Type: nic.EvSendDone, Port: pt.addr.Port, Channel: channel,
		MsgID: msgID, Len: n, Tag: tag, SrcNode: pt.addr.Node,
		SrcPort: pt.addr.Port,
	})
	pt.sent++
	pt.bytesSent += uint64(n)
	return msgID, nil
}

// intraAsm is one message's assembly on the receiving side, held by
// value in the engine's table until its last fragment.
type intraAsm struct {
	buf     nic.RecvDesc // the consumed posting: where the message lands
	got     int
	dropped bool // nothing posted, too small, or a copy faulted: the rest is discarded
}

// intraEngine is the receiving half: one process per port draining the
// shared-memory queue into posted buffers and raising completion
// events on the port's receive event queue. A nil fragment (posted by
// Close) ends it.
func (pt *Port) intraEngine(p *sim.Proc) {
	open := make(map[uint64]intraAsm)
	for {
		f := pt.intraQ.Recv(p)
		if f == nil {
			return
		}
		pt.land(p, f, open)
		pt.fragFree.Put(f)
	}
}

// land copies one fragment out of shared memory into its message's
// buffer and raises the completion when it was the last. A dropped
// message stays in open until its last fragment, so no later fragment
// of it takes a posting meant for the next message.
func (pt *Port) land(p *sim.Proc, f *intraFrag, open map[uint64]intraAsm) {
	st, ok := open[f.msgID]
	if !ok {
		// First fragment: notice the message and resolve the
		// destination buffer. Rendezvous semantics: wait until the
		// receiver posts (or a pool buffer frees up).
		p.Sleep(pt.node.Prof.ShmPoll)
		// TakeRecv consumes the posting as an arriving message would,
		// journal included: the intra-node path delivers without the
		// NIC seeing it, and the recovery journal must stay honest.
		found := false
		for attempt := 0; attempt < 500 && !found; attempt++ {
			if st.buf, found = pt.nicPort.TakeRecv(f.channel, f.msgLen); !found {
				p.Sleep(20 * sim.Microsecond)
			}
		}
		// Nothing posted, or too small (it stays posted): the message is
		// dropped, as the NIC rejects it.
		st.dropped = !found || f.msgLen > st.buf.Len
	}
	if !st.dropped {
		// Copy the chunk out of shared memory into the user buffer.
		pt.node.Memcpy(p, len(f.data))
		st.dropped = len(f.data) > 0 && st.buf.Space.Write(st.buf.VA+mem.VAddr(f.offset), f.data) != nil
	}
	st.got++
	if st.got < f.frags {
		open[f.msgID] = st
		return
	}
	delete(open, f.msgID)
	if st.dropped {
		return
	}
	pt.events.Post(nic.Event{
		Type: nic.EvRecvDone, Port: pt.addr.Port, Channel: f.channel,
		MsgID: f.msgID, Len: f.msgLen, Tag: f.tag,
		SrcNode: f.src.Node, SrcPort: f.src.Port,
		VA: st.buf.VA,
	})
}
