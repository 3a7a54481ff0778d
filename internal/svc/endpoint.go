package svc

import (
	"fmt"

	"bcl/internal/bcl"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// endpoint wraps one BCL port for an event-loop layer that owns it (the
// loop blocks in port.WaitRecvTimeout; nothing else receives on the
// port): a pool of reusable send buffers (a buffer is busy until its
// send completion drains — the NIC may still DMA or retransmit from
// it), and the two host buffers every message passes through — one
// outgoing frame is encoded into out, one received body is read into
// body. Neither is ever handed out for keeps: a frame lives until the
// next frame call, a body until the next read.
type endpoint struct {
	port    *bcl.Port
	bufSize int

	bufs     sim.FreeList[mem.VAddr]
	inflight map[uint64]mem.VAddr // send msgID -> busy buffer

	out  []byte // the frame being encoded (cap bufSize: a frame never outgrows it)
	body []byte // the last body read (bufSize long, the pool buffers' size)
}

func newEndpoint(p *sim.Proc, port *bcl.Port, sendBufs, bufSize int) *endpoint {
	e := &endpoint{
		port:     port,
		bufSize:  bufSize,
		inflight: make(map[uint64]mem.VAddr),
		out:      make([]byte, 0, bufSize),
		body:     make([]byte, bufSize),
	}
	sp := port.Process().Space
	for i := 0; i < sendBufs; i++ {
		e.bufs.Put(sp.Alloc(bufSize))
	}
	return e
}

// drainSends recycles completed send buffers without blocking.
func (e *endpoint) drainSends(p *sim.Proc) {
	for {
		ev, ok := e.port.TryWaitSend(p)
		if !ok {
			return
		}
		e.noteSendEvent(ev)
	}
}

func (e *endpoint) noteSendEvent(ev nic.Event) {
	if va, ok := e.inflight[ev.MsgID]; ok {
		delete(e.inflight, ev.MsgID)
		e.bufs.Put(va)
	}
}

// getBuf pops a free send buffer, blocking on send completions when
// the pool is exhausted (back-pressure from the NIC ring).
func (e *endpoint) getBuf(p *sim.Proc) mem.VAddr {
	e.drainSends(p)
	for e.bufs.Len() == 0 {
		e.noteSendEvent(e.port.WaitSend(p))
	}
	va, _ := e.bufs.Get()
	return va
}

// frame returns the endpoint's encode buffer, emptied. The frame built
// in it is valid until the next call: send it, or copy what is kept.
func (e *endpoint) frame() []byte { return e.out[:0] }

// send frames and transmits one service message: the header rides the
// tag, the payload is copied into a pool-owned send buffer. A payload
// longer than a buffer is refused: the peer's pool buffers are the same
// size, so its NIC would NACK the message forever and go-back-N would
// stall everything queued behind it.
func (e *endpoint) send(p *sim.Proc, dst bcl.Addr, kind uint8, sess, uch uint16, seq uint32, payload []byte) error {
	if len(payload) > e.bufSize {
		return fmt.Errorf("svc: %d-byte payload exceeds the %d-byte system buffer", len(payload), e.bufSize)
	}
	va := e.getBuf(p)
	if len(payload) > 0 {
		if err := e.port.Process().Space.Write(va, payload); err != nil {
			e.bufs.Put(va)
			return err
		}
	}
	msgID, err := e.port.Send(p, dst, bcl.SystemChannel, va, len(payload), packTag(kind, sess, uch, seq))
	if err != nil {
		e.bufs.Put(va)
		return err
	}
	// Intra-node sends complete inline, so their completion may
	// already be queued; register before draining again.
	e.inflight[msgID] = va
	return nil
}

// read copies a received message's payload out of the pool buffer into
// the endpoint's body buffer and gives the pool buffer back to the port,
// which returns a full batch in one kernel trap (a refused return only
// leaves the pool smaller). The body is valid until the next read: a
// handler copies what it keeps.
func (e *endpoint) read(p *sim.Proc, ev nic.Event) []byte {
	if ev.Len > len(e.body) { // a port whose pool buffers outsize bufSize
		e.body = make([]byte, ev.Len)
	}
	body := e.body[:ev.Len]
	if e.port.Process().Space.ReadInto(ev.VA, body) != nil {
		body = nil
	}
	_ = e.port.RecycleSystemBuffer(p, ev.VA)
	return body
}
