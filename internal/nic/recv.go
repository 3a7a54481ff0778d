package nic

import (
	"errors"
	"fmt"
	"slices"

	"bcl/internal/fabric"
	"bcl/internal/mem"
	"bcl/internal/nic/gbn"
	"bcl/internal/sim"
)

// The receive MCP (see mcp.go) is a state machine, not a process: each
// wait — a packet, LANai or bus time, the injection link, an event's
// delivery — is one event, booked where a blocked process's wake-up
// would be, that resumes rxStep at the stage it names.

// rxMCP is the receive MCP's record. It keeps what a process's stack
// would hold across a wait, stale or not: a packet in hand finishes
// against the flow and assembly it started with, whatever a reboot did.
type rxMCP struct {
	hold                    // the LANai or bus time being charged
	pkt      *fabric.Packet // the packet in hand; nil while none is
	start    sim.Time       // when the open span began
	rf       *rxFlow        // data, collective: the flow it arrived on
	tf       *txFlow        // ACK: the flow it acknowledges
	progress bool           // ACK: it retired at least one packet
	asm      *rxAssembly    // data: its message's assembly
	xl       xlate          // data: where its payload lands, and the translation on the way there
	seg      int            // data: the next landing segment to DMA
	done     int            // data: the payload bytes DMAed so far
}

// The stages a wait resumes the receive MCP at (rxStep).
const (
	rxRecv        uint64 = iota // a packet may have arrived
	rxCharged                   // control packet: its processing charged
	rxAckPosted                 // ACK: a send completion was posted
	rxDataCharged               // data: its receive processing charged
	rxLooked                    // data: the channel lookup charged
	rxXlated                    // data: one page's translation charged
	rxDMAed                     // data: one segment's bus time passed
	rxAcked                     // data: its ACK is out
	rxCollCharged               // collective: its processing charged
	rxCollAcked                 // collective: its ACK is out
	rxDone                      // the packet is handled
)

// rxStep resumes the receive MCP after a wait.
func (n *NIC) rxStep(stage, _ uint64) {
	switch stage {
	case rxRecv:
		n.rxNext()
	case rxCharged:
		n.handleControl()
	case rxAckPosted:
		n.ackRetire()
	case rxDataCharged:
		n.handleData()
	case rxLooked:
		n.dataAssembled(n.openAssembly(n.rxm.rf, n.rxm.pkt))
	case rxXlated, rxDMAed:
		n.dataLand(stage)
	case rxAcked:
		n.dataAcked()
	case rxCollCharged:
		n.handleCollPkt()
	case rxCollAcked: // the collective engine releases the packet
		n.collQ.Post(collJob{kind: collJobPkt, pkt: n.rxm.pkt, epoch: n.bootEpoch})
		n.rxm.pkt = nil
		n.rxNext()
	case rxDone:
		n.rxDone()
	default:
		panic(fmt.Sprintf("nic%d: receive stage %d", n.node, stage))
	}
}

// rxNext takes the next packet off the wire and starts on it, or waits.
func (n *NIC) rxNext() {
	r := &n.rxm
	for {
		pkt, ok := n.ep.RX.RecvFn(r.resume, rxRecv, 0)
		if !ok {
			return
		}
		if n.fwDead {
			// Crashed firmware receives nothing; the wire drains into
			// the void and senders' timers recover after the reboot.
			n.stats.DeadDrops++
			pkt.Release()
			continue
		}
		n.stats.PacketsRecv++
		r.pkt, r.start = pkt, n.env.Now()
		switch pkt.Kind {
		case fabric.KindAck, fabric.KindNack, fabric.KindProbe, fabric.KindProbeAck, fabric.KindResync:
			r.use(n.cpu, n.prof.MCPAckProc, rxCharged)
		case fabric.KindData, fabric.KindRMAWrite, fabric.KindRMARead, fabric.KindVoid:
			r.use(n.cpu, n.prof.MCPRecvProc, rxDataCharged)
		case fabric.KindCollMcast, fabric.KindCollComb:
			r.use(n.cpu, n.prof.MCPCollProc, rxCollCharged)
		default:
			panic(fmt.Sprintf("nic%d: unknown packet kind %v", n.node, pkt.Kind))
		}
		return
	}
}

// rxDone ends the packet in hand, of which this NIC is the last holder
// however it was handled, and takes the next.
func (n *NIC) rxDone() {
	r := &n.rxm
	r.pkt.Release()
	r.pkt, r.rf, r.tf, r.asm = nil, nil, nil, nil
	n.rxNext()
}

// rxInject injects ctl, if any, and resumes at stage once the link has it.
func (n *NIC) rxInject(ctl *fabric.Packet, stage uint64) {
	if ctl == nil || n.ep.InjectFn(ctl, n.rxm.resume, stage, 0) {
		n.rxStep(stage, 0)
	}
}

// rxAccept takes the fragment in hand in sequence on flow f — under the
// reliability protocol, consumes and ACKs its number — and goes on.
func (n *NIC) rxAccept(f *rxFlow, stage uint64) {
	var ack *fabric.Packet
	if n.cfg.Reliable {
		f.Accept()
		ack = n.control(fabric.KindAck, n.rxm.pkt.Src, n.rxm.pkt.Seq, n.bootEpoch)
	}
	n.rxInject(ack, stage)
}

// rxRefuse drops the fragment in hand, whose bytes cannot land (err),
// with a NACK under the reliability protocol: it is sent again later,
// unless it is out of its window. No retry lands that, so the NACK names
// the message, to fail it alone and not the flow (handleNack).
func (n *NIC) rxRefuse(err error) {
	pkt := n.rxm.pkt
	n.stats.NoBufferDrops++
	var nack *fabric.Packet
	if n.cfg.Reliable {
		nack = n.control(fabric.KindNack, pkt.Src, pkt.Seq, n.bootEpoch)
		if errors.Is(err, errOutOfWindow) {
			nack.MsgID = pkt.MsgID
		}
	}
	n.rxInject(nack, rxDone)
}

// control builds a payload-free control packet from the pool; the zero
// CRC the descriptor holds is an empty payload's, so nothing to seal.
func (n *NIC) control(kind fabric.PacketKind, dst int, ackSeq uint64, epoch uint32) *fabric.Packet {
	pkt := n.pool.Get(0)
	pkt.Kind, pkt.Src, pkt.Dst, pkt.AckSeq, pkt.Epoch = kind, n.node, dst, ackSeq, epoch
	return pkt
}

// handleControl acts on a control packet whose processing is charged.
func (n *NIC) handleControl() {
	pkt := n.rxm.pkt
	switch pkt.Kind {
	case fabric.KindAck:
		if f := n.flowTo(pkt.Src); !n.noteEpoch(f, pkt.Epoch) {
			n.rxm.tf, n.rxm.progress = f, false
			n.ackRetire()
			return
		}
	case fabric.KindNack:
		if ev, post := n.handleNack(pkt); post && !n.post(ev, n.rxm.resume, rxDone, 0) {
			return
		}
	case fabric.KindProbe:
		// The reply re-admits the prober's flow toward us, and carries
		// our next expected sequence from it for the sender's resync.
		n.rxInject(n.control(fabric.KindProbeAck, pkt.Src, n.flowFrom(pkt.Src).Expect(), n.bootEpoch), rxDone)
		return
	case fabric.KindProbeAck:
		// A dead peer is back: resume at the sequence it expects, which
		// abandoned packets ran past (a rebooted one rewinds instead).
		if f := n.flowTo(pkt.Src); !n.noteEpoch(f, pkt.Epoch) {
			n.peerUp(f, f.ProbeAck(pkt.AckSeq))
		}
	case fabric.KindResync:
		if f := n.flowTo(pkt.Src); f.Resync(pkt.Epoch, pkt.AckSeq) {
			n.resyncFlow(f)
		}
	}
	n.rxDone()
}

// ackRetire retires what the ACK in hand acknowledges, oldest first,
// waiting out each completion it posts.
func (n *NIC) ackRetire() {
	r := &n.rxm
	f := r.tf
	for {
		e, note, ok := f.Ack(r.pkt.AckSeq, n.env.Now())
		if !ok {
			break
		}
		e.P.pkt.Release() // the sender's reference: the bytes are delivered
		r.progress = true
		n.releaseSRAM(e.P.sram)
		n.rtt(f, note)
		if e.Last {
			// Retiring frees the descriptor: compose first.
			d := e.Msg
			ev, post := n.sendEvent(EvSendDone, d), note&gbn.Complete != 0 && !d.NoEvent
			n.retireSend(e.MsgID, d, true)
			if post && !n.post(ev, r.resume, rxAckPosted, 0) {
				return
			}
		}
	}
	if r.progress {
		n.peerUp(f, f.PeerUp())
	}
	f.timer.Cancel()
	f.timer = sim.Timer{}
	if f.Window().Len() > 0 {
		n.armTimer(f)
	}
	n.rxDone()
}

// handleNack backs the flow off for a go-back-N retransmission. A NACK
// naming a message refuses it for good (an RMA write outside the
// target's window): the message fails, its packets in the window go
// out again as voids, which the receiver consumes and delivers nothing
// from, and its fragments not yet sent are suppressed. Only a void
// moves the receiver past a refused fragment, so no ACK covers one
// before its sender knows. handleNack returns the event to post.
func (n *NIC) handleNack(pkt *fabric.Packet) (ev Event, post bool) {
	n.stats.NACKs++
	f := n.flowTo(pkt.Src)
	if n.noteEpoch(f, pkt.Epoch) {
		return
	}
	v, d := f.Nack(pkt.MsgID)
	if v == gbn.Idle {
		return
	}
	// Back off briefly, then go-back-N from the NACKed point; the
	// receiver's expected sequence has not advanced.
	f.timer.Cancel()
	f.timer = n.env.After(n.prof.RetransmitTimeout/4, f.onTimer)
	if v != gbn.Refuse {
		return
	}
	ev, post = n.sendEvent(EvSendFailed, d), !d.NoEvent
	n.retireSend(d.MsgID, d, false)
	n.obs.Event(n.env.Now(), n.node, "nic", "send-refused", d.Trace, fmt.Sprintf("dst=%d msg=%d", f.dst, d.MsgID))
	if post {
		n.stats.SendFailures++
	}
	return ev, post
}

// rxInSequence checks the CRC of the data or collective fragment in
// hand and, under the reliability protocol, its place in its flow: it
// returns the flow if the fragment is next, or else deals with it —
// drop, re-ACK or rewind request — and returns nil.
func (n *NIC) rxInSequence(stage, what string) *rxFlow {
	r := &n.rxm
	pkt := r.pkt
	n.Tracer.AddFlow(stage, n.where(), pkt.Trace, r.start, n.env.Now())
	if !pkt.Verify() {
		n.stats.CRCDrops++
		n.obs.Event(n.env.Now(), n.node, "nic", "crc-drop", pkt.Trace,
			fmt.Sprintf("src=%d seq=%d%s", pkt.Src, pkt.Seq, what))
		n.rxDone() // silence; sender's timer recovers
		return nil
	}
	f := n.flowFrom(pkt.Src)
	if !n.cfg.Reliable {
		return f
	}
	// Only a rebooted receiver asks for a rewind, so runs without firmware
	// faults stay packet-for-packet identical to before RESYNC existed.
	v, from := f.Arrive(pkt.Seq, pkt.Epoch, n.bootEpoch > 1, n.env.Now())
	if from != 0 {
		n.stats.EpochResets++
		n.obs.Event(n.env.Now(), n.node, "nic", "epoch-reset", pkt.Trace,
			fmt.Sprintf("src=%d epoch %d -> %d", f.src, from, pkt.Epoch))
	}
	if v == gbn.Accept {
		return f
	}
	n.stats.SeqDrops++
	switch v {
	case gbn.Stale:
		n.rxDone()
	case gbn.Dup: // delivered already: re-ACK
		n.rxInject(n.control(fabric.KindAck, pkt.Src, f.Expect()-1, n.bootEpoch), rxDone)
	case gbn.Gap: // go-back-N discards until the sender rewinds
		n.rxDone()
	case gbn.Resync: // after OUR reboot the gap is permanent: ask for a rewind
		n.stats.ResyncsSent++
		n.obs.Event(n.env.Now(), n.node, "nic", "resync", 0,
			fmt.Sprintf("src=%d expect=%d epoch=%d", f.src, f.Expect(), n.bootEpoch))
		n.rxInject(n.control(fabric.KindResync, f.src, f.Expect(), n.bootEpoch), rxDone)
	}
	return nil
}

// handleData takes a data, RMA or void fragment, its processing charged.
func (n *NIC) handleData() {
	r := &n.rxm
	pkt := r.pkt
	f := n.rxInSequence("nic: recv processing", "")
	if f == nil {
		return
	}
	r.rf = f
	switch {
	case pkt.Kind == fabric.KindVoid:
		n.rxAccept(f, rxDone)
	case n.cfg.Reliable && f.Done(pkt.MsgID):
		// A journal replay or rewind overlap re-sends a delivered
		// message: swallow it in sequence, never re-deliver.
		n.stats.DupMsgDrops++
		n.rxAccept(f, rxDone)
	case pkt.Kind == fabric.KindRMARead:
		if !n.handleRMARead(pkt) {
			n.rxInject(n.control(fabric.KindNack, pkt.Src, pkt.Seq, n.bootEpoch), rxDone)
			return
		}
		n.rxAccept(f, rxDone)
	default:
		for _, asm := range f.asm {
			if asm.msgID == pkt.MsgID {
				n.dataAssembled(asm, nil)
				return
			}
		}
		// Resolving the destination channel costs time once per message.
		r.use(n.cpu, n.prof.MCPChannelLookup, rxLooked)
	}
}

// dataAssembled starts the payload DMA into the message's buffer, or
// refuses the fragment if there is none to take it.
func (n *NIC) dataAssembled(asm *rxAssembly, err error) {
	r := &n.rxm
	pkt := r.pkt
	if err != nil {
		n.obs.Event(n.env.Now(), n.node, "nic", "no-buffer-drop", pkt.Trace,
			fmt.Sprintf("src=%d: %v", pkt.Src, err))
		n.rxRefuse(err)
		return
	}
	r.asm, r.xl.out, r.xl.left = asm, r.xl.out[:0], 0
	if d := asm.desc; len(pkt.Payload) > 0 {
		if err := n.resolveStart(&r.xl, d.Segs, d.VA, d.Space, asm.baseOffset+pkt.Offset, len(pkt.Payload)); err != nil {
			n.rxRefuse(err)
			return
		}
	}
	n.dataLand(rxXlated)
}

// dataLand translates the payload's landing a page at a time (rxXlated),
// DMAs it a segment at a time, bus time then bytes (rxDMAed), and ACKs.
func (n *NIC) dataLand(stage uint64) {
	r := &n.rxm
	pkt := r.pkt
	switch {
	case stage == rxDMAed:
		s := r.xl.out[r.seg]
		if err := n.hmem.DMAWrite(s.Phys, pkt.Payload[r.done:r.done+s.Len]); err != nil {
			n.rxRefuse(err)
			return
		}
		r.seg++
		r.done += s.Len
	case r.xl.left > 0:
		cost, err := n.translatePage(&r.xl)
		if err != nil {
			n.rxRefuse(err)
			return
		}
		r.use(n.cpu, cost, rxXlated)
		return
	default: // resolved: the DMA starts
		r.seg, r.done, r.start = 0, 0, n.env.Now()
	}
	if r.seg < len(r.xl.out) {
		n.busDMA(&r.hold, r.xl.out[r.seg].Len, rxDMAed)
		return
	}
	if len(pkt.Payload) > 0 {
		n.Tracer.AddFlow("nic: payload DMA to host", n.where(), pkt.Trace, r.start, n.env.Now())
	}
	n.stats.BytesReceived += uint64(len(pkt.Payload))
	n.rxAccept(r.rf, rxAcked)
}

// dataAcked counts the fragment into its message and, if that makes it
// whole, completes the message.
func (n *NIC) dataAcked() {
	r := &n.rxm
	pkt, asm, f := r.pkt, r.asm, r.rf
	// Count first receipts only: a rewind-replay can overlap fragments
	// already delivered (same message id, fresh sequence numbers).
	if pkt.FragIdx >= 0 && pkt.FragIdx < len(asm.gotSet) && !asm.gotSet[pkt.FragIdx] {
		asm.gotSet[pkt.FragIdx] = true
		asm.got++
	}
	if asm.got != asm.frags {
		n.rxDone()
		return
	}
	f.asm = slices.DeleteFunc(f.asm, func(a *rxAssembly) bool { return a == asm })
	n.stats.MsgsReceived++
	if n.cfg.Reliable {
		n.markDone(f, pkt.MsgID)
	}
	// The posting is consumed only now: a crash mid-assembly replays it,
	// and the sender's rewind re-delivers into it from fragment zero.
	va := asm.desc.VA
	if asm.sysBuf || asm.recvEvent { // not an RMA window: those stay registered
		n.consumed(asm.port, asm.channel, asm.desc)
	}
	asm.desc = nil
	if pkt.Born > 0 && n.obs != nil {
		if n.msgLatency == nil {
			n.msgLatency = n.obs.Reg.Histogram(n.node, "nic", "msg_latency_ns")
		}
		n.msgLatency.Observe(int64(n.env.Now() - pkt.Born))
	}
	n.asms.Put(asm) // nothing else takes one before the packet is done
	if !asm.recvEvent {
		n.rxDone()
		return
	}
	n.deliverEvent(asm.port.RecvEvQ, Event{
		Type: EvRecvDone, Port: pkt.DstPort, Channel: pkt.Channel,
		MsgID: pkt.MsgID, Len: pkt.MsgLen, Tag: pkt.Tag,
		SrcNode: pkt.Src, SrcPort: pkt.SrcPort, VA: va,
		Trace: pkt.Trace,
	}, r.resume, rxDone, 0)
}

// newAssembly returns a cleared assembly record for a message of frags
// fragments, reusing one a completed message gave back.
func (n *NIC) newAssembly(frags int) *rxAssembly {
	asm, ok := n.asms.Get()
	if !ok {
		asm = &rxAssembly{}
	}
	set := asm.gotSet[:0]
	if cap(set) < frags {
		set = make([]bool, frags)
	}
	set = set[:frags]
	clear(set)
	*asm = rxAssembly{frags: frags, gotSet: set}
	return asm
}

// errOutOfWindow refuses an RMA write that does not fit its open buffer.
var errOutOfWindow = errors.New("RMA write out of bounds")

// openAssembly creates the assembly record for the message of a
// fragment that has none, taking the buffer its bytes land in.
func (n *NIC) openAssembly(f *rxFlow, pkt *fabric.Packet) (*rxAssembly, error) {
	port := n.ports.Get(pkt.DstPort)
	if port == nil {
		return nil, fmt.Errorf("nic%d: port %d not registered", n.node, pkt.DstPort)
	}
	asm := n.newAssembly(pkt.Frags)
	asm.msgID, asm.port, asm.channel, asm.recvEvent = pkt.MsgID, port, pkt.Channel, true

	switch {
	case pkt.Kind == fabric.KindRMAWrite:
		d := port.open.Get(pkt.Channel)
		if d == nil {
			return nil, fmt.Errorf("nic%d: open channel %d not registered", n.node, pkt.Channel)
		}
		base := pkt.Offset - pkt.FragIdx*n.prof.MaxPacket // message base offset in remote buffer
		if base < 0 || base+pkt.MsgLen > d.Len {
			return nil, fmt.Errorf("nic%d: %w", n.node, errOutOfWindow)
		}
		asm.desc = d
		asm.recvEvent = false
		// RMA fragments carry absolute buffer offsets already.
		asm.baseOffset = 0
	case pkt.Channel == 0:
		// Channel 0 is the system channel: grab a pool buffer. The size
		// check comes before the take: a rejected message is NACKed and
		// retransmitted, and each retry would otherwise eat a buffer.
		d, okb := port.system.Peek()
		if !okb {
			return nil, fmt.Errorf("nic%d: system pool empty on port %d", n.node, pkt.DstPort)
		}
		if pkt.MsgLen > d.Len {
			return nil, fmt.Errorf("nic%d: message too large for system buffer", n.node)
		}
		port.system.TryRecv()
		asm.desc = d
		asm.sysBuf = true
	default:
		d := port.normal.Get(pkt.Channel)
		if d == nil {
			return nil, fmt.Errorf("nic%d: channel %d not armed on port %d", n.node, pkt.Channel, pkt.DstPort)
		}
		if pkt.MsgLen > d.Len {
			return nil, fmt.Errorf("nic%d: message exceeds posted buffer", n.node)
		}
		asm.desc = d
		// A normal channel consumes its posting.
		port.normal.Set(pkt.Channel, nil)
	}
	f.asm = append(f.asm, asm)
	return asm, nil
}

// handleRMARead queues a read request's reply, a send over the open
// buffer, to its own send engine, or reports false if it is invalid.
func (n *NIC) handleRMARead(pkt *fabric.Packet) bool {
	port := n.ports.Get(pkt.DstPort)
	if port == nil {
		return false
	}
	d := port.open.Get(pkt.Channel)
	if d == nil {
		return false
	}
	if pkt.Offset < 0 || pkt.Offset+pkt.MsgLen > d.Len {
		return false
	}
	reply := &SendDesc{
		Kind:    DescData,
		MsgID:   n.NextMsgID(),
		SrcPort: pkt.DstPort,
		DstNode: pkt.Src,
		DstPort: pkt.SrcPort,
		Channel: int(pkt.Tag), // the initiator's reply channel
		Len:     pkt.MsgLen,
		Segs:    sliceSegs(d.Segs, pkt.Offset, pkt.MsgLen),
		VA:      d.VA + mem.VAddr(pkt.Offset),
		Space:   d.Space,
		NoEvent: true,
		Trace:   pkt.Trace, // the reply stays on the initiator's flow
		Born:    pkt.Born,
	}
	n.postDesc(reply)
	// No kernel command posted the reply, so the card journals it: a
	// crash here still replays it.
	if n.Journal != nil {
		n.Journal.SendPosted(reply)
	}
	return true
}
