package nic

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/fabric/myrinet"
	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/nic/coll"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

// The receive path's rarer branches. Most of these tests hand the
// receiving NIC a crafted packet at a chosen instant, as if the fabric
// had delivered it, and read what the firmware did from its counters
// and from the packets it sent back.

// arrive delivers pkt to node's receive queue at virtual time at.
func (r *rig) arrive(at sim.Time, node int, pkt *fabric.Packet) {
	r.env.At(at, func() { r.nics[node].ep.RX.Post(pkt) })
}

// crafted returns a sealed single-fragment packet from src to dst.
func crafted(kind fabric.PacketKind, src, dst int, epoch uint32, seq uint64, payload []byte) *fabric.Packet {
	pkt := &fabric.Packet{
		Kind: kind, Src: src, Dst: dst, SrcPort: 1, DstPort: 2, Channel: 1,
		Epoch: epoch, MsgID: seq + 1, Seq: seq, Frags: 1, MsgLen: len(payload),
		Payload: payload,
	}
	pkt.Seal()
	return pkt
}

// controlPkt returns a crafted control packet from src to dst.
func controlPkt(kind fabric.PacketKind, src, dst int, epoch uint32, ackSeq uint64) *fabric.Packet {
	return &fabric.Packet{Kind: kind, Src: src, Dst: dst, Epoch: epoch, AckSeq: ackSeq}
}

// TestUnknownPacketKindPanics: a packet kind the firmware does not know
// is a model bug, raised from the run.
func TestUnknownPacketKindPanics(t *testing.T) {
	r := newRig(t, bclConfig())
	r.arrive(0, 1, &fabric.Packet{Kind: 99, Src: 0, Dst: 1})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "unknown packet kind") {
			t.Fatalf("run ended with %q, want an unknown-packet-kind panic", msg)
		}
	}()
	r.env.RunUntil(sim.Millisecond)
}

// TestStaleEpochsAreDiscarded: once a peer's boot epoch is known, a
// packet stamped with an older one is from before the peer's reboot.
// Data and collective packets from it are dropped as sequence drops;
// ACK, NACK, probe-ACK and RESYNC packets from it are ignored; a newer
// epoch on an ACK rewinds the flow.
func TestStaleEpochsAreDiscarded(t *testing.T) {
	r := newRigOf(t, bclConfig(), 3)
	rva, rseg := r.recvBuf(t, 1, 64)
	r.nics[1].RegisterPort(2)
	if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 64, Segs: rseg, VA: rva}); err != nil {
		t.Fatal(err)
	}
	// Node 2 "sends" to node 1 under epoch 2, then under epoch 1.
	r.arrive(10*sim.Microsecond, 1, crafted(fabric.KindData, 2, 1, 2, 0, []byte("epoch two")))
	r.arrive(100*sim.Microsecond, 1, crafted(fabric.KindData, 2, 1, 1, 1, []byte("epoch one")))
	coll := crafted(fabric.KindCollMcast, 2, 1, 1, 1, nil)
	r.arrive(110*sim.Microsecond, 1, coll)
	// Node 2's control packets reach node 0: epoch 2 first, then stale
	// ones, then epoch 3.
	for i, pkt := range []*fabric.Packet{
		controlPkt(fabric.KindAck, 2, 0, 2, 0),
		controlPkt(fabric.KindAck, 2, 0, 1, 0),
		controlPkt(fabric.KindNack, 2, 0, 1, 0),
		controlPkt(fabric.KindProbeAck, 2, 0, 1, 7),
		controlPkt(fabric.KindResync, 2, 0, 1, 0),
		controlPkt(fabric.KindNack, 2, 0, 2, 0), // same epoch, nothing unacked
		controlPkt(fabric.KindAck, 2, 0, 3, 0),
	} {
		r.arrive(sim.Time(200+10*i)*sim.Microsecond, 0, pkt)
	}
	r.env.RunUntil(sim.Millisecond)

	if got, _ := r.space[1].Read(rva, 9); !bytes.Equal(got, []byte("epoch two")) {
		t.Fatalf("buffer holds %q, want the epoch-2 message", got)
	}
	if st := r.nics[1].Stats(); st.SeqDrops != 2 || st.MsgsReceived != 1 {
		t.Fatalf("receiver: %d sequence drops, %d messages, want 2 and 1", st.SeqDrops, st.MsgsReceived)
	}
	st := r.nics[0].Stats()
	if st.NACKs != 2 || st.ResyncRewinds != 1 || st.PeerRecoveries != 0 {
		t.Fatalf("sender: %d NACKs, %d rewinds, %d recoveries, want 2, 1, 0", st.NACKs, st.ResyncRewinds, st.PeerRecoveries)
	}
	if f := r.nics[0].tx.Get(2); f.NextSeq() != 0 || f.PeerEpoch() != 3 {
		t.Fatalf("flow to node 2: next seq %d, peer epoch %d; the stale probe-ACK must not move it", f.NextSeq(), f.PeerEpoch())
	}
}

// TestBadRMAReadRequestsAreNacked: a read request for a port that is
// not registered, a channel that is not open, or a range outside the
// open buffer is refused with a NACK and does not advance the flow.
func TestBadRMAReadRequestsAreNacked(t *testing.T) {
	r := newRig(t, bclConfig())
	_, tseg := r.recvBuf(t, 1, 4096)
	r.nics[1].RegisterPort(2)
	if err := r.nics[1].RegisterOpen(2, 5, &RecvDesc{Len: 4096, Segs: tseg}); err != nil {
		t.Fatal(err)
	}
	read := func(port, channel, offset int) *fabric.Packet {
		pkt := crafted(fabric.KindRMARead, 0, 1, 1, 0, nil)
		pkt.DstPort, pkt.Channel, pkt.Offset, pkt.MsgLen = port, channel, offset, 200
		return pkt
	}
	r.arrive(0, 1, read(9, 5, 0))
	r.arrive(50*sim.Microsecond, 1, read(2, 6, 0))
	r.arrive(100*sim.Microsecond, 1, read(2, 5, 4000))
	r.env.RunUntil(sim.Millisecond)
	if got := r.nics[0].Stats().NACKs; got != 3 {
		t.Fatalf("requester got %d NACKs, want 3", got)
	}
	if f := r.nics[1].rx.Get(0); f.Expect() != 0 {
		t.Fatalf("target expects sequence %d, want 0: a refused request is not consumed", f.Expect())
	}
	if got := r.nics[1].Stats().MsgsSent; got != 0 {
		t.Fatalf("target sent %d replies, want none", got)
	}
}

// TestUndeliverablePayloadsAreNacked: a fragment whose bytes cannot land
// is NACKed: an RMA write to a channel that is not open, a message
// longer than the posted buffer, and a buffer whose frame is not pinned
// (the DMA fails).
func TestUndeliverablePayloadsAreNacked(t *testing.T) {
	r := newRig(t, bclConfig())
	rva, rseg := r.recvBuf(t, 1, 16)
	r.nics[1].RegisterPort(2)
	if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 16, Segs: rseg, VA: rva}); err != nil {
		t.Fatal(err)
	}
	uva := r.space[1].Alloc(64)
	useg, err := r.space[1].Segments(uva, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.nics[1].PostRecv(2, 3, &RecvDesc{Len: 64, Segs: useg, VA: uva}); err != nil {
		t.Fatal(err)
	}
	rma := crafted(fabric.KindRMAWrite, 0, 1, 1, 0, []byte("to nowhere"))
	rma.Channel = 5
	long := crafted(fabric.KindData, 0, 1, 1, 0, make([]byte, 32))
	long.MsgID = 2
	unpinned := crafted(fabric.KindData, 0, 1, 1, 0, []byte("unpinned"))
	unpinned.Channel, unpinned.MsgID = 3, 3
	r.arrive(0, 1, rma)
	r.arrive(50*sim.Microsecond, 1, long)
	r.arrive(100*sim.Microsecond, 1, unpinned)
	r.env.RunUntil(sim.Millisecond)
	if got := r.nics[1].Stats().NoBufferDrops; got != 3 {
		t.Fatalf("receiver counted %d no-buffer drops, want 3", got)
	}
	if got := r.nics[0].Stats().NACKs; got != 3 {
		t.Fatalf("sender got %d NACKs, want 3", got)
	}
}

// TestNICTranslationFailuresAreNacked: on a card that translates
// addresses itself, a posting without an address space, or with a
// virtual address nothing maps, cannot take a payload: NACK.
func TestNICTranslationFailuresAreNacked(t *testing.T) {
	r := newRig(t, Config{Translate: NICTranslated, Completion: UserEventQueue, Reliable: true})
	r.nics[1].RegisterPort(2)
	if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 64, VA: r.space[1].Alloc(64)}); err != nil {
		t.Fatal(err)
	}
	if err := r.nics[1].PostRecv(2, 2, &RecvDesc{Len: 64, VA: 1 << 40, Space: r.space[1]}); err != nil {
		t.Fatal(err)
	}
	noSpace := crafted(fabric.KindData, 0, 1, 1, 0, []byte("no space"))
	unmapped := crafted(fabric.KindData, 0, 1, 1, 0, []byte("unmapped"))
	unmapped.Channel, unmapped.MsgID = 2, 2
	r.arrive(0, 1, noSpace)
	r.arrive(50*sim.Microsecond, 1, unmapped)
	r.env.RunUntil(sim.Millisecond)
	if got := r.nics[1].Stats().NoBufferDrops; got != 2 {
		t.Fatalf("receiver counted %d no-buffer drops, want 2", got)
	}
	if got := r.nics[0].Stats().NACKs; got != 2 {
		t.Fatalf("sender got %d NACKs, want 2", got)
	}
}

// TestCorruptCollectivePacketIsDropped: the CRC guards collective
// packets as it does data: silence, and the sender's timer recovers.
func TestCorruptCollectivePacketIsDropped(t *testing.T) {
	r := newRig(t, bclConfig())
	pkt := crafted(fabric.KindCollMcast, 0, 1, 1, 0, []byte("aggregate"))
	pkt.Payload = []byte("aggregatf")
	r.arrive(0, 1, pkt)
	r.env.RunUntil(sim.Millisecond)
	if st := r.nics[1].Stats(); st.CRCDrops != 1 || st.PacketsSent != 0 {
		t.Fatalf("receiver: %d CRC drops, %d packets sent, want 1 and 0", st.CRCDrops, st.PacketsSent)
	}
}

// TestResyncRewindsAWindowThatRanPast: a RESYNC under the peer's
// current epoch rewinds the flow only when the window has run past the
// sequence the peer expects; the message is then replayed from
// sequence zero and delivered once.
func TestResyncRewindsAWindowThatRanPast(t *testing.T) {
	r := newRig(t, bclConfig())
	dropping := true
	// A hook, not a Schedule: the test switches it off mid-run.
	r.fab.SetFault(func(_ *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if dropping && pkt.Kind == fabric.KindData {
			return fabric.Drop
		}
		return fabric.Deliver
	})
	payload := []byte("rewound")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 64)
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 64, Segs: rseg, VA: rva}); err != nil {
		t.Fatal(err)
	}
	// A probe-ACK sets the flow's next sequence to 10; the message then
	// leaves as sequence 10 and is lost.
	r.arrive(0, 0, controlPkt(fabric.KindProbeAck, 1, 0, 1, 10))
	r.env.Go("sender", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: r.nics[0].NextMsgID(), SrcPort: 1,
			DstNode: 1, DstPort: 2, Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	// The peer expects 12: nothing to rewind. Then it expects 5.
	r.arrive(60*sim.Microsecond, 0, controlPkt(fabric.KindResync, 1, 0, 1, 12))
	r.arrive(70*sim.Microsecond, 0, controlPkt(fabric.KindResync, 1, 0, 1, 5))
	r.env.At(80*sim.Microsecond, func() { dropping = false })
	recvs := 0
	r.env.Go("receiver", func(p *sim.Proc) {
		for {
			rp.RecvEvQ.Recv(p)
			recvs++
		}
	})
	r.env.RunUntil(100 * sim.Millisecond)
	if got := r.nics[0].Stats().ResyncRewinds; got != 1 {
		t.Fatalf("sender rewound %d times, want 1", got)
	}
	if recvs != 1 {
		t.Fatalf("message delivered %d times, want once", recvs)
	}
	if got, _ := r.space[1].Read(rva, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("buffer holds %q", got)
	}
	r.assertDrained(t)
}

// TestRewindResendsCollectiveForwards: a collective packet unacked when
// the peer reboots goes back to the collective engine, which injects it
// again under the rewound numbering; the member receives the multicast
// once.
func TestRewindResendsCollectiveForwards(t *testing.T) {
	r := newRig(t, bclConfig())
	dropColl := false
	// A hook, not a Schedule: the test switches it on mid-run.
	r.fab.SetFault(func(_ *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if dropColl && pkt.Kind == fabric.KindCollMcast {
			return fabric.Drop
		}
		return fabric.Deliver
	})
	const slots, slotSize = 4, 64
	spec := func(me int) *CollSpec {
		va, segs := r.recvBuf(t, me, slots*slotSize)
		return &CollSpec{
			ID: 7, Me: me, Nodes: []int{0, 1}, Ports: []int{1, 1}, Plan: coll.Binomial(2, 0),
			Landing: RecvDesc{Len: slots * slotSize, Segs: segs, VA: va}, SlotSize: slotSize, Slots: slots,
		}
	}
	member := spec(1)
	for i, s := range []*CollSpec{spec(0), member} {
		r.nics[i].RegisterPort(1)
		if err := r.nics[i].RegisterCollCtx(s); err != nil {
			t.Fatal(err)
		}
	}
	rva, rseg := r.recvBuf(t, 1, 64)
	if err := r.nics[1].PostRecv(1, 1, &RecvDesc{Len: 64, Segs: rseg, VA: rva}); err != nil {
		t.Fatal(err)
	}
	hello, mcast := []byte("hello"), []byte("multicast")
	_, hseg := r.pinnedSegs(t, 0, hello)
	_, mseg := r.pinnedSegs(t, 0, mcast)
	r.env.Go("root", func(p *sim.Proc) {
		// A point-to-point message first, so the root has seen the
		// member's epoch; then the multicast, which the fabric loses.
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: r.nics[0].NextMsgID(), SrcPort: 1,
			DstNode: 1, DstPort: 1, Channel: 1, Len: len(hello), Segs: hseg,
		}))
		p.Sleep(100 * sim.Microsecond)
		dropColl = true
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescCollMcast, MsgID: r.nics[0].NextMsgID(), SrcPort: 1,
			DstNode: 1, Channel: CollChannel, Len: len(mcast), Segs: mseg,
			Coll: CollHdr{Ctx: 7, Seq: 1},
		}))
	})
	// The member's firmware reboots meanwhile, as the kernel recovers it.
	r.nics[1].CrashAt(150 * sim.Microsecond)
	r.env.At(200*sim.Microsecond, func() {
		n := r.nics[1]
		n.BeginReboot()
		n.ReprogramPort(1, 1)
		if err := n.RegisterCollCtx(member); err != nil {
			t.Error(err)
		}
		n.FinishReboot()
		dropColl = false
	})
	var got []Event
	rp, _ := r.nics[1].LookupPort(1)
	r.env.Go("member", func(p *sim.Proc) {
		for {
			got = append(got, rp.RecvEvQ.Recv(p))
		}
	})
	r.env.RunUntil(100 * sim.Millisecond)

	var mcasts int
	for _, ev := range got {
		if ev.Channel == CollChannel && ev.CollKind == CollEvMcast {
			mcasts++
			if b, _ := r.space[1].Read(ev.VA, len(mcast)); !bytes.Equal(b, mcast) {
				t.Fatalf("landing slot holds %q", b)
			}
		}
	}
	if mcasts != 1 {
		t.Fatalf("member got %d multicasts (events %+v), want 1", mcasts, got)
	}
	if st := r.nics[0].Stats(); st.ResyncRewinds != 1 {
		t.Fatalf("root rewound %d times, want 1", st.ResyncRewinds)
	}
	if st := r.nics[1].Stats(); st.ResyncsSent == 0 {
		t.Fatal("the rebooted member never asked for a rewind")
	}
}

// TestNICRunsTwoProcesses: the retransmit and collective engines are
// processes, a goroutine each for as long as the simulation lives; the
// receive MCP and the send MCP's fetch and inject engines are events
// and hold none.
func TestNICRunsTwoProcesses(t *testing.T) {
	carriers := func() int {
		buf := make([]byte, 1<<20)
		for {
			if n := runtime.Stack(buf, true); n < len(buf) {
				return strings.Count(string(buf[:n]), "sim.(*Env).start.func1(")
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	env := sim.NewEnv(1)
	defer env.Close()
	prof := hw.DAWNING3000()
	fab := myrinet.New(env, prof, 2)
	before := carriers()
	New(env, prof, bclConfig(), 0, fab.Attach(0), mem.NewMemory(prof.PageSize))
	env.RunUntil(sim.Millisecond)
	if n := carriers() - before; n != 2 {
		t.Fatalf("a NIC runs %d processes, want 2", n)
	}
}

// TestUnreliableReceiveSendsNothingBack: without the reliability
// protocol the receiver answers nothing — a fragment with nowhere to
// land is dropped, an RMA read is served without an ACK, and a
// collective packet goes straight to the engine.
func TestUnreliableReceiveSendsNothingBack(t *testing.T) {
	r := newRig(t, Config{Translate: HostTranslated, Completion: UserEventQueue})
	content := []byte("read me")
	_, tseg := r.pinnedSegs(t, 1, content)
	r.nics[1].RegisterPort(2)
	if err := r.nics[1].RegisterOpen(2, 5, &RecvDesc{Len: len(content), Segs: tseg}); err != nil {
		t.Fatal(err)
	}
	rva, rseg := r.recvBuf(t, 0, 64)
	r.nics[0].RegisterPort(1)
	if err := r.nics[0].PostRecv(1, 9, &RecvDesc{Len: 64, Segs: rseg, VA: rva}); err != nil {
		t.Fatal(err)
	}
	read := crafted(fabric.KindRMARead, 0, 1, 0, 0, nil)
	read.DstPort, read.Channel, read.MsgLen, read.Tag = 2, 5, len(content), 9
	read.SrcPort = 1
	r.arrive(0, 1, read)
	r.arrive(50*sim.Microsecond, 1, crafted(fabric.KindData, 0, 1, 0, 0, []byte("unarmed")))
	r.arrive(100*sim.Microsecond, 1, crafted(fabric.KindCollMcast, 0, 1, 0, 0, nil))
	o := obs.New() // the engine records the packet of a context it does not hold
	r.nics[1].SetObs(o)
	r.env.RunUntil(sim.Millisecond)
	if got, _ := r.space[0].Read(rva, len(content)); !bytes.Equal(got, content) {
		t.Fatalf("read reply holds %q", got)
	}
	st := r.nics[1].Stats()
	if st.NoBufferDrops != 1 || st.PacketsSent != 1 {
		t.Fatalf("receiver: %d no-buffer drops, %d packets sent, want 1 and 1 (the read reply)", st.NoBufferDrops, st.PacketsSent)
	}
	engine := 0
	for _, ev := range o.Rec.Events() {
		if ev.Node == 1 && ev.What == "coll-unknown-ctx" {
			engine++
		}
	}
	if engine != 1 {
		t.Fatalf("%d packets reached the collective engine, want 1", engine)
	}
}

// TestNICTranslatedSendFailsOnBadBuffer: the fetch engine translates a
// send buffer on the card too; a descriptor without an address space,
// or over addresses nothing maps, fails the send.
func TestNICTranslatedSendFailsOnBadBuffer(t *testing.T) {
	r := newRig(t, Config{Translate: NICTranslated, Completion: UserEventQueue, Reliable: true})
	sp := r.nics[0].RegisterPort(1)
	r.nics[1].RegisterPort(2)
	var evs []Event
	r.env.Go("sender", func(p *sim.Proc) {
		for i, d := range []SendDesc{
			{VA: r.space[0].Alloc(64)},
			{VA: 1 << 40, Space: r.space[0]},
		} {
			d.Kind, d.MsgID, d.SrcPort, d.DstNode, d.DstPort, d.Channel, d.Len = DescData, uint64(i+1), 1, 1, 2, 1, 64
			r.nics[0].PostSend(p, lend(r.nics[0], d))
			evs = append(evs, sp.SendEvQ.Recv(p))
		}
	})
	r.env.RunUntil(sim.Millisecond)
	if len(evs) != 2 || evs[0].Type != EvSendFailed || evs[1].Type != EvSendFailed {
		t.Fatalf("send events %+v, want two failures", evs)
	}
	r.assertDrained(t)
}

// TestRefusedRMAWriteSuppressesItsTail: when the target refuses the
// first fragment of a long RMA write outside its window, the fragments
// not yet on the wire are never sent; the write fails once, the flow
// stays up, and the next message to the node is delivered.
func TestRefusedRMAWriteSuppressesItsTail(t *testing.T) {
	r := newRig(t, bclConfig())
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	_, wseg := r.recvBuf(t, 1, 4096)
	if err := r.nics[1].RegisterOpen(2, 5, &RecvDesc{Len: 4096, Segs: wseg}); err != nil {
		t.Fatal(err)
	}
	rva, rseg := r.recvBuf(t, 1, 64)
	if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 64, Segs: rseg, VA: rva}); err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 64*1024)
	_, lseg := r.pinnedSegs(t, 0, long)
	hello := []byte("still up")
	_, hseg := r.pinnedSegs(t, 0, hello)
	var evs []Event
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescRMAWrite, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 5, Len: len(long), Segs: lseg,
		}))
		evs = append(evs, sp.SendEvQ.Recv(p))
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 2, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(hello), Segs: hseg,
		}))
		evs = append(evs, sp.SendEvQ.Recv(p))
	})
	var got *Event
	r.env.Go("receiver", func(p *sim.Proc) { got = evp(rp.RecvEvQ.Recv(p)) })
	r.env.RunUntil(100 * sim.Millisecond)
	if len(evs) != 2 || evs[0].Type != EvSendFailed || evs[0].MsgID != 1 || evs[1].Type != EvSendDone {
		t.Fatalf("send events %+v, want the write failed, then the message done", evs)
	}
	if got == nil || got.MsgID != 2 {
		t.Fatalf("receive event %+v, want message 2", got)
	}
	st := r.nics[0].Stats()
	if st.PeerDeaths != 0 || st.SendFailures != 1 {
		t.Fatalf("sender: %d peer deaths, %d failures; want 0 and 1", st.PeerDeaths, st.SendFailures)
	}
	if frags := 64 * 1024 / r.prof.MaxPacket; st.PacketsSent >= uint64(frags) {
		t.Fatalf("sender put %d packets on the wire for a refused %d-fragment write and one message", st.PacketsSent, frags)
	}
	r.assertDrained(t)
}

// refusedWrite runs a one-fragment RMA write outside its target's
// window with a message right behind it on the flow, through the given
// fault hook, and returns the send events per message id and the
// receive events.
func refusedWrite(t *testing.T, fault fabric.Fault) (r *rig, evs map[uint64][]EventType, recvs int) {
	r = newRig(t, bclConfig())
	// A hook, not a Schedule: the callers' hooks count drops or react to a NACK.
	r.fab.SetFault(fault)
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	_, wseg := r.recvBuf(t, 1, 4096)
	if err := r.nics[1].RegisterOpen(2, 5, &RecvDesc{Len: 4096, Segs: wseg}); err != nil {
		t.Fatal(err)
	}
	rva, rseg := r.recvBuf(t, 1, 64)
	if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 64, Segs: rseg, VA: rva}); err != nil {
		t.Fatal(err)
	}
	_, wsrc := r.pinnedSegs(t, 0, make([]byte, 64))
	hello := []byte("behind it")
	_, hseg := r.pinnedSegs(t, 0, hello)
	evs = map[uint64][]EventType{}
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescRMAWrite, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 5, Offset: 8192, Len: 64, Segs: wsrc,
		}))
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 2, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(hello), Segs: hseg,
		}))
		for {
			ev := sp.SendEvQ.Recv(p)
			evs[ev.MsgID] = append(evs[ev.MsgID], ev.Type)
		}
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		for {
			ev := rp.RecvEvQ.Recv(p)
			if got, _ := r.space[1].Read(ev.VA, len(hello)); !bytes.Equal(got, hello) {
				t.Errorf("received %q, want %q", got, hello)
			}
			recvs++
		}
	})
	r.env.RunUntil(sim.Second)
	return r, evs, recvs
}

// TestRefusedRMAWriteNeverCompletes: the NACKs refusing the write are
// lost, and the message behind it may land meanwhile. The write still
// fails exactly once and is never reported done: the receiver moves
// past a refused fragment only on the void the sender sends once it
// knows, so no ACK of the message behind covers the write first.
func TestRefusedRMAWriteNeverCompletes(t *testing.T) {
	lost := 2
	r, evs, recvs := refusedWrite(t, func(_ *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if pkt.Kind == fabric.KindNack && lost > 0 {
			lost--
			return fabric.Drop
		}
		return fabric.Deliver
	})
	if w, m := evs[1], evs[2]; len(w) != 1 || w[0] != EvSendFailed || len(m) != 1 || m[0] != EvSendDone || recvs != 1 {
		t.Fatalf("write events %v, message events %v, %d receives; want one failure, one completion, one receive", w, m, recvs)
	}
	if st := r.nics[0].Stats(); lost != 0 || st.PeerDeaths != 0 || st.SendFailures != 1 {
		t.Fatalf("%d NACKs undropped, %d peer deaths, %d failures; want 0, 0, 1", lost, st.PeerDeaths, st.SendFailures)
	}
	r.assertDrained(t)
}

// TestRefusedRMAWriteFailsOnceWhenThePeerDies: the sender learns of the
// refusal, then loses the peer with the write's voids still unacked.
// Giving the flow up fails the message behind, and not the write a
// second time.
func TestRefusedRMAWriteFailsOnceWhenThePeerDies(t *testing.T) {
	refused := false
	r, evs, recvs := refusedWrite(t, func(_ *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if pkt.Kind == fabric.KindNack && pkt.MsgID != 0 {
			refused = true
		} else if refused && pkt.Src == 0 {
			return fabric.Drop
		}
		return fabric.Deliver
	})
	if w, m := evs[1], evs[2]; len(w) != 1 || w[0] != EvSendFailed || len(m) != 1 || m[0] != EvSendFailed || recvs != 0 {
		t.Fatalf("write events %v, message events %v, %d receives; want one failure each, no receive", w, m, recvs)
	}
	if st := r.nics[0].Stats(); st.PeerDeaths != 1 || st.SendFailures != 2 {
		t.Fatalf("%d peer deaths, %d failures; want 1 and 2", st.PeerDeaths, st.SendFailures)
	}
	r.assertDrained(t)
}

// TestDeliveriesBeyondTheReadyRecords: more completion events on their
// way at once than New readied delivery records for all reach the
// host, in order, and each caller resumes once.
func TestDeliveriesBeyondTheReadyRecords(t *testing.T) {
	r := newRig(t, bclConfig())
	n := r.nics[0]
	port := n.RegisterPort(1)
	resumed := 0
	k := func(uint64, uint64) { resumed++ }
	r.env.At(0, func() {
		for i := range deliveries + 2 {
			n.deliverEvent(port.RecvEvQ, Event{MsgID: uint64(i)}, k, 0, 0)
		}
	})
	r.env.RunUntil(sim.Millisecond)
	if resumed != deliveries+2 {
		t.Fatalf("%d callers resumed, want %d", resumed, deliveries+2)
	}
	for i := range deliveries + 2 {
		if ev, ok := port.RecvEvQ.TryRecv(); !ok || ev.MsgID != uint64(i) {
			t.Fatalf("event %d: %+v, %v", i, ev, ok)
		}
	}
}
