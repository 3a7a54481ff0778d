package nic

import (
	"bytes"
	"testing"
	"testing/quick"

	"bcl/internal/fabric"
	"bcl/internal/mem"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

func TestSRAMAccountingReturnsToZero(t *testing.T) {
	r := newRig(t, bclConfig())
	payload := make([]byte, 128*1024)
	r.env.Rand().Fill(payload)
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})
	r.env.Go("send", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		sp.SendEvQ.Recv(p)
	})
	r.env.Go("recv", func(p *sim.Proc) { rp.RecvEvQ.Recv(p) })
	r.env.RunUntil(100 * sim.Millisecond)
	// Every staged fragment, descriptor and payload must have been
	// released on ACK.
	r.assertDrained(t)
}

func TestCumulativeAckClearsWindow(t *testing.T) {
	// Drop several ACKs; a single later cumulative ACK must clear all
	// the earlier pending entries at once.
	r := newRig(t, bclConfig())
	r.fab.SetFault(dropFirst(fabric.KindAck, 4))
	payload := make([]byte, 24*1024) // 6 fragments
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})
	done := false
	r.env.Go("send", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		sp.SendEvQ.Recv(p)
		done = true
	})
	r.env.Go("recv", func(p *sim.Proc) { rp.RecvEvQ.Recv(p) })
	r.env.RunUntil(sim.Second)
	if !done {
		t.Fatal("send never completed despite cumulative ACKs")
	}
	if r.nics[0].tx.Get(1).Window().Len() != 0 {
		t.Fatalf("%d packets still unacked", r.nics[0].tx.Get(1).Window().Len())
	}
	// The dropped ACKs may or may not have caused retransmission
	// (timing); the invariant is full delivery with an empty window.
}

func TestRetransmitTimerRearmsAcrossMessages(t *testing.T) {
	// Black-hole only the FIRST data packet; everything after (including
	// the go-back-N recovery) flows. The message must still arrive.
	r := newRig(t, bclConfig())
	r.fab.SetFault(dropFirst(fabric.KindData, 1))
	payload := []byte("recovered by timer")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 4096)
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
	var at sim.Time
	r.env.Go("send", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	r.env.Go("recv", func(p *sim.Proc) {
		rp.RecvEvQ.Recv(p)
		at = p.Now()
	})
	r.env.RunUntil(sim.Second)
	if at == 0 {
		t.Fatal("message never recovered")
	}
	// Recovery needed at least one retransmit timeout (400 µs).
	if at < r.prof.RetransmitTimeout {
		t.Fatalf("recovered at %d, before the timer could fire", at)
	}
	got, _ := r.space[1].Read(rva, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload wrong after timer recovery")
	}
}

func TestSliceSegs(t *testing.T) {
	segs := []mem.Segment{
		{Phys: 1000, Len: 100},
		{Phys: 5000, Len: 50},
		{Phys: 9000, Len: 200},
	}
	cases := []struct {
		lo, ln  int
		wantLen int
		first   mem.PAddr
	}{
		{0, 350, 350, 1000},
		{0, 100, 100, 1000},
		{50, 100, 100, 1050},  // crosses into the second segment
		{100, 50, 50, 5000},   // exactly the second segment
		{120, 200, 200, 5020}, // second + part of third
		{349, 1, 1, 9199},
	}
	for _, c := range cases {
		out := sliceSegs(segs, c.lo, c.ln)
		total := 0
		for _, s := range out {
			total += s.Len
		}
		if total != c.wantLen {
			t.Errorf("slice(%d,%d) covers %d, want %d", c.lo, c.ln, total, c.wantLen)
		}
		if len(out) > 0 && out[0].Phys != c.first {
			t.Errorf("slice(%d,%d) starts at %#x, want %#x", c.lo, c.ln, int64(out[0].Phys), int64(c.first))
		}
	}
	if out := sliceSegs(nil, 0, 10); out != nil {
		t.Error("nil segs should slice to nil")
	}
}

// Property: sliceSegs covers exactly the requested range for arbitrary
// segment lists and windows.
func TestQuickSliceSegsCoverage(t *testing.T) {
	f := func(lens []uint8, loRaw, lnRaw uint16) bool {
		if len(lens) > 8 {
			lens = lens[:8]
		}
		var segs []mem.Segment
		total := 0
		phys := mem.PAddr(0x1000)
		for _, l := range lens {
			n := int(l%100) + 1
			segs = append(segs, mem.Segment{Phys: phys, Len: n})
			phys += mem.PAddr(n + 64) // gaps between segments
			total += n
		}
		if total == 0 {
			return true
		}
		lo := int(loRaw) % total
		ln := int(lnRaw) % (total - lo + 1)
		out := sliceSegs(segs, lo, ln)
		covered := 0
		for _, s := range out {
			if s.Len <= 0 {
				return false
			}
			covered += s.Len
		}
		return covered == ln
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowSequenceMonotonic(t *testing.T) {
	// Sequence numbers on the wire must be strictly increasing per
	// destination across messages and kinds.
	r := newRig(t, bclConfig())
	var seqs []uint64
	// A hook, not a Schedule: it observes every wire sequence number.
	r.fab.SetFault(func(env *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if pkt.Kind == fabric.KindData || pkt.Kind == fabric.KindRMAWrite {
			seqs = append(seqs, pkt.Seq)
		}
		return fabric.Deliver
	})
	_, sseg := r.pinnedSegs(t, 0, make([]byte, 10000))
	rva, rseg := r.recvBuf(t, 1, 16384)
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].RegisterOpen(2, 5, &RecvDesc{Len: 16384, Segs: rseg, VA: rva})
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 16384, Segs: rseg, VA: rva})
	r.env.Go("send", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescRMAWrite, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 5, Len: 10000, Segs: sseg,
		}))
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 2, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: 10000, Segs: sseg,
		}))
	})
	r.env.Go("recv", func(p *sim.Proc) { rp.RecvEvQ.Recv(p) })
	r.env.RunUntil(100 * sim.Millisecond)
	if len(seqs) < 6 {
		t.Fatalf("observed %d data packets", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("sequence gap at %d: %v", i, seqs)
		}
	}
}

// streamRig drives one message at a time from node 0 to node 1 over
// reused descriptors, so what a run allocates is what the NICs and the
// fabric allocate.
type streamRig struct {
	*rig
	one func() // send one message and run the simulation dry
}

func newStreamRig(t *testing.T, cfg Config, size int) *streamRig {
	t.Helper()
	r := newRig(t, cfg)
	_, sseg := r.pinnedSegs(t, 0, bytes.Repeat([]byte{0xa5}, size))
	rva, rseg := r.recvBuf(t, 1, size)
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	start := sim.NewQueue[int](r.env, "start", 0)
	rd := RecvDesc{Len: size, Segs: rseg, VA: rva}
	sd := SendDesc{Kind: DescData, SrcPort: 1, DstNode: 1, DstPort: 2, Channel: 1, Len: size, Segs: sseg}
	r.env.Go("sender", func(p *sim.Proc) {
		for {
			start.Recv(p)
			if err := r.nics[1].PostRecv(2, 1, lendRecv(r.nics[1], rd)); err != nil {
				panic(err)
			}
			sd.MsgID = r.nics[0].NextMsgID()
			r.nics[0].PostSend(p, lend(r.nics[0], sd))
			if ev := sp.SendEvQ.Recv(p); ev.Type != EvSendDone {
				panic("send failed")
			}
		}
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		for {
			rp.RecvEvQ.Recv(p)
		}
	})
	return &streamRig{rig: r, one: func() {
		start.Post(1)
		r.env.Run()
	}}
}

// TestFragmentSendAllocations holds the send -> ACK path to its steady
// state. A packet costs nothing: a 32-fragment message allocates what a
// one-fragment message does. And a message costs nothing either: its
// descriptors come off the card's free lists and go back, its two
// completion events travel by value.
func TestFragmentSendAllocations(t *testing.T) {
	perMsg := func(size int) float64 {
		s := newStreamRig(t, bclConfig(), size)
		defer s.env.Close()
		for i := 0; i < 2*DoneRing; i++ { // warm pools, free lists and the done-ring
			s.one()
		}
		return testing.AllocsPerRun(100, s.one)
	}
	one, many := perMsg(4096), perMsg(32*4096)
	t.Logf("allocs per message: 1 fragment %.2f, 32 fragments %.2f", one, many)
	if one != 0 {
		t.Fatalf("a 4 KB message allocates %.2f objects, want 0", one)
	}
	if many > one {
		t.Fatalf("31 more fragments allocate %.2f more objects, want 0", many-one)
	}
}

// TestReplayOrderStaysBounded: the flow's replay order lists messages in
// flight, not every message ever sent — it used to grow by one id per
// message for the life of the flow.
func TestReplayOrderStaysBounded(t *testing.T) {
	s := newStreamRig(t, bclConfig(), 64)
	defer s.env.Close()
	for i := 0; i < 10000; i++ {
		s.one()
	}
	f := s.nics[0].tx.Get(1)
	if got := s.nics[1].Stats().MsgsReceived; got != 10000 {
		t.Fatalf("%d messages delivered, want 10000", got)
	}
	if f.Flights().Len() != 0 {
		t.Fatalf("after 10000 acked messages: %d entries in the replay order", f.Flights().Len())
	}
	s.assertDrained(t)
}

// TestRetiredSendsLeaveTheReplayOrder: a message retires out of its
// flow's replay order at once, wherever it stands. One send stays stuck
// toward a dead peer, in its retry ladder for the whole run, while 10 000
// sends to another node retire four in flight at a time: each flow's
// ring ends holding only its live messages, in no more than twice the
// slots they ever needed. (A ring that kept retired entries behind a
// live head, or anywhere, until something compacted it grew by one slot
// a message here.)
func TestRetiredSendsLeaveTheReplayOrder(t *testing.T) {
	cfg := bclConfig()
	cfg.MaxRetries = 1 << 30
	r := newRigOf(t, cfg, 3)
	n := r.nics[0]
	peak := 0
	// A hook, not a Schedule: it reads NIC internals (the flow's depth).
	r.fab.SetFault(func(_ *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if f := n.tx.Get(2); f != nil {
			peak = max(peak, f.Flights().Len())
		}
		if pkt.Dst == 1 {
			return fabric.Drop
		}
		return fabric.Deliver
	})
	const msgs, outstanding, bufs = 10000, 4, 8
	_, sseg := r.pinnedSegs(t, 0, make([]byte, 64))
	sp := n.RegisterPort(1)
	r.nics[1].RegisterPort(2)
	rp := r.nics[2].RegisterPort(2)
	segs := map[mem.VAddr][]mem.Segment{}
	for i := 0; i < bufs; i++ {
		va, seg := r.recvBuf(t, 2, 64)
		segs[va] = seg
		if err := r.nics[2].AddSystemBuffer(2, lendRecv(r.nics[2], RecvDesc{Len: 64, Segs: seg, VA: va})); err != nil {
			t.Fatal(err)
		}
	}
	send := func(p *sim.Proc, dst int) {
		n.PostSend(p, lend(n, SendDesc{
			Kind: DescData, MsgID: n.NextMsgID(), SrcPort: 1, DstNode: dst, DstPort: 2, Len: 64, Segs: sseg,
		}))
	}
	done := 0
	r.env.Go("sender", func(p *sim.Proc) {
		send(p, 1)
		for i := 0; i < msgs; i++ {
			if i >= outstanding {
				sp.SendEvQ.Recv(p)
			}
			send(p, 2)
		}
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		for ; done < msgs; done++ {
			ev := rp.RecvEvQ.Recv(p)
			if err := r.nics[2].AddSystemBuffer(2, lendRecv(r.nics[2], RecvDesc{Len: 64, Segs: segs[ev.VA], VA: ev.VA})); err != nil {
				t.Error(err)
			}
		}
	})
	r.env.RunUntil(sim.Second)
	if done != msgs || n.PeerHealth(1) == PeerDead {
		t.Fatalf("%d of %d messages delivered, peer 1 %v: want all, and the stuck send still retrying", done, msgs, n.PeerHealth(1))
	}
	stuck, live := n.tx.Get(1), n.tx.Get(2)
	if stuck.Flights().Len() != 1 || live.Flights().Len() != 0 {
		t.Fatalf("replay orders hold %d and %d messages, want the stuck one and none", stuck.Flights().Len(), live.Flights().Len())
	}
	if c := live.Flights().Cap(); peak < 2 || c > 2*peak {
		t.Fatalf("the replay order toward the live peer has %d slots for at most %d messages in flight", c, peak)
	}
	r.env.Close()
}

// TestFaultHookNeverTouchesRetainedPayload: a hook that scribbles over
// every data packet it sees (the bcl/faults_test.go kind, only nastier)
// gets a private copy from the fabric, so the bytes the sender retains
// for retransmission — the same buffer the wire clone referenced — stay
// pristine and the message still arrives byte-exact once the hook
// relents.
func TestFaultHookNeverTouchesRetainedPayload(t *testing.T) {
	r := newRig(t, bclConfig())
	payload := make([]byte, 24*1024) // 6 fragments
	r.env.Rand().Fill(payload)
	scribbled, checked := 0, 0
	// A hook, not a Schedule: it reads NIC internals (retained fragments).
	r.fab.SetFault(func(_ *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if pkt.Kind != fabric.KindData || scribbled >= 40 {
			return fabric.Deliver
		}
		scribbled++
		for i := range pkt.Payload {
			pkt.Payload[i] ^= 0xff
		}
		window := r.nics[0].tx.Get(1).Window()
		for i := 0; i < window.Len(); i++ {
			kept := window.At(i).P.pkt
			if !bytes.Equal(kept.Payload, payload[kept.Offset:kept.Offset+len(kept.Payload)]) {
				t.Errorf("retained fragment at offset %d changed under the fault hook", kept.Offset)
			}
			checked++
		}
		return fabric.Deliver
	})
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	sp := r.nics[0].RegisterPort(1)
	r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})
	done := false
	r.env.Go("send", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		done = sp.SendEvQ.Recv(p).Type == EvSendDone
	})
	r.env.RunUntil(sim.Second)
	if !done {
		t.Fatal("send never completed after the hook relented")
	}
	if scribbled != 40 || checked == 0 {
		t.Fatalf("hook scribbled on %d packets and checked %d retained fragments", scribbled, checked)
	}
	if st := r.nics[1].Stats(); st.CRCDrops == 0 {
		t.Fatal("receiver saw no corrupted packet")
	}
	if got, _ := r.space[1].Read(rva, len(payload)); !bytes.Equal(got, payload) {
		t.Fatal("delivered bytes differ from the sender's")
	}
	r.assertDrained(t)
}

// The msg_latency_ns series is looked up once and kept, not hashed per
// message — and still made by the first message delivered, not by
// SetObs: a NIC that received nothing adds no empty series to a
// snapshot (the counter digests of the committed baselines depend on
// that). SetObs drops the kept series with the bundle it came from.
func TestLatencyHistogramMadeByFirstMessage(t *testing.T) {
	s := newStreamRig(t, bclConfig(), 64)
	defer s.env.Close()
	latency := func(o *obs.Obs) uint64 {
		for _, h := range o.Snapshot(s.env.Now()).Hists {
			if h.Node == 1 && h.Layer == "nic" && h.Name == "msg_latency_ns" {
				return h.Count
			}
		}
		return 0
	}
	a, b := obs.New(), obs.New()
	s.one() // moves the clock off zero: a message born at time 0 counts as unstamped
	s.nics[1].SetObs(a)
	if n := len(a.Snapshot(0).Hists); n != 0 {
		t.Fatalf("%d histograms before any message, want 0", n)
	}
	s.one()
	s.one()
	s.nics[1].SetObs(b)
	if n := len(b.Snapshot(s.env.Now()).Hists); n != 0 {
		t.Fatalf("%d histograms in the second registry before any message, want 0", n)
	}
	s.one()
	if latency(a) != 2 || latency(b) != 1 {
		t.Fatalf("msg_latency_ns counts %d and %d, want 2 and 1", latency(a), latency(b))
	}
	s.nics[1].SetObs(nil)
	s.one()
	if latency(a) != 2 || latency(b) != 1 {
		t.Fatalf("msg_latency_ns counts %d and %d after SetObs(nil), want 2 and 1", latency(a), latency(b))
	}
}

// TestFetchWaitsForSRAM: with SRAM for two fragments, the fetch engine
// stages a fragment only once an ACK has freed the space a sent one
// held, and the message still arrives whole.
func TestFetchWaitsForSRAM(t *testing.T) {
	r := newRig(t, bclConfig())
	n := r.nics[0]
	n.sram = sim.NewResource(r.env, "sram0", 2*r.prof.MaxPacket)
	payload := make([]byte, 8*r.prof.MaxPacket)
	r.env.Rand().Fill(payload)
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	n.RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})
	r.env.Go("send", func(p *sim.Proc) {
		n.PostSend(p, lend(n, SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	var got *Event
	r.env.Go("recv", func(p *sim.Proc) { got = evp(rp.RecvEvQ.Recv(p)) })
	r.env.RunUntil(100 * sim.Millisecond)
	if got == nil || got.Len != len(payload) {
		t.Fatalf("receive event %+v, want one of %d bytes", got, len(payload))
	}
	if b, _ := r.space[1].Read(rva, len(payload)); !bytes.Equal(b, payload) {
		t.Fatal("payload mismatch")
	}
	if _, wait, _ := n.sram.Stats(); wait == 0 {
		t.Fatal("the fetch engine never waited for SRAM")
	}
	r.assertDrained(t)
}

// TestWindowWaitVoidedByReboot: a fragment waiting for window space when
// the firmware reboots belongs to the dead boot epoch; it gives back its
// SRAM and packet, and so do the fragments staged behind it.
func TestWindowWaitVoidedByReboot(t *testing.T) {
	cfg := bclConfig()
	cfg.Window = 2
	r := newRig(t, cfg)
	n := r.nics[0]
	payload := make([]byte, 6*r.prof.MaxPacket)
	_, sseg := r.pinnedSegs(t, 0, payload)
	n.RegisterPort(1)
	r.nics[1].CrashFirmware() // nothing is ACKed: the window fills
	r.env.Go("send", func(p *sim.Proc) {
		n.PostSend(p, &SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		})
	})
	r.env.RunUntil(sim.Millisecond)
	if !n.flowTo(1).Full() || len(n.idleTms) != transmissions-1 {
		t.Fatalf("window full %v, %d of %d transmissions idle; want a full window and one waiting",
			n.flowTo(1).Full(), len(n.idleTms), transmissions)
	}
	n.CrashFirmware()
	n.BeginReboot()
	n.FinishReboot()
	r.env.RunUntil(2 * sim.Millisecond)
	if len(n.idleTms) != transmissions {
		t.Fatalf("%d of %d transmissions idle after the reboot", len(n.idleTms), transmissions)
	}
	if b := n.sram.InUse(); b != 0 {
		t.Fatalf("%d B of SRAM held after the reboot", b)
	}
	if d, b := n.pool.InUse(); d != 0 || b != 0 {
		t.Fatalf("%d packet descriptors and %d payloads out after the reboot", d, b)
	}
}
