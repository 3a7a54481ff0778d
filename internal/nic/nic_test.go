package nic

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/fabric/myrinet"
	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/sim"
)

// rig is a test cluster, two nodes unless asked for more: fabric, host
// memories, NICs.
type rig struct {
	env   *sim.Env
	prof  *hw.Profile
	fab   *myrinet.Fabric
	mems  []*mem.Memory
	nics  []*NIC
	space []*mem.AddrSpace
}

func newRig(t *testing.T, cfg Config) *rig { return newRigOf(t, cfg, 2) }

func newRigOf(t *testing.T, cfg Config, nodes int) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	prof := hw.DAWNING3000()
	fab := myrinet.New(env, prof, nodes)
	r := &rig{env: env, prof: prof, fab: fab}
	for i := 0; i < nodes; i++ {
		m := mem.NewMemory(prof.PageSize)
		r.mems = append(r.mems, m)
		r.nics = append(r.nics, New(env, prof, cfg, i, fab.Attach(i), m))
		r.space = append(r.space, mem.NewAddrSpace(m))
	}
	return r
}

// assertDrained checks resource balance at quiesce on every NIC.
func (r *rig) assertDrained(t *testing.T) {
	t.Helper()
	for _, n := range r.nics {
		if err := n.Drained(); err != nil {
			t.Error(err)
		}
	}
}

// TestDrainedNamesEveryImbalance: each resource a quiescent card must
// not hold shows up in the one error, and giving it back clears it; a
// receive descriptor held by a posting is balanced, one out of every
// table is not.
func TestDrainedNamesEveryImbalance(t *testing.T) {
	r := newRig(t, bclConfig())
	n := r.nics[0]
	n.RegisterPort(1)
	if err := n.PostRecv(1, 1, n.GetRecvDesc()); err != nil {
		t.Fatal(err)
	}
	if err := n.Drained(); err != nil {
		t.Fatalf("a card holding only a posting: %v", err)
	}
	n.sram.TryAcquire(100)
	pkt := n.pool.Get(8)
	sd, rd := n.GetSendDesc(), n.GetRecvDesc()
	err := n.Drained()
	for _, want := range []string{"100 B of SRAM", "1 packet descriptors and 1 payloads", "1 send descriptors", "2 receive descriptors out for 1 postings"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Drained() = %v, want it to name %q", err, want)
		}
	}
	n.sram.Release(100)
	pkt.Release()
	n.putSendDesc(sd, true)
	n.putRecvDesc(rd)
	if err := n.Drained(); err != nil {
		t.Fatalf("after everything went back: %v", err)
	}
}

// evp keeps an event a test wants to look at after the run: nil still
// means "none arrived".
func evp(ev Event) *Event { return &ev }

// lend fills a descriptor from the card's free list with d and returns
// it, as the library posts its sends: the tests that post through it
// run the recycling too, poisoned.
func lend(n *NIC, d SendDesc) *SendDesc {
	p := n.GetSendDesc()
	d.owner = p.owner
	*p = d
	return p
}

// lendRecv is lend for a receive posting.
func lendRecv(n *NIC, d RecvDesc) *RecvDesc {
	p := n.GetRecvDesc()
	d.pooled = true
	*p = d
	return p
}

func bclConfig() Config {
	return Config{Translate: HostTranslated, Completion: UserEventQueue, Reliable: true}
}

// pinnedSegs allocates, fills, pins, and translates a buffer,
// returning its segments (standing in for the kernel's work).
func (r *rig) pinnedSegs(t *testing.T, node int, data []byte) (mem.VAddr, []mem.Segment) {
	t.Helper()
	n := len(data)
	if n == 0 {
		n = 1
	}
	va := r.space[node].Alloc(n)
	if err := r.space[node].Write(va, data); err != nil {
		t.Fatal(err)
	}
	segs, err := r.space[node].Segments(va, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		for off := 0; off == 0 || off < s.Len; off += r.prof.PageSize {
			if err := r.mems[node].PinFrame(s.Phys + mem.PAddr(off)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return va, segs
}

// recvBuf allocates and pins an empty receive buffer.
func (r *rig) recvBuf(t *testing.T, node, size int) (mem.VAddr, []mem.Segment) {
	t.Helper()
	return r.pinnedSegs(t, node, make([]byte, size))
}

func TestOneMessageEndToEnd(t *testing.T) {
	r := newRig(t, bclConfig())
	payload := []byte("the quick brown fox jumps over the lazy dog")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 4096)

	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva}); err != nil {
		t.Fatal(err)
	}

	var sendDone, recvDone *Event
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: r.nics[0].NextMsgID(), SrcPort: 1,
			DstNode: 1, DstPort: 2, Channel: 1, Len: len(payload),
			Tag: 77, Segs: sseg,
		}))
		sendDone = evp(sp.SendEvQ.Recv(p))
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		recvDone = evp(rp.RecvEvQ.Recv(p))
	})
	r.env.RunUntil(10 * sim.Millisecond)

	if recvDone == nil || recvDone.Type != EvRecvDone {
		t.Fatalf("recv event = %+v", recvDone)
	}
	if recvDone.Len != len(payload) || recvDone.Tag != 77 || recvDone.SrcNode != 0 || recvDone.SrcPort != 1 {
		t.Fatalf("recv event fields wrong: %+v", recvDone)
	}
	if sendDone == nil || sendDone.Type != EvSendDone {
		t.Fatalf("send event = %+v", sendDone)
	}
	got, err := r.space[1].Read(rva, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

func TestZeroLengthMessage(t *testing.T) {
	r := newRig(t, bclConfig())
	rva, rseg := r.recvBuf(t, 1, 4096)
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
	_, sseg := r.pinnedSegs(t, 0, []byte{0})

	var ev *Event
	var at sim.Time
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: 0, Segs: sseg[:0],
		}))
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		ev = evp(rp.RecvEvQ.Recv(p))
		at = p.Now()
	})
	r.env.RunUntil(sim.Millisecond)
	if ev == nil || ev.Len != 0 {
		t.Fatalf("zero-length event = %+v", ev)
	}
	// NIC-only path (no host send overhead in this test): roughly
	// MCPSendProc + wire + MCPRecvProc + event ≈ 10 µs.
	if at < 8*sim.Microsecond || at > 14*sim.Microsecond {
		t.Fatalf("0-length NIC latency = %v ns, want ~10 µs", at)
	}
}

func TestFragmentationLargeMessage(t *testing.T) {
	r := newRig(t, bclConfig())
	payload := make([]byte, 128*1024)
	r.env.Rand().Fill(payload)
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})

	var done sim.Time
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		rp.RecvEvQ.Recv(p)
		done = p.Now()
	})
	r.env.RunUntil(100 * sim.Millisecond)

	got, err := r.space[1].Read(rva, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("128 KB payload corrupted in transit")
	}
	st := r.nics[0].Stats()
	if st.PacketsSent < 32 {
		t.Fatalf("packets sent = %d, want >= 32 fragments", st.PacketsSent)
	}
	// Paper: ~898 µs for 128 KB. NIC-only path should land within 15%.
	if done < 800*sim.Microsecond || done > 1050*sim.Microsecond {
		t.Fatalf("128 KB transfer took %d µs, want ~900 µs", done/1000)
	}
}

func TestRetransmitOnDrop(t *testing.T) {
	r := newRig(t, bclConfig())
	r.fab.Install(fabric.Schedule{Rules: []fabric.Rule{{Every: 3, Do: fabric.Drop}}})
	payload := make([]byte, 40*1024)
	r.env.Rand().Fill(payload)
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})

	delivered := false
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		rp.RecvEvQ.Recv(p)
		delivered = true
	})
	r.env.RunUntil(sim.Second)
	if !delivered {
		t.Fatal("message never delivered despite retransmission")
	}
	got, _ := r.space[1].Read(rva, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted under loss")
	}
	if st := r.nics[0].Stats(); st.Retransmits == 0 {
		t.Fatal("no retransmissions recorded under 33% loss")
	}
	r.assertDrained(t)
}

func TestRetransmitOnCorruption(t *testing.T) {
	r := newRig(t, bclConfig())
	r.fab.Install(fabric.Schedule{Rules: []fabric.Rule{{Every: 4, Do: fabric.Corrupt}}})
	payload := make([]byte, 32*1024)
	r.env.Rand().Fill(payload)
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})

	ok := false
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	r.env.Go("receiver", func(p *sim.Proc) { rp.RecvEvQ.Recv(p); ok = true })
	r.env.RunUntil(sim.Second)
	if !ok {
		t.Fatal("message never delivered under corruption")
	}
	got, _ := r.space[1].Read(rva, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("corrupted data delivered: CRC failed to protect")
	}
	if st := r.nics[1].Stats(); st.CRCDrops == 0 {
		t.Fatal("no CRC drops recorded")
	}
	r.assertDrained(t)
}

func TestNackWhenChannelNotArmed(t *testing.T) {
	// Sender transmits before the receiver posts: the NIC NACKs and the
	// sender's go-back-N delivers once the buffer appears.
	r := newRig(t, bclConfig())
	payload := []byte("early bird")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 4096)
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)

	var deliveredAt sim.Time
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		p.Sleep(300 * sim.Microsecond) // post late
		if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva}); err != nil {
			t.Error(err)
		}
		rp.RecvEvQ.Recv(p)
		deliveredAt = p.Now()
	})
	r.env.RunUntil(sim.Second)
	if deliveredAt == 0 {
		t.Fatal("late-posted receive never completed")
	}
	if deliveredAt < 300*sim.Microsecond {
		t.Fatal("delivered before the buffer existed")
	}
	if st := r.nics[1].Stats(); st.NoBufferDrops == 0 {
		t.Fatal("expected no-buffer drops before posting")
	}
	got, _ := r.space[1].Read(rva, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after NACK recovery")
	}
}

func TestSendFailedAfterRetriesExhausted(t *testing.T) {
	r := newRig(t, Config{Translate: HostTranslated, Completion: UserEventQueue, Reliable: true, MaxRetries: 3})
	r.fab.Install(fabric.Schedule{Rules: []fabric.Rule{{P: 1, Do: fabric.Drop}}}) // black hole
	payload := []byte("doomed")
	_, sseg := r.pinnedSegs(t, 0, payload)
	sp := r.nics[0].RegisterPort(1)
	r.nics[1].RegisterPort(2)

	var ev *Event
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		ev = evp(sp.SendEvQ.Recv(p))
	})
	r.env.RunUntil(sim.Second)
	if ev == nil || ev.Type != EvSendFailed {
		t.Fatalf("send event = %+v, want EvSendFailed", ev)
	}
	r.assertDrained(t) // failFlow returned what the dead window held
}

func TestSystemChannelPool(t *testing.T) {
	r := newRig(t, bclConfig())
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	// Two pool buffers; three messages: the third must be NACKed until
	// a buffer is returned (here: never), so exactly two deliver.
	var bufs []mem.VAddr
	for i := 0; i < 2; i++ {
		va, segs := r.recvBuf(t, 1, 1024)
		bufs = append(bufs, va)
		r.nics[1].AddSystemBuffer(2, &RecvDesc{Len: 1024, Segs: segs, VA: va})
	}
	var events []*Event
	r.env.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			data := []byte(fmt.Sprintf("msg-%d", i))
			_, segs := r.pinnedSegs(t, 0, data)
			r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
				Kind: DescData, MsgID: uint64(i + 1), SrcPort: 1,
				DstNode: 1, DstPort: 2, Channel: 0, Len: len(data), Segs: segs,
			}))
		}
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		for {
			ev, ok := rp.RecvEvQ.RecvTimeout(p, 20*sim.Millisecond)
			if !ok {
				return
			}
			events = append(events, &ev)
		}
	})
	r.env.RunUntil(100 * sim.Millisecond)
	if len(events) != 2 {
		t.Fatalf("delivered %d system-channel messages, want 2 (pool exhausted)", len(events))
	}
	got, _ := r.space[1].Read(bufs[0], 5)
	if !bytes.Equal(got, []byte("msg-0")) {
		t.Fatalf("first pool buffer holds %q", got)
	}
}

// An oversized system-channel message is NACKed and retransmitted; no
// retry may take a buffer out of the pool, or unrelated traffic starves
// once the pool is empty.
func TestOversizeSystemMessageLeavesPoolIntact(t *testing.T) {
	cfg := bclConfig()
	cfg.MaxRetries = 4
	r := newRig(t, cfg)
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	var bufs []mem.VAddr
	for i := 0; i < 2; i++ {
		va, segs := r.recvBuf(t, 1, 64)
		bufs = append(bufs, va)
		r.nics[1].AddSystemBuffer(2, &RecvDesc{Len: 64, Segs: segs, VA: va})
	}
	send := func(p *sim.Proc, id uint64, data []byte) {
		_, segs := r.pinnedSegs(t, 0, data)
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: id, SrcPort: 1,
			DstNode: 1, DstPort: 2, Channel: 0, Len: len(data), Segs: segs,
		}))
	}
	var failed, fit *Event
	depthAfterOversize := -1
	r.env.Go("sender", func(p *sim.Proc) {
		send(p, 1, make([]byte, 200))
		failed = evp(sp.SendEvQ.Recv(p))
		depthAfterOversize = rp.system.Len()
		// Retry exhaustion declared the peer dead; a probe revives it.
		p.Sleep(2 * r.nics[0].prof.PeerProbeInterval)
		send(p, 2, []byte("fits"))
	})
	r.env.Go("receiver", func(p *sim.Proc) { fit = evp(rp.RecvEvQ.Recv(p)) })
	r.env.RunUntil(sim.Second)

	if failed == nil || failed.Type != EvSendFailed {
		t.Fatalf("oversize send event = %+v, want EvSendFailed", failed)
	}
	if drops := r.nics[1].Stats().NoBufferDrops; drops <= 2 {
		t.Fatalf("oversize message rejected %d times, want more arrivals than pool buffers", drops)
	}
	if depthAfterOversize != 2 {
		t.Fatalf("pool depth after the oversize arrivals = %d, want 2", depthAfterOversize)
	}
	if fit == nil || fit.Type != EvRecvDone || fit.VA != bufs[0] {
		t.Fatalf("fitting message event = %+v, want EvRecvDone into the first pool buffer", fit)
	}
	if got, _ := r.space[1].Read(bufs[0], 4); !bytes.Equal(got, []byte("fits")) {
		t.Fatalf("first pool buffer holds %q", got)
	}
}

func TestRMAWrite(t *testing.T) {
	r := newRig(t, bclConfig())
	r.nics[0].RegisterPort(1)
	r.nics[1].RegisterPort(2)
	rva, rseg := r.recvBuf(t, 1, 8192)
	r.nics[1].RegisterOpen(2, 5, &RecvDesc{Len: 8192, Segs: rseg, VA: rva})

	payload := []byte("one-sided write payload")
	_, sseg := r.pinnedSegs(t, 0, payload)
	sp, _ := r.nics[0].LookupPort(1)
	var ev *Event
	r.env.Go("initiator", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescRMAWrite, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 5, Len: len(payload), Offset: 1000, Segs: sseg,
		}))
		ev = evp(sp.SendEvQ.Recv(p))
	})
	r.env.RunUntil(10 * sim.Millisecond)
	if ev == nil || ev.Type != EvSendDone {
		t.Fatalf("RMA write completion = %+v", ev)
	}
	got, _ := r.space[1].Read(rva+1000, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("RMA write landed wrong")
	}
	// One-sided: the target process received no event.
	rp, _ := r.nics[1].LookupPort(2)
	if rp.RecvEvQ.Len() != 0 {
		t.Fatal("RMA write raised a receive event")
	}
}

func TestRMAWriteOutOfBoundsRejected(t *testing.T) {
	r := newRig(t, Config{Translate: HostTranslated, Completion: UserEventQueue, Reliable: true, MaxRetries: 2})
	sp := r.nics[0].RegisterPort(1)
	r.nics[1].RegisterPort(2)
	rva, rseg := r.recvBuf(t, 1, 4096)
	r.nics[1].RegisterOpen(2, 5, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
	payload := make([]byte, 2048)
	_, sseg := r.pinnedSegs(t, 0, payload)
	var ev *Event
	r.env.Go("initiator", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescRMAWrite, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 5, Len: len(payload), Offset: 3000, Segs: sseg, // 3000+2048 > 4096
		}))
		ev = evp(sp.SendEvQ.Recv(p))
	})
	r.env.RunUntil(sim.Second)
	if ev == nil || ev.Type != EvSendFailed {
		t.Fatalf("out-of-bounds RMA write event = %+v, want EvSendFailed", ev)
	}
}

func TestRMARead(t *testing.T) {
	r := newRig(t, bclConfig())
	r.nics[0].RegisterPort(1)
	r.nics[1].RegisterPort(2)
	// Target registers a buffer with known content.
	content := make([]byte, 8192)
	r.env.Rand().Fill(content)
	_, tseg := r.pinnedSegs(t, 1, content)
	tva := mem.VAddr(0)
	_ = tva
	r.nics[1].RegisterOpen(2, 5, &RecvDesc{Len: len(content), Segs: tseg})

	// Initiator posts a reply buffer on channel 9 and reads 3000 bytes
	// at offset 1234.
	rva, rseg := r.recvBuf(t, 0, 4096)
	r.nics[0].PostRecv(1, 9, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
	ip, _ := r.nics[0].LookupPort(1)
	var ev *Event
	r.env.Go("initiator", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescRMARead, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 5, Len: 3000, Offset: 1234, ReplyChannel: 9,
		}))
		ev = evp(ip.RecvEvQ.Recv(p))
	})
	r.env.RunUntil(10 * sim.Millisecond)
	if ev == nil || ev.Type != EvRecvDone || ev.Len != 3000 {
		t.Fatalf("RMA read completion = %+v", ev)
	}
	got, _ := r.space[0].Read(rva, 3000)
	if !bytes.Equal(got, content[1234:1234+3000]) {
		t.Fatal("RMA read returned wrong bytes")
	}
}

func TestUnreliableModeSkipsAcks(t *testing.T) {
	cfg := Config{Translate: HostTranslated, Completion: UserEventQueue, Reliable: false}
	r := newRig(t, cfg)
	payload := []byte("bip-style")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 4096)
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
	var sendEv, recvEv *Event
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		sendEv = evp(sp.SendEvQ.Recv(p))
	})
	r.env.Go("receiver", func(p *sim.Proc) { recvEv = evp(rp.RecvEvQ.Recv(p)) })
	r.env.RunUntil(10 * sim.Millisecond)
	if sendEv == nil || recvEv == nil {
		t.Fatal("events missing in unreliable mode")
	}
	// No ACK traffic: receiver sent zero packets.
	if st := r.nics[1].Stats(); st.PacketsSent != 0 {
		t.Fatalf("receiver sent %d packets in unreliable mode", st.PacketsSent)
	}
	// And a dropped packet is simply lost.
	r2 := newRig(t, cfg)
	r2.fab.Install(fabric.Schedule{Rules: []fabric.Rule{{Every: 1, Do: fabric.Drop}}})
	_, sseg2 := r2.pinnedSegs(t, 0, payload)
	rva2, rseg2 := r2.recvBuf(t, 1, 4096)
	r2.nics[0].RegisterPort(1)
	rp2 := r2.nics[1].RegisterPort(2)
	r2.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg2, VA: rva2})
	got := false
	r2.env.Go("sender", func(p *sim.Proc) {
		r2.nics[0].PostSend(p, lend(r2.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg2,
		}))
	})
	r2.env.Go("receiver", func(p *sim.Proc) {
		_, ok := rp2.RecvEvQ.RecvTimeout(p, 50*sim.Millisecond)
		got = ok
	})
	r2.env.RunUntil(100 * sim.Millisecond)
	if got {
		t.Fatal("unreliable mode recovered a dropped packet")
	}
}

// translatedPasses sends one buffer of pages pages twice from NIC 0 in
// NIC-translated mode, checking each delivery byte for byte, and returns
// the sending NIC's TLB misses in each pass.
func translatedPasses(t *testing.T, pages int) (first, second uint64) {
	t.Helper()
	cfg := Config{Translate: NICTranslated, Completion: UserEventQueue, Reliable: true}
	r := newRig(t, cfg)
	payload := make([]byte, pages*4096)
	r.env.Rand().Fill(payload)
	// User-level mode: the library registers (pins) memory itself.
	sva, _ := r.pinnedSegs(t, 0, payload)
	rva, _ := r.recvBuf(t, 1, len(payload))
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	var misses [2]uint64
	for pass := range misses {
		if err := r.space[1].Write(rva, make([]byte, len(payload))); err != nil {
			t.Fatal(err)
		}
		r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), VA: rva, Space: r.space[1]})
		before := r.nics[0].Stats().TLBMisses
		done := false
		r.env.Go("sender", func(p *sim.Proc) {
			r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
				Kind: DescData, MsgID: uint64(pass + 1), SrcPort: 1, DstNode: 1, DstPort: 2,
				Channel: 1, Len: len(payload), VA: sva, Space: r.space[0],
			}))
		})
		r.env.Go("receiver", func(p *sim.Proc) { rp.RecvEvQ.Recv(p); done = true })
		r.env.RunUntil(r.env.Now() + 100*sim.Millisecond)
		if !done {
			t.Fatalf("pass %d: NIC-translated message not delivered", pass+1)
		}
		got, _ := r.space[1].Read(rva, len(payload))
		if !bytes.Equal(got, payload) {
			t.Fatalf("pass %d: NIC-translated payload mismatch", pass+1)
		}
		misses[pass] = r.nics[0].Stats().TLBMisses - before
	}
	return misses[0], misses[1]
}

// TestNICTranslatedMode: a working set one page larger than the TLB
// thrashes its LRU, so the second pass over it misses on every page
// again, not only the cold first one.
func TestNICTranslatedMode(t *testing.T) {
	const pages = tlbEntries + 1
	first, second := translatedPasses(t, pages)
	if first < pages {
		t.Fatalf("TLB misses = %d on the first pass, want >= %d (one per page)", first, pages)
	}
	if second < pages {
		t.Fatalf("TLB misses = %d on the second pass, want >= %d: a working set past the TLB thrashes it", second, pages)
	}
}

// TestNICTranslatedWorkingSetFits is TestNICTranslatedMode's control: a
// working set the size of the TLB misses on its first pass only.
func TestNICTranslatedWorkingSetFits(t *testing.T) {
	first, second := translatedPasses(t, tlbEntries)
	if first < tlbEntries {
		t.Fatalf("TLB misses = %d on the first pass, want >= %d (one per page)", first, tlbEntries)
	}
	if second != 0 {
		t.Fatalf("TLB misses = %d on the second pass, want 0: the working set fits the TLB", second)
	}
}

func TestInterruptCompletionMode(t *testing.T) {
	cfg := Config{Translate: HostTranslated, Completion: Interrupt, Reliable: true}
	r := newRig(t, cfg)
	payload := []byte("irq")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 4096)
	r.nics[0].RegisterPort(1)
	r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
	var events []*Event
	r.nics[1].InterruptHandler = func(ev Event) { events = append(events, &ev) }
	r.nics[0].InterruptHandler = func(ev Event) { events = append(events, &ev) }
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	r.env.RunUntil(10 * sim.Millisecond)
	if len(events) != 2 { // one recv interrupt, one send-done interrupt
		t.Fatalf("interrupts = %d, want 2", len(events))
	}
	if st := r.nics[1].Stats(); st.Interrupts != 1 {
		t.Fatalf("receiver NIC interrupts = %d, want 1", st.Interrupts)
	}
}

func TestManyMessagesInterleavedPorts(t *testing.T) {
	r := newRig(t, bclConfig())
	const msgs = 20
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	type rx struct {
		va   mem.VAddr
		data []byte
	}
	var bufs []rx
	for i := 0; i < msgs; i++ {
		data := make([]byte, 100+i*37)
		r.env.Rand().Fill(data)
		va, segs := r.recvBuf(t, 1, len(data))
		r.nics[1].PostRecv(2, i+1, &RecvDesc{Len: len(data), Segs: segs, VA: va})
		bufs = append(bufs, rx{va: va, data: data})
	}
	r.env.Go("sender", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			_, segs := r.pinnedSegs(t, 0, bufs[i].data)
			r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
				Kind: DescData, MsgID: uint64(i + 1), SrcPort: 1,
				DstNode: 1, DstPort: 2, Channel: i + 1,
				Len: len(bufs[i].data), Segs: segs,
			}))
		}
	})
	count := 0
	r.env.Go("receiver", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			rp.RecvEvQ.Recv(p)
			count++
		}
	})
	r.env.RunUntil(sim.Second)
	if count != msgs {
		t.Fatalf("received %d of %d messages", count, msgs)
	}
	for i, b := range bufs {
		got, _ := r.space[1].Read(b.va, len(b.data))
		if !bytes.Equal(got, b.data) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestWindowBackpressure(t *testing.T) {
	// A tiny window against an unresponsive receiver (no port) forces
	// the send engine to block rather than spray the fabric.
	cfg := Config{Translate: HostTranslated, Completion: UserEventQueue, Reliable: true, Window: 2, MaxRetries: 100}
	r := newRig(t, cfg)
	payload := make([]byte, 64*1024) // 16 fragments
	_, sseg := r.pinnedSegs(t, 0, payload)
	r.nics[0].RegisterPort(1)
	// Destination port never registered: everything is NACKed.
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	r.env.RunUntil(5 * sim.Millisecond)
	st := r.nics[0].Stats()
	// With window 2, at most 2 distinct sequences are ever in flight;
	// everything else is retransmission of those two.
	if got := r.nics[0].tx.Get(1).NextSeq(); got > 2 {
		t.Fatalf("window violated: %d sequences issued", got)
	}
	_ = st
}

func TestDuplicateSuppression(t *testing.T) {
	// Drop ACKs so the sender retransmits data the receiver already
	// has; the receiver must not deliver twice.
	r := newRig(t, bclConfig())
	r.fab.SetFault(dropFirst(fabric.KindAck, 3))
	payload := []byte("once only")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 4096)
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
	deliveries := 0
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		for {
			if _, ok := rp.RecvEvQ.RecvTimeout(p, 10*sim.Millisecond); !ok {
				return
			}
			deliveries++
		}
	})
	r.env.RunUntil(sim.Second)
	if deliveries != 1 {
		t.Fatalf("message delivered %d times, want exactly once", deliveries)
	}
	if st := r.nics[1].Stats(); st.SeqDrops == 0 {
		t.Fatal("no duplicate drops recorded despite ACK loss")
	}
}

// Span labels are arguments to nil-safe tracer calls, so they are paid
// with tracing off too: they must be built once, not per span.
func TestWhereLabelIsPrecomputed(t *testing.T) {
	r := newRig(t, bclConfig())
	if got := r.nics[1].where(); got != "nic1" {
		t.Fatalf("where() = %q, want nic1", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = r.nics[1].where() }); n != 0 {
		t.Fatalf("where() allocates %v times per call", n)
	}
}

// dropFirst is a fault hook losing the first n packets of kind.
func dropFirst(kind fabric.PacketKind, n int) fabric.Fault {
	return func(_ *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if pkt.Kind != kind || n == 0 {
			return fabric.Deliver
		}
		n--
		return fabric.Drop
	}
}
