package nic

import (
	"bytes"
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/sim"
)

// TestDuplicateDeliveredExactlyOnce injects fabric-level duplication
// (every 2nd data packet arrives twice) and demands the go-back-N
// receiver deliver the message exactly once, discarding the copies.
func TestDuplicateDeliveredExactlyOnce(t *testing.T) {
	r := newRig(t, bclConfig())
	r.fab.Install(fabric.Schedule{Rules: []fabric.Rule{{Every: 2, Do: fabric.Duplicate}}})
	payload := make([]byte, 20*1024) // 5 fragments
	r.env.Rand().Fill(payload)
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})
	sendOK := false
	r.env.Go("send", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		sendOK = sp.SendEvQ.Recv(p).Type == EvSendDone
	})
	deliveries := 0
	r.env.Go("recv", func(p *sim.Proc) {
		for {
			if _, ok := rp.RecvEvQ.RecvTimeout(p, 10*sim.Millisecond); !ok {
				return
			}
			deliveries++
		}
	})
	r.env.RunUntil(sim.Second)
	if !sendOK {
		t.Fatal("send did not complete under duplication")
	}
	if deliveries != 1 {
		t.Fatalf("message delivered %d times, want exactly once", deliveries)
	}
	var dup uint64
	r.fab.Collect(func(_ int, _, name string, v uint64) {
		if name == "duplicated" {
			dup = v
		}
	})
	if dup == 0 {
		t.Fatal("fault hook duplicated nothing")
	}
	if st := r.nics[1].Stats(); st.SeqDrops == 0 {
		t.Fatal("receiver recorded no duplicate discards")
	}
	got, _ := r.space[1].Read(rva, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted under duplication")
	}
	r.assertDrained(t)
}

// TestRetransmitBackoffEscalates blackholes all data packets and
// checks the gaps between successive retransmission attempts grow
// (exponential backoff) and are jittered deterministically.
func TestRetransmitBackoffEscalates(t *testing.T) {
	cfg := bclConfig()
	cfg.MaxRetries = 4
	r := newRig(t, cfg)
	var attempts []sim.Time
	// A hook, not a Schedule: it observes when each attempt left.
	r.fab.SetFault(func(env *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if pkt.Kind == fabric.KindData {
			attempts = append(attempts, env.Now())
			return fabric.Drop
		}
		return fabric.Deliver
	})
	payload := []byte("never arrives")
	_, sseg := r.pinnedSegs(t, 0, payload)
	sp := r.nics[0].RegisterPort(1)
	r.nics[1].RegisterPort(2)
	var failed *Event
	r.env.Go("send", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		failed = evp(sp.SendEvQ.Recv(p))
	})
	r.env.RunUntil(sim.Second)
	if failed == nil || failed.Type != EvSendFailed {
		t.Fatalf("send event = %+v, want SEND-FAILED", failed)
	}
	// Initial attempt + MaxRetries retransmission rounds.
	if len(attempts) != 5 {
		t.Fatalf("observed %d transmission attempts, want 5", len(attempts))
	}
	base := r.prof.RetransmitTimeout
	prev := attempts[1] - attempts[0]
	if prev < base {
		t.Fatalf("first retransmit gap %d below base timeout %d", prev, base)
	}
	for i := 2; i < len(attempts); i++ {
		gap := attempts[i] - attempts[i-1]
		if gap <= prev {
			t.Fatalf("gap %d (%d ns) did not escalate over %d ns", i, gap, prev)
		}
		prev = gap
	}
	st := r.nics[0].Stats()
	if st.Backoffs == 0 {
		t.Fatal("no backoffs counted")
	}
	if st.SendFailures == 0 {
		t.Fatal("no send failure counted")
	}
}

// TestPeerHealthLifecycle walks the full state machine: an outage
// kills a send (peer Dead), the next send fails fast instead of
// burning retries, probes re-admit the peer after the outage, and a
// post-recovery transfer is byte-identical.
func TestPeerHealthLifecycle(t *testing.T) {
	cfg := bclConfig()
	cfg.MaxRetries = 3
	r := newRig(t, cfg)
	const outageEnd = 20 * sim.Millisecond
	r.fab.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, To: outageEnd}}})

	payload := []byte("after the storm")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 4096)
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)

	var firstFail, fastFail *Event
	var fastFailElapsed sim.Time
	var healthAfterFail PeerHealth
	var recoveredAt sim.Time
	recvOK := false
	r.env.Go("driver", func(p *sim.Proc) {
		// 1. Send into the outage: retry exhaustion must fail it.
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		firstFail = evp(sp.SendEvQ.Recv(p))
		healthAfterFail = r.nics[0].PeerHealth(1)

		// 2. Second send must fail fast, not burn another ladder.
		t0 := p.Now()
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 2, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		fastFail = evp(sp.SendEvQ.Recv(p))
		fastFailElapsed = p.Now() - t0

		// 3. Wait for probe-driven recovery.
		for !r.nics[0].PeerHealthy(1) {
			p.Sleep(100 * sim.Microsecond)
		}
		recoveredAt = p.Now()

		// 4. Post-recovery transfer must arrive byte-identical.
		r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 3, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
		if ev := sp.SendEvQ.Recv(p); ev.Type != EvSendDone {
			t.Errorf("post-recovery send event %v", ev.Type)
		}
	})
	r.env.Go("recv", func(p *sim.Proc) {
		if ev := rp.RecvEvQ.Recv(p); ev.Type == EvRecvDone {
			recvOK = true
		}
	})
	r.env.RunUntil(sim.Second)

	if firstFail == nil || firstFail.Type != EvSendFailed {
		t.Fatalf("first send event = %+v, want SEND-FAILED", firstFail)
	}
	if healthAfterFail != PeerDead && healthAfterFail != PeerProbing {
		t.Fatalf("peer health after exhaustion = %v, want DEAD/PROBING", healthAfterFail)
	}
	if fastFail == nil || fastFail.Type != EvSendFailed {
		t.Fatalf("second send event = %+v, want SEND-FAILED", fastFail)
	}
	if fastFailElapsed >= r.prof.RetransmitTimeout {
		t.Fatalf("fail-fast took %d ns, slower than one retransmit timeout", fastFailElapsed)
	}
	if recoveredAt <= outageEnd {
		t.Fatalf("recovered at %d, before the outage ended", recoveredAt)
	}
	if !recvOK {
		t.Fatal("post-recovery message never delivered")
	}
	got, _ := r.space[1].Read(rva, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("post-recovery payload corrupted")
	}
	st := r.nics[0].Stats()
	if st.PeerDeaths == 0 || st.PeerRecoveries == 0 || st.Probes == 0 || st.FastFails == 0 {
		t.Fatalf("lifecycle counters: %+v", st)
	}
	if r.nics[0].PeerHealth(1) != PeerUp {
		t.Fatalf("final health %v, want UP", r.nics[0].PeerHealth(1))
	}
}

// TestFailedSendKeepsItsDescriptor: a message abandoned by retry
// exhaustion while its later fragments are still coming down the send
// pipeline is retired — the descriptor no longer counts as in use —
// but its descriptor must not go round again, because those fragments
// still read it. The free list poisons what it takes back and the
// injector panics on poison, so handing this one back fails here.
func TestFailedSendKeepsItsDescriptor(t *testing.T) {
	cfg := bclConfig()
	cfg.MaxRetries = 2
	r := newRig(t, cfg)
	// A hook, not a Schedule: no other caller filters on a message id.
	r.fab.SetFault(func(env *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if pkt.Kind == fabric.KindData && pkt.MsgID == 1 {
			return fabric.Drop
		}
		return fabric.Deliver
	})
	big := make([]byte, (r.nics[0].cfg.Window+8)*r.prof.MaxPacket) // the window fills with fragments still to fetch
	_, bseg := r.pinnedSegs(t, 0, big)
	_, sseg := r.pinnedSegs(t, 0, []byte("small"))
	rva, rseg := r.recvBuf(t, 1, 4096)
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	var events []EventType
	r.env.Go("send", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(big), Segs: bseg,
		}))
		events = append(events, sp.SendEvQ.Recv(p).Type)
		// Once probes have re-admitted the peer, the failed message has
		// left nothing behind, and a second message takes a descriptor:
		// not the failed one.
		for !r.nics[0].PeerHealthy(1) {
			p.Sleep(sim.Millisecond)
		}
		if err := r.nics[0].Drained(); err != nil {
			t.Errorf("after the only message failed: %v", err)
		}
		if err := r.nics[1].PostRecv(2, 1, lendRecv(r.nics[1], RecvDesc{Len: 4096, Segs: rseg, VA: rva})); err != nil {
			t.Error(err)
		}
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: 2, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: 5, Segs: sseg,
		}))
		events = append(events, sp.SendEvQ.Recv(p).Type)
	})
	r.env.Go("recv", func(p *sim.Proc) { rp.RecvEvQ.Recv(p) })
	r.env.RunUntil(sim.Second)
	if len(events) != 2 || events[0] != EvSendFailed || events[1] != EvSendDone {
		t.Fatalf("send events = %v, want [SEND-FAILED SEND]", events)
	}
	if got, _ := r.space[1].Read(rva, 5); string(got) != "small" {
		t.Fatalf("second message delivered %q", got)
	}
	r.assertDrained(t)
}
