package nic

import (
	"bytes"
	"fmt"
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/mem"
	"bcl/internal/nic/coll"
	"bcl/internal/sim"
)

// testJournal is a rig-level stand-in for the kernel's NIC shadow: it
// records just enough to drive a manual recovery replay in tests. The
// card journals only what it does on its own; a test playing the
// kernel journals its sends itself (postJournaled).
type testJournal struct {
	sends   []*SendDesc
	sendIdx map[uint64]int
	retired map[uint64]bool
	rxDone  map[int][]uint64
}

func newTestJournal() *testJournal {
	return &testJournal{
		sendIdx: make(map[uint64]int),
		retired: make(map[uint64]bool),
		rxDone:  make(map[int][]uint64),
	}
}

func (j *testJournal) SendPosted(d *SendDesc) {
	j.sendIdx[d.MsgID] = len(j.sends)
	j.sends = append(j.sends, d)
}
func (j *testJournal) SendRetired(msgID uint64)       { j.retired[msgID] = true }
func (j *testJournal) RecvConsumed(port, ch int)      {}
func (j *testJournal) SysConsumed(p int, v mem.VAddr) {}
func (j *testJournal) MsgDone(src int, msgID uint64) {
	j.rxDone[src] = append(j.rxDone[src], msgID)
}

// postJournaled posts d and journals it, as the kernel's PostSend
// command does.
func postJournaled(p *sim.Proc, n *NIC, d *SendDesc) {
	n.PostSend(p, d)
	n.Journal.SendPosted(d)
}

// TestReceiverCrashRecoveryLargeMessage crashes the receiver's firmware
// in the middle of a fragmented transfer. After a manual kernel-style
// recovery (reboot, replay the port and the receive posting) the epoch
// protocol must rewind the sender and redeliver the message exactly
// once, byte-identical.
func TestReceiverCrashRecoveryLargeMessage(t *testing.T) {
	r := newRig(t, bclConfig())
	payload := make([]byte, 128*1024)
	r.env.Rand().Fill(payload)
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva}); err != nil {
		t.Fatal(err)
	}

	// Crash mid-transfer (a 128 KiB message needs ~800 µs of wire time),
	// then recover as the kernel watchdog would: reboot, reprogram the
	// port, re-arm the unconsumed posting, come back under a new epoch.
	r.nics[1].CrashAt(300 * sim.Microsecond)
	r.env.At(800*sim.Microsecond, func() {
		r.nics[1].BeginReboot()
		r.nics[1].ReprogramPort(2, 1)
		if err := r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva}); err != nil {
			t.Errorf("replay PostRecv: %v", err)
		}
		r.nics[1].FinishReboot()
	})

	sendEvents, recvEvents := 0, 0
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: r.nics[0].NextMsgID(), SrcPort: 1,
			DstNode: 1, DstPort: 2, Channel: 1, Len: len(payload), Segs: sseg,
		}))
		for {
			ev := sp.SendEvQ.Recv(p)
			if ev.Type == EvSendFailed {
				t.Errorf("send failed: %+v", ev)
			}
			sendEvents++
		}
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		for {
			rp.RecvEvQ.Recv(p)
			recvEvents++
		}
	})
	r.env.RunUntil(100 * sim.Millisecond)

	if recvEvents != 1 {
		t.Fatalf("receive completions = %d, want exactly 1", recvEvents)
	}
	if sendEvents != 1 {
		t.Fatalf("send completions = %d, want exactly 1", sendEvents)
	}
	got, _ := r.space[1].Read(rva, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload not byte-identical after crash recovery")
	}
	rst := r.nics[1].Stats()
	if rst.FwCrashes != 1 || rst.NICReboots != 1 {
		t.Fatalf("crash/reboot counts = %d/%d, want 1/1", rst.FwCrashes, rst.NICReboots)
	}
	if rst.ResyncsSent == 0 {
		t.Fatal("rebooted receiver never requested a resync")
	}
	if sst := r.nics[0].Stats(); sst.ResyncRewinds == 0 {
		t.Fatal("sender never rewound its flow")
	}
	r.assertDrained(t)
}

// TestDoneRingSwallowsReplayAfterCrash covers the nastiest exactly-once
// corner: the receiver delivers a message to the host, crashes before
// the sender sees the ACK, and the sender's post-recovery rewind
// replays the message. The journal-restored done-ring must swallow the
// duplicate while still acknowledging it.
func TestDoneRingSwallowsReplayAfterCrash(t *testing.T) {
	r := newRig(t, bclConfig())
	j := newTestJournal()
	r.nics[1].Journal = j

	// Lose every ACK from the receiver until recovery time, so the
	// delivery completes at the host but the sender keeps retransmitting.
	dropAcks := true
	// A hook, not a Schedule: recovery switches it off mid-run.
	r.fab.SetFault(func(env *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if dropAcks && pkt.Kind == fabric.KindAck && pkt.Src == 1 {
			return fabric.Drop
		}
		return fabric.Deliver
	})

	payload := []byte("delivered exactly once, even across a reboot")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 4096)
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})

	r.nics[1].CrashAt(2 * sim.Millisecond)
	r.env.At(4*sim.Millisecond, func() {
		dropAcks = false
		r.nics[1].BeginReboot()
		r.nics[1].ReprogramPort(2, 1)
		// The posting was consumed pre-crash; only the done-ring is
		// replayed. No receive buffer must be needed to swallow a dup.
		r.nics[1].RestoreRxDone(0, j.rxDone[0])
		r.nics[1].FinishReboot()
	})

	sendEvents, recvEvents := 0, 0
	r.env.Go("sender", func(p *sim.Proc) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: r.nics[0].NextMsgID(), SrcPort: 1,
			DstNode: 1, DstPort: 2, Channel: 1, Len: len(payload), Segs: sseg,
		}))
		for {
			ev := sp.SendEvQ.Recv(p)
			if ev.Type == EvSendFailed {
				t.Errorf("send failed: %+v", ev)
			}
			sendEvents++
		}
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		for {
			rp.RecvEvQ.Recv(p)
			recvEvents++
		}
	})
	r.env.RunUntil(100 * sim.Millisecond)

	if recvEvents != 1 {
		t.Fatalf("receive completions = %d, want exactly 1 (duplicate leaked?)", recvEvents)
	}
	if sendEvents != 1 {
		t.Fatalf("send completions = %d, want exactly 1", sendEvents)
	}
	if st := r.nics[1].Stats(); st.DupMsgDrops == 0 {
		t.Fatal("done-ring never swallowed the replayed message")
	}
	got, _ := r.space[1].Read(rva, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
}

// TestSenderCrashJournalReplay crashes the SENDER mid-transfer and
// replays its journaled, unretired sends — the kernel-journal half of
// recovery. The receiver sees a fresh epoch, resets its flow, and the
// message completes exactly once.
func TestSenderCrashJournalReplay(t *testing.T) {
	r := newRig(t, bclConfig())
	j := newTestJournal()
	r.nics[0].Journal = j

	payload := make([]byte, 64*1024)
	r.env.Rand().Fill(payload)
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)
	r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})

	r.nics[0].CrashAt(200 * sim.Microsecond)
	r.env.At(700*sim.Microsecond, func() {
		r.nics[0].BeginReboot()
		r.nics[0].ReprogramPort(1, 1)
		for _, d := range j.sends {
			if !j.retired[d.MsgID] {
				r.nics[0].RepostSend(d)
			}
		}
		r.nics[0].FinishReboot()
	})

	sendEvents, recvEvents := 0, 0
	r.env.Go("sender", func(p *sim.Proc) {
		postJournaled(p, r.nics[0], lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: r.nics[0].NextMsgID(), SrcPort: 1,
			DstNode: 1, DstPort: 2, Channel: 1, Len: len(payload), Segs: sseg,
		}))
		for {
			ev := sp.SendEvQ.Recv(p)
			if ev.Type == EvSendFailed {
				t.Errorf("send failed: %+v", ev)
			}
			sendEvents++
		}
	})
	r.env.Go("receiver", func(p *sim.Proc) {
		for {
			rp.RecvEvQ.Recv(p)
			recvEvents++
		}
	})
	r.env.RunUntil(100 * sim.Millisecond)

	if recvEvents != 1 {
		t.Fatalf("receive completions = %d, want exactly 1", recvEvents)
	}
	if sendEvents != 1 {
		t.Fatalf("send completions = %d, want exactly 1", sendEvents)
	}
	got, _ := r.space[1].Read(rva, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload not byte-identical after sender crash replay")
	}
	if st := r.nics[1].Stats(); st.EpochResets == 0 {
		t.Fatal("receiver never reset the flow for the sender's new epoch")
	}
	r.assertDrained(t)
}

// TestAdaptiveRTOSamplesAndAdapts checks the opt-in Jacobson estimator:
// clean transfers produce RTT samples and adapted timer arms, while the
// default configuration takes none (fixed ladder preserved).
func TestAdaptiveRTOSamplesAndAdapts(t *testing.T) {
	cfg := bclConfig()
	cfg.AdaptiveRTO = true
	r := newRig(t, cfg)
	payload := make([]byte, 16*1024)
	r.env.Rand().Fill(payload)
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, len(payload))
	r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)

	got := 0
	r.env.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg, VA: rva})
			r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
				Kind: DescData, MsgID: r.nics[0].NextMsgID(), SrcPort: 1,
				DstNode: 1, DstPort: 2, Channel: 1, Len: len(payload), Segs: sseg,
			}))
			rp.RecvEvQ.Recv(p)
			got++
		}
	})
	r.env.RunUntil(50 * sim.Millisecond)
	if got != 5 {
		t.Fatalf("delivered %d of 5", got)
	}
	st := r.nics[0].Stats()
	if st.RTTSamples == 0 {
		t.Fatal("adaptive RTO took no RTT samples")
	}
	if st.RTOAdapted == 0 {
		t.Fatal("no retransmit timer was armed from the estimator")
	}

	// Default config: estimator off, no samples.
	r2 := newRig(t, bclConfig())
	_, sseg2 := r2.pinnedSegs(t, 0, payload)
	rva2, rseg2 := r2.recvBuf(t, 1, len(payload))
	r2.nics[0].RegisterPort(1)
	rp2 := r2.nics[1].RegisterPort(2)
	r2.nics[1].PostRecv(2, 1, &RecvDesc{Len: len(payload), Segs: rseg2, VA: rva2})
	r2.env.Go("driver", func(p *sim.Proc) {
		r2.nics[0].PostSend(p, lend(r2.nics[0], SendDesc{
			Kind: DescData, MsgID: 1, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg2,
		}))
		rp2.RecvEvQ.Recv(p)
	})
	r2.env.RunUntil(50 * sim.Millisecond)
	if st := r2.nics[0].Stats(); st.RTTSamples != 0 || st.RTOAdapted != 0 {
		t.Fatalf("fixed-backoff config sampled RTTs: samples=%d adapted=%d", st.RTTSamples, st.RTOAdapted)
	}
}

// TestClosePortMidRetransmitDrains closes an endpoint while its flow is
// deep in a go-back-N retry ladder (peer under an outage). The ring
// must drain and be removed, every pending fragment's SRAM must come
// back, and the journal must forget the port's messages.
func TestClosePortMidRetransmitDrains(t *testing.T) {
	cfg := bclConfig()
	cfg.MaxRetries = 3
	r := newRig(t, cfg)
	j := newTestJournal()
	r.nics[0].Journal = j
	r.fab.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, To: 40 * sim.Millisecond}}})

	payload := make([]byte, 8*1024)
	_, sseg := r.pinnedSegs(t, 0, payload)
	r.nics[0].RegisterPort(1)
	r.nics[1].RegisterPort(2)

	r.env.Go("sender", func(p *sim.Proc) {
		for m := 0; m < 3; m++ {
			postJournaled(p, r.nics[0], lend(r.nics[0], SendDesc{
				Kind: DescData, MsgID: r.nics[0].NextMsgID(), SrcPort: 1,
				DstNode: 1, DstPort: 2, Channel: 1, Len: len(payload), Segs: sseg,
			}))
		}
	})
	// Close mid-ladder: first retransmit fires at ~400 µs.
	r.env.At(1*sim.Millisecond, func() { r.nics[0].ClosePort(1) })
	r.env.RunUntil(60 * sim.Millisecond)

	if got := r.nics[0].sram.InUse(); got != 0 {
		t.Fatalf("SRAM leak after close mid-retransmit: %d bytes", got)
	}
	if r.nics[0].rings.Get(1) != nil {
		t.Fatal("closed port's send ring never drained and removed")
	}
	if f := r.nics[0].tx.Get(1); f != nil && f.Window().Len() != 0 {
		t.Fatalf("orphaned window entries after close: %d", f.Window().Len())
	}
	if len(j.sendIdx) != 3 {
		t.Fatalf("journaled %d sends, want 3", len(j.sendIdx))
	}
	for id := range j.sendIdx {
		if !j.retired[id] {
			t.Fatalf("journal still holds msg %d after its port closed and retries exhausted", id)
		}
	}
	r.assertDrained(t) // the queued sends' descriptors were retired by the failure path, once each
}

// closeCollRig registers context 7 on port 1 of two nodes and posts
// node 1's release-mode contribution, to a root that never contributes:
// node 1 then holds SRAM and a retry timer for it. The descriptor is
// unpooled, as the library posts a collective one, unless lent says to
// take it from the card's free list. It returns node 1's spec, to
// register the context again once the port has closed.
func closeCollRig(t *testing.T, lent bool) (*rig, *CollSpec) {
	r := newRig(t, bclConfig())
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
	_, seg := r.pinnedSegs(t, 1, make([]byte, 16))
	r.env.Go("member", func(p *sim.Proc) {
		d := SendDesc{
			Kind: DescCollComb, MsgID: r.nics[1].NextMsgID(), SrcPort: 1, Channel: CollChannel,
			Len: 16, Segs: seg, Coll: CollHdr{Ctx: 7, Seq: 1, Op: uint8(coll.OpSum), DT: uint8(coll.Int64), Release: true},
		}
		if lent {
			r.nics[1].PostSend(p, lend(r.nics[1], d))
		} else {
			r.nics[1].PostSend(p, &d)
		}
	})
	return r, member
}

// TestClosePortDropsCollContexts: a closed port's collective contexts
// leave the card with it. Port 1 closes while node 1's contribution
// waits on the root; context 7 then registers again and the card holds
// nothing.
func TestClosePortDropsCollContexts(t *testing.T) {
	closePortDropsCollContexts(t, false)
}

// TestClosePortReturnsLentCollDescriptor is TestClosePortDropsCollContexts
// with the contribution's descriptor taken from the card's free list:
// the hold on it ends with the context, and the descriptor goes back.
func TestClosePortReturnsLentCollDescriptor(t *testing.T) {
	closePortDropsCollContexts(t, true)
}

func closePortDropsCollContexts(t *testing.T, lent bool) {
	r, member := closeCollRig(t, lent)
	n := r.nics[1]
	r.env.At(sim.Millisecond, func() {
		if n.sram.InUse() == 0 {
			t.Error("the held contribution holds no SRAM before the close")
		}
		n.ClosePort(1)
	})
	r.env.RunUntil(20 * sim.Millisecond)
	n.RegisterPort(1)
	if err := n.RegisterCollCtx(member); err != nil {
		t.Fatal(err)
	}
	if err := n.Drained(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseCombineReturnsLentDescriptors: both contributions of a
// release-mode combine come from the card's free list and go back to
// it. The root contributes last, so its hold ends while its own
// collective job still reads the descriptor; node 1's hold ends when
// the result comes back down.
func TestReleaseCombineReturnsLentDescriptors(t *testing.T) {
	r, _ := closeCollRig(t, true)
	_, seg := r.pinnedSegs(t, 0, make([]byte, 16))
	r.env.Go("root", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescCollComb, MsgID: r.nics[0].NextMsgID(), SrcPort: 1, Channel: CollChannel,
			Len: 16, Segs: seg, Coll: CollHdr{Ctx: 7, Seq: 1, Op: uint8(coll.OpSum), DT: uint8(coll.Int64), Release: true},
		}))
	})
	results, sent := make([]int, 2), make([]int, 2)
	for i, n := range r.nics {
		pt, _ := n.LookupPort(1)
		r.env.Go(fmt.Sprintf("host%d", i), func(p *sim.Proc) {
			for {
				if ev := pt.RecvEvQ.Recv(p); ev.CollKind == CollEvResult {
					results[i]++
				}
			}
		})
		r.env.Go(fmt.Sprintf("host%d/sends", i), func(p *sim.Proc) {
			for {
				if ev := pt.SendEvQ.Recv(p); ev.Type == EvSendDone && ev.Port == 1 {
					sent[i]++
				}
			}
		})
	}
	r.env.RunUntil(20 * sim.Millisecond)
	if results[0] != 1 || results[1] != 1 || sent[0] != 1 || sent[1] != 1 {
		t.Fatalf("results %v and send completions %v per node, want one of each", results, sent)
	}
	for _, n := range r.nics {
		if held := len(n.colls[7].ownMsg); held != 0 {
			t.Errorf("nic%d still holds %d contributions", n.node, held)
		}
	}
	r.assertDrained(t)
}

// TestClosePortDuringCollCharge: port 1 closes, and context 7 registers
// again, while the collective engine charges MCPCollProc for node 1's
// contribution. The engine finishes that job on the dropped context;
// the SRAM and the retry timer it keeps there leave the card too.
func TestClosePortDuringCollCharge(t *testing.T) {
	// The charge ends where the engine records the contribution's
	// journal hold (ownMsg): find that instant on a first run.
	r, _ := closeCollRig(t, false)
	var end sim.Time
	for ; len(r.nics[1].colls[7].ownMsg) == 0; end += 10 {
		if end > sim.Millisecond {
			t.Fatal("the contribution never reached the collective engine")
		}
		r.env.RunUntil(end)
	}
	r, member := closeCollRig(t, false)
	n := r.nics[1]
	r.env.RunUntil(end - n.prof.MCPCollProc/2)
	if len(n.colls[7].ownMsg) != 0 || n.sram.InUse() == 0 {
		t.Fatal("the close is not inside the charge")
	}
	n.ClosePort(1)
	n.RegisterPort(1)
	if err := n.RegisterCollCtx(member); err != nil {
		t.Fatal(err)
	}
	r.env.RunUntil(20 * sim.Millisecond)
	if err := n.Drained(); err != nil {
		t.Fatal(err)
	}
}

// TestPeerHealthTransitionTable walks every edge of the Up / Suspect /
// Dead / Probing machine, including probing during an outage window
// (probes lost, state holds) and the double-transition races: failing
// an already-dead flow and re-upping an already-up one.
func TestPeerHealthTransitionTable(t *testing.T) {
	cfg := bclConfig()
	cfg.MaxRetries = 2
	r := newRig(t, cfg)

	payload := []byte("state machine probe")
	_, sseg := r.pinnedSegs(t, 0, payload)
	rva, rseg := r.recvBuf(t, 1, 4096)
	sp := r.nics[0].RegisterPort(1)
	rp := r.nics[1].RegisterPort(2)

	send := func(p *sim.Proc, msgID uint64) {
		r.nics[0].PostSend(p, lend(r.nics[0], SendDesc{
			Kind: DescData, MsgID: msgID, SrcPort: 1, DstNode: 1, DstPort: 2,
			Channel: 1, Len: len(payload), Segs: sseg,
		}))
	}

	// Fault control: drop every packet while blocked, probes included —
	// exercising Probing->Probing self-loops during the outage. A hook,
	// not a Schedule: the test switches it on and off mid-run.
	blocked := false
	r.fab.SetFault(func(env *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if blocked {
			return fabric.Drop
		}
		return fabric.Deliver
	})

	type step struct {
		name string
		want PeerHealth
	}
	var trail []step
	note := func(name string) {
		trail = append(trail, step{name, r.nics[0].PeerHealth(1)})
	}

	r.env.Go("driver", func(p *sim.Proc) {
		// Fresh flow: Up.
		note("initial")

		// Clean delivery holds Up (Up -> Up on ack progress).
		r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
		send(p, 1)
		sp.SendEvQ.Recv(p)
		rp.RecvEvQ.Recv(p)
		note("after clean send")

		// Outage: first retry round marks Suspect.
		blocked = true
		send(p, 2)
		p.Sleep(600 * sim.Microsecond) // past the 400 µs first timeout
		note("after first retx round")

		// Retry exhaustion: Suspect -> Dead, message failed.
		ev := sp.SendEvQ.Recv(p)
		if ev.Type != EvSendFailed {
			t.Errorf("expected SEND-FAILED, got %v", ev.Type)
		}
		note("after retry exhaustion")

		// Dead peer: the next send fails fast (Dead -> Dead).
		send(p, 3)
		ev = sp.SendEvQ.Recv(p)
		if ev.Type != EvSendFailed {
			t.Errorf("expected fail-fast SEND-FAILED, got %v", ev.Type)
		}
		note("after fail-fast")

		// Probes fire into the outage and are lost: Probing holds.
		p.Sleep(4 * sim.Millisecond)
		note("probing during outage")

		// Heal the fabric: the next probe's ACK re-admits the peer.
		blocked = false
		for !r.nics[0].PeerHealthy(1) {
			p.Sleep(100 * sim.Microsecond)
		}
		note("after probe ack")

		// Up -> Up self-loop: another clean transfer while already Up.
		r.nics[1].PostRecv(2, 1, &RecvDesc{Len: 4096, Segs: rseg, VA: rva})
		send(p, 4)
		sp.SendEvQ.Recv(p)
		rp.RecvEvQ.Recv(p)
		note("after post-recovery send")
	})
	r.env.RunUntil(200 * sim.Millisecond)

	want := []step{
		{"initial", PeerUp},
		{"after clean send", PeerUp},
		{"after first retx round", PeerSuspect},
		{"after retry exhaustion", PeerDead},
		{"after fail-fast", PeerDead},
		{"probing during outage", PeerProbing},
		{"after probe ack", PeerUp},
		{"after post-recovery send", PeerUp},
	}
	if len(trail) != len(want) {
		t.Fatalf("walked %d steps, want %d: %+v", len(trail), len(want), trail)
	}
	for i, w := range want {
		if trail[i].name != w.name || trail[i].want != w.want {
			t.Fatalf("step %d: got %q=%v, want %q=%v",
				i, trail[i].name, trail[i].want, w.name, w.want)
		}
	}
	st := r.nics[0].Stats()
	if st.Probes < 2 {
		t.Fatalf("probes = %d, want >= 2 (probe loop during outage)", st.Probes)
	}
	if st.PeerDeaths != 1 || st.PeerRecoveries != 1 {
		t.Fatalf("deaths/recoveries = %d/%d, want 1/1", st.PeerDeaths, st.PeerRecoveries)
	}
	if st.FastFails == 0 {
		t.Fatal("fail-fast path never taken while peer was dead")
	}
}
