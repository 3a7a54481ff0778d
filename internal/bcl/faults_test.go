package bcl

import (
	"bytes"
	"fmt"
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// TestBidirectionalTrafficUnderMixedFaults drives both directions at
// once through a fabric that both drops and corrupts packets, and
// demands byte-exact delivery of everything: the full reliability
// machinery (CRC drop, go-back-N rewind, duplicate suppression,
// cumulative ACKs) exercised together.
func TestBidirectionalTrafficUnderMixedFaults(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	// Random (but seeded, hence reproducible) faults: periodic patterns
	// can phase-lock with the deterministic retransmission schedule and
	// starve a flow past its retry budget, which is not the behaviour
	// under test here.
	tb.c.Install(fabric.Schedule{Rules: []fabric.Rule{
		{P: 0.08, Do: fabric.Corrupt}, // the CRC will catch it
		{P: 0.08, Do: fabric.Drop},
	}})
	a, b := tb.ports[0], tb.ports[1]
	const msgs = 10
	const size = 20 * 1024
	mk := func(seed byte) []byte {
		data := make([]byte, size)
		for i := range data {
			data[i] = seed + byte(i*13)
		}
		return data
	}
	run := func(src, dst *Port, seed byte, done *int) {
		// Sender half.
		tb.c.Env.Go("tx", func(p *sim.Proc) {
			va := src.Process().Space.Alloc(size)
			src.Process().Space.Write(va, mk(seed))
			for i := 0; i < msgs; i++ {
				if _, err := src.Send(p, dst.Addr(), i+1, va, size, uint64(seed)); err != nil {
					t.Error(err)
					return
				}
			}
		})
		// Receiver half.
		tb.c.Env.Go("rx", func(p *sim.Proc) {
			want := mk(seed)
			vas := make([]mem.VAddr, msgs)
			for i := 0; i < msgs; i++ {
				vas[i] = dst.Process().Space.Alloc(size)
				if err := dst.PostRecv(p, i+1, vas[i], size); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < msgs; i++ {
				ev := dst.WaitRecv(p)
				got, _ := dst.Process().Space.Read(vas[ev.Channel-1], size)
				if !bytes.Equal(got, want) {
					t.Errorf("direction %d message on ch %d corrupted", seed, ev.Channel)
				}
				*done++
			}
		})
	}
	var doneAB, doneBA int
	run(a, b, 1, &doneAB)
	run(b, a, 2, &doneBA)
	tb.run(t, 5*sim.Second)
	if doneAB != msgs || doneBA != msgs {
		t.Fatalf("delivered %d/%d, want %d each way", doneAB, doneBA, msgs)
	}
	if st := tb.c.Nodes[0].NIC.Stats(); st.Retransmits == 0 {
		t.Fatal("no retransmissions despite injected faults")
	}
	if st := tb.c.Nodes[1].NIC.Stats(); st.CRCDrops == 0 {
		t.Fatal("no CRC drops despite corruption")
	}
	tb.assertDrained(t) // every posting consumed, every send retired
}

// TestRMAUnderLoss checks one-sided operations recover from packet
// loss like two-sided ones do.
func TestRMAUnderLoss(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	tb.c.Install(fabric.Schedule{Rules: []fabric.Rule{{Every: 4, Do: fabric.Drop}}})
	a, b := tb.ports[0], tb.ports[1]
	const winSize = 32 * 1024
	ready := false
	var window mem.VAddr
	tb.c.Env.Go("target", func(p *sim.Proc) {
		window = b.Process().Space.Alloc(winSize)
		if err := b.RegisterOpen(p, 3, window, winSize); err != nil {
			t.Error(err)
		}
		ready = true
	})
	payload := make([]byte, 10000)
	tb.c.Env.Rand().Fill(payload)
	okWrite, okRead := false, false
	tb.c.Env.Go("initiator", func(p *sim.Proc) {
		for !ready {
			p.Sleep(20 * sim.Microsecond)
		}
		src := a.Process().Space.Alloc(len(payload))
		a.Process().Space.Write(src, payload)
		if _, err := a.RMAWrite(p, b.Addr(), 3, 500, src, len(payload)); err != nil {
			t.Error(err)
			return
		}
		if ev := a.WaitSend(p); ev.Type == nic.EvSendDone {
			okWrite = true
		}
		dst := a.Process().Space.Alloc(len(payload))
		if err := a.RMARead(p, b.Addr(), 3, 500, dst, len(payload)); err != nil {
			t.Error(err)
			return
		}
		got, _ := a.Process().Space.Read(dst, len(payload))
		okRead = bytes.Equal(got, payload)
	})
	tb.run(t, 5*sim.Second)
	if !okWrite || !okRead {
		t.Fatalf("RMA under loss: write=%v read=%v", okWrite, okRead)
	}
	got, _ := b.Process().Space.Read(window+500, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("window contents wrong after lossy RMA write")
	}
}

// TestManyNodesRandomTraffic sprays random-size messages among 8 ports
// on 8 nodes and checks conservation: every message sent is received
// exactly once with an intact checksum-carrying first byte.
func TestManyNodesRandomTraffic(t *testing.T) {
	const n = 8
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	tb := newTestbed(t, cluster.Myrinet, n, slots)
	const perSender = 6
	received := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		src := tb.ports[i]
		id := i
		tb.c.Env.Go(fmt.Sprintf("tx%d", id), func(p *sim.Proc) {
			va := src.Process().Space.Alloc(4096)
			src.Process().Space.Write(va, []byte{byte(id)})
			for k := 0; k < perSender; k++ {
				dst := tb.ports[(id+k+1)%n]
				size := 1 + tb.c.Env.Rand().Intn(2048)
				if _, err := src.Send(p, dst.Addr(), SystemChannel, va, size, uint64(id)); err != nil {
					t.Error(err)
					return
				}
				src.WaitSend(p)
			}
		})
		dst := tb.ports[i]
		tb.c.Env.Go(fmt.Sprintf("rx%d", id), func(p *sim.Proc) {
			for {
				ev, ok := dst.TryRecv(p)
				if !ok {
					p.Sleep(50 * sim.Microsecond)
					if received[id] >= perSender {
						return
					}
					continue
				}
				data, _ := dst.Process().Space.Read(ev.VA, 1)
				if uint64(data[0]) != ev.Tag {
					t.Errorf("node %d: payload byte %d != tag %d", id, data[0], ev.Tag)
				}
				received[id]++
				total++
			}
		})
	}
	tb.run(t, 2*sim.Second)
	if total != n*perSender {
		t.Fatalf("received %d messages, want %d", total, n*perSender)
	}
}

// TestOutOfWindowRMAWriteFailsOnlyItself: an RMA write past the end of
// a remote window is one tenant's bad request, not a sick peer. The
// target refuses it for good, so only that write fails; the other
// tenant's traffic to the same node, sharing the go-back-N flow, all
// completes and the peer is never declared dead. Retrying the write
// until the sender gave the node up would fail all 200 sends. The
// refusal holds when the fabric loses the NACKs that carry it: the
// write fails exactly once and is never reported done.
func TestOutOfWindowRMAWriteFailsOnlyItself(t *testing.T) {
	for _, lost := range []int{0, 3} {
		t.Run(fmt.Sprintf("lost=%d", lost), func(t *testing.T) { outOfWindowWrite(t, lost) })
	}
}

// outOfWindowWrite runs TestOutOfWindowRMAWriteFailsOnlyItself with the
// fabric dropping the first lost NACKs that refuse a message.
func outOfWindowWrite(t *testing.T, lost int) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 0, 1})
	// A hook, not a Schedule: no other caller filters on a message id.
	tb.c.Fabric.SetFault(func(_ *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if pkt.Kind == fabric.KindNack && pkt.MsgID != 0 && lost > 0 {
			lost--
			return fabric.Drop
		}
		return fabric.Deliver
	})
	rogue, victim, target := tb.ports[0], tb.ports[1], tb.ports[2]
	const window, sends = 4096, 200
	tb.c.Env.Go("target", func(p *sim.Proc) {
		if err := target.RegisterOpen(p, 5, target.Process().Space.Alloc(window), window); err != nil {
			t.Error(err)
		}
		for {
			ev := target.WaitRecv(p)
			if err := target.ReturnSystemBuffer(p, ev.VA, tb.c.Nodes[0].Prof.MaxPacket); err != nil {
				t.Error(err)
			}
		}
	})
	var rogueDone, rogueFailed int
	tb.c.Env.Go("rogue", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		if _, err := rogue.RMAWrite(p, target.Addr(), 5, 2*window, rogue.Process().Space.Alloc(64), 64); err != nil {
			t.Error(err)
			return
		}
		for {
			if rogue.WaitSend(p).Type == nic.EvSendFailed {
				rogueFailed++
			} else {
				rogueDone++
			}
		}
	})
	var done, failed int
	tb.c.Env.Go("victim", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		va := victim.Process().Space.Alloc(64)
		for i := 0; i < sends; i++ {
			if _, err := victim.Send(p, target.Addr(), SystemChannel, va, 64, uint64(i)); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < sends; i++ {
			if victim.WaitSend(p).Type == nic.EvSendFailed {
				failed++
			} else {
				done++
			}
		}
	})
	tb.run(t, 2*sim.Second)
	if done != sends || failed != 0 {
		t.Fatalf("victim: %d sends done, %d failed, want %d and 0", done, failed, sends)
	}
	if rogueFailed != 1 || rogueDone != 0 {
		t.Fatalf("rogue: %d writes failed, %d done, want 1 and 0", rogueFailed, rogueDone)
	}
	if st := tb.c.Nodes[0].NIC.Stats(); st.PeerDeaths != 0 || st.SendFailures != 1 {
		t.Fatalf("node 0 NIC: %d peer deaths, %d send failures, want 0 and 1", st.PeerDeaths, st.SendFailures)
	}
	if lost > 0 {
		t.Fatalf("%d NACKs left to drop: the write was refused fewer times than the test loses", lost)
	}
	tb.assertDrained(t)
}
