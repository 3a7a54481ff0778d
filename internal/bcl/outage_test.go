package bcl

import (
	"bytes"
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// newOutageTestbed is newTestbed with a shortened retry ladder so a
// peer death takes a few milliseconds of virtual time, not tens.
func newOutageTestbed(t *testing.T, fab cluster.FabricKind, nodes int, slots []int) *testbed {
	t.Helper()
	cfg := DefaultNICConfig()
	cfg.MaxRetries = 3
	return bootTestbed(t, cluster.Config{Nodes: nodes, Fabric: fab, NIC: cfg}, slots, Options{SystemBuffers: 64})
}

// TestLinkDownMidStream is the component-outage acceptance test: a
// stream is interrupted by a link outage; sends during the outage fail
// fast once the peer is marked Dead; probing re-admits the peer after
// the window; and the post-recovery transfer is byte-identical.
func TestLinkDownMidStream(t *testing.T) {
	tb := newOutageTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	a, b := tb.ports[0], tb.ports[1]
	const size = 2048
	const outageDur = 30 * sim.Millisecond
	mk := func(i int) []byte {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i*31 + j*7)
		}
		return data
	}

	type arrival struct {
		tag  uint64
		data []byte
	}
	var arrivals []arrival
	tb.c.Env.Go("rx", func(p *sim.Proc) {
		for {
			ev, ok := b.TryRecv(p)
			if !ok {
				p.Sleep(100 * sim.Microsecond)
				continue
			}
			data, _ := b.Process().Space.Read(ev.VA, ev.Len)
			arrivals = append(arrivals, arrival{tag: ev.Tag, data: data})
			b.ReturnSystemBuffer(p, ev.VA, tb.c.Nodes[0].Prof.MaxPacket)
		}
	})

	var healthDuringOutage bool
	var fastElapsed sim.Time
	var outageEnd, recoveredAt sim.Time
	sendersDone := false
	tb.c.Env.Go("tx", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(size)
		send := func(i int) nic.Event {
			a.Process().Space.Write(va, mk(i))
			if _, err := a.Send(p, b.Addr(), SystemChannel, va, size, uint64(i)); err != nil {
				t.Error(err)
				return nic.Event{} // type EvRecvDone: no send outcome
			}
			return a.WaitSend(p)
		}
		// Pre-outage stream.
		for i := 0; i < 3; i++ {
			if ev := send(i); ev.Type != nic.EvSendDone {
				t.Errorf("pre-outage send %d: %+v", i, ev)
			}
		}
		// Take node 1's link down mid-stream.
		outageEnd = p.Now() + outageDur
		tb.c.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, From: p.Now(), To: outageEnd}}})
		// This send burns the (short) retry ladder and fails.
		if ev := send(100); ev.Type != nic.EvSendFailed {
			t.Errorf("in-outage send did not fail: %+v", ev)
		}
		healthDuringOutage = a.PeerHealthy(1)
		// The next one must fail fast: the peer is Dead.
		t0 := p.Now()
		if ev := send(101); ev.Type != nic.EvSendFailed {
			t.Errorf("fail-fast send did not fail: %+v", ev)
		}
		fastElapsed = p.Now() - t0
		// Probing re-admits the peer after the window.
		for !a.PeerHealthy(1) {
			p.Sleep(200 * sim.Microsecond)
		}
		recoveredAt = p.Now()
		// Post-recovery stream: byte-identical delivery.
		for i := 3; i < 5; i++ {
			if ev := send(i); ev.Type != nic.EvSendDone {
				t.Errorf("post-recovery send %d: %+v", i, ev)
			}
		}
		sendersDone = true
	})
	tb.run(t, sim.Second)

	if !sendersDone {
		t.Fatal("sender stuck (simulator deadlock?)")
	}
	if healthDuringOutage {
		t.Error("peer still healthy after retry exhaustion")
	}
	if fastElapsed >= tb.c.Nodes[0].Prof.RetransmitTimeout {
		t.Errorf("fail-fast took %d ns, slower than one retransmit timeout", fastElapsed)
	}
	if recoveredAt <= outageEnd {
		t.Errorf("recovered at %d, inside the outage window (ends %d)", recoveredAt, outageEnd)
	}
	if len(arrivals) != 5 {
		t.Fatalf("%d messages delivered, want 5 (failed sends must not arrive)", len(arrivals))
	}
	for k, ar := range arrivals {
		want := []int{0, 1, 2, 3, 4}[k]
		if ar.tag != uint64(want) {
			t.Errorf("arrival %d has tag %d, want %d", k, ar.tag, want)
		}
		if !bytes.Equal(ar.data, mk(want)) {
			t.Errorf("arrival %d not byte-identical", k)
		}
	}
	st := tb.c.Nodes[0].NIC.Stats()
	if st.PeerDeaths == 0 || st.PeerRecoveries == 0 || st.FastFails == 0 || st.Probes == 0 {
		t.Errorf("health counters: deaths=%d recoveries=%d fastfails=%d probes=%d",
			st.PeerDeaths, st.PeerRecoveries, st.FastFails, st.Probes)
	}
	tb.assertDrained(t) // outage drops, failFlow and fail-fast all returned their packets
}

// TestHeteroRailFailover kills the Myrinet rail and proves BCL traffic
// completes over the mesh rail (the per-rail packet counters shift),
// then returns to Myrinet after recovery.
func TestHeteroRailFailover(t *testing.T) {
	tb := newTestbed(t, cluster.Hetero, 8, []int{0, 2})
	hf := tb.c.Fabric.(*hetero.Fabric)
	counters := func() (myrinet, mesh, failovers uint64) {
		hf.Collect(func(_ int, layer, name string, v uint64) {
			switch {
			case layer != "fabric:hetero":
			case name == "myrinet_pkts":
				myrinet = v
			case name == "mesh_pkts":
				mesh = v
			case name == "failovers":
				failovers = v
			}
		})
		return
	}
	a, b := tb.ports[0], tb.ports[1] // both in the Myrinet half
	const size = 4096
	payload := make([]byte, size)
	tb.c.Env.Rand().Fill(payload)

	received := 0
	var lastData []byte
	tb.c.Env.Go("rx", func(p *sim.Proc) {
		for {
			ev, ok := b.TryRecv(p)
			if !ok {
				p.Sleep(100 * sim.Microsecond)
				continue
			}
			lastData, _ = b.Process().Space.Read(ev.VA, ev.Len)
			received++
		}
	})

	var myrBefore, meshBefore, myrDuring, meshDuring, myrAfter, meshAfter uint64
	var failDuring uint64
	done := false
	tb.c.Env.Go("tx", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(size)
		a.Process().Space.Write(va, payload)
		send := func() bool {
			if _, err := a.Send(p, b.Addr(), SystemChannel, va, size, 7); err != nil {
				t.Error(err)
				return false
			}
			return a.WaitSend(p).Type == nic.EvSendDone
		}
		// Baseline: the policy routes node0 -> node2 over Myrinet.
		if !send() {
			t.Error("baseline send failed")
		}
		myrBefore, meshBefore, _ = counters()
		// Kill the Myrinet rail; traffic must complete over the mesh.
		outageEnd := p.Now() + 20*sim.Millisecond
		tb.c.Install(fabric.Schedule{Windows: []fabric.Window{{Node: fabric.AllNodes, Rail: fabric.OnRail(0), From: p.Now(), To: outageEnd}}})
		if !send() {
			t.Error("send during rail outage failed despite surviving rail")
		}
		myrDuring, meshDuring, failDuring = counters()
		// After recovery the policy rail carries traffic again.
		p.Sleep(outageEnd + sim.Millisecond - p.Now())
		if !send() {
			t.Error("post-recovery send failed")
		}
		myrAfter, meshAfter, _ = counters()
		done = true
	})
	tb.run(t, sim.Second)

	if !done {
		t.Fatal("sender stuck")
	}
	if myrBefore == 0 || meshBefore != 0 {
		t.Fatalf("baseline rail counts %d/%d: policy should use Myrinet only", myrBefore, meshBefore)
	}
	if meshDuring == 0 {
		t.Fatal("no packets shifted to the mesh rail during the Myrinet outage")
	}
	if myrDuring != myrBefore {
		t.Fatalf("myrinet carried %d new packets during its own outage", myrDuring-myrBefore)
	}
	if failDuring == 0 {
		t.Fatal("no failovers counted")
	}
	if myrAfter <= myrDuring {
		t.Fatal("traffic did not return to Myrinet after recovery")
	}
	if meshAfter != meshDuring {
		t.Fatalf("mesh still carrying packets after recovery (%d -> %d)", meshDuring, meshAfter)
	}
	if received != 3 || !bytes.Equal(lastData, payload) {
		t.Fatalf("received %d messages (want 3), intact=%v", received, bytes.Equal(lastData, payload))
	}
	st := tb.c.Nodes[0].NIC.Stats()
	if st.PeerDeaths != 0 {
		t.Fatalf("failover should be transparent, but %d peers died", st.PeerDeaths)
	}
}
