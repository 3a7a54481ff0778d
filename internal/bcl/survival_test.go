package bcl

import (
	"bytes"
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/hw"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// survivalBed builds a two-node cluster with the firmware watchdog on
// and one port per node, using fast recovery knobs so tests finish in
// a few simulated milliseconds.
func survivalBed(t *testing.T, fabKind cluster.FabricKind, nicCfg nic.Config) (*cluster.Cluster, *Port, *Port) {
	t.Helper()
	prof := hw.DAWNING3000()
	prof.MCPHeartbeatInterval = 100 * sim.Microsecond
	prof.WatchdogInterval = 300 * sim.Microsecond
	prof.MCPRebootTime = 1 * sim.Millisecond
	tb := bootTestbed(t, cluster.Config{
		Nodes: 2, Fabric: fabKind, Profile: prof, NIC: nicCfg, Watchdog: true,
	}, []int{0, 1}, Options{SystemBuffers: 16})
	return tb.c, tb.ports[0], tb.ports[1]
}

// TestWatchdogRecoversReceiverCrash streams messages through a
// firmware crash at the receiving NIC. The kernel watchdog must detect
// the dead MCP, reboot it, replay the journal, and every message must
// arrive exactly once with intact bytes — the application never learns
// anything happened.
func TestWatchdogRecoversReceiverCrash(t *testing.T) {
	c, a, b := survivalBed(t, cluster.Myrinet, DefaultNICConfig())
	const msgs, size = 8, 2048
	base := c.Env.Now()
	c.Install(fabric.Schedule{Crashes: []fabric.Crash{{Node: 1, At: base + 2*sim.Millisecond}}})

	payload := make([]byte, size)
	c.Env.Rand().Fill(payload)
	seen := make(map[uint64]int)
	bad := 0
	c.Env.Go("sender", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(size)
		a.Process().Space.Write(va, payload)
		for i := 0; i < msgs; i++ {
			if _, err := a.Send(p, b.Addr(), SystemChannel, va, size, uint64(100+i)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			ev := a.WaitSend(p)
			if ev.Type == nic.EvSendFailed {
				t.Errorf("send %d failed despite recovery", i)
			}
			p.Sleep(500 * sim.Microsecond) // spread the stream across the crash
		}
	})
	c.Env.Go("receiver", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			ev := b.WaitRecv(p)
			seen[ev.Tag]++
			got, _ := b.Process().Space.Read(ev.VA, ev.Len)
			if !bytes.Equal(got, payload) {
				bad++
			}
			b.ReturnSystemBuffer(p, ev.VA, 4096)
		}
	})
	c.Env.RunUntil(base + 200*sim.Millisecond)

	if len(seen) != msgs {
		t.Fatalf("distinct messages delivered = %d, want %d", len(seen), msgs)
	}
	for tag, n := range seen {
		if n != 1 {
			t.Fatalf("tag %d delivered %d times, want exactly once", tag, n)
		}
	}
	if bad != 0 {
		t.Fatalf("%d messages with corrupted payloads", bad)
	}
	kst := c.Nodes[1].Kernel.Stats()
	if kst.WatchdogTrips == 0 || kst.NICRecoveries == 0 {
		t.Fatalf("watchdog trips/recoveries = %d/%d, want >= 1", kst.WatchdogTrips, kst.NICRecoveries)
	}
	if kst.ReplayedRecords == 0 {
		t.Fatal("recovery replayed zero journal records")
	}
	if st := c.Nodes[1].NIC.Stats(); st.NICReboots != 1 {
		t.Fatalf("nic reboots = %d, want 1", st.NICReboots)
	}
	assertDrained(t, c) // the replayed postings' descriptors were consumed once each
}

// TestWatchdogRecoversSenderCrash crashes the SENDING NIC mid-stream:
// the kernel journal must replay unfinished sends after the reboot and
// the receiver must still see every message exactly once.
func TestWatchdogRecoversSenderCrash(t *testing.T) {
	c, a, b := survivalBed(t, cluster.Myrinet, DefaultNICConfig())
	const msgs, size = 6, 4096
	base := c.Env.Now()
	c.Install(fabric.Schedule{Crashes: []fabric.Crash{{Node: 0, At: base + 1500*sim.Microsecond}}})

	payload := make([]byte, size)
	c.Env.Rand().Fill(payload)
	seen := make(map[uint64]int)
	bad := 0
	c.Env.Go("sender", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(size)
		a.Process().Space.Write(va, payload)
		for i := 0; i < msgs; i++ {
			if _, err := a.Send(p, b.Addr(), SystemChannel, va, size, uint64(200+i)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			ev := a.WaitSend(p)
			if ev.Type == nic.EvSendFailed {
				t.Errorf("send %d failed despite recovery", i)
			}
			p.Sleep(400 * sim.Microsecond)
		}
	})
	c.Env.Go("receiver", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			ev := b.WaitRecv(p)
			seen[ev.Tag]++
			got, _ := b.Process().Space.Read(ev.VA, ev.Len)
			if !bytes.Equal(got, payload) {
				bad++
			}
			b.ReturnSystemBuffer(p, ev.VA, 4096)
		}
	})
	c.Env.RunUntil(base + 200*sim.Millisecond)

	if len(seen) != msgs {
		t.Fatalf("distinct messages delivered = %d, want %d", len(seen), msgs)
	}
	for tag, n := range seen {
		if n != 1 {
			t.Fatalf("tag %d delivered %d times, want exactly once", tag, n)
		}
	}
	if bad != 0 {
		t.Fatalf("%d corrupted payloads", bad)
	}
	if kst := c.Nodes[0].Kernel.Stats(); kst.NICRecoveries == 0 {
		t.Fatal("sender kernel never recovered its NIC")
	}
	// The send journal must have replayed at least the in-flight send.
	if st := c.Nodes[1].NIC.Stats(); st.EpochResets == 0 {
		t.Fatal("receiver never saw the sender's new boot epoch")
	}
	assertDrained(t, c) // the replayed sends' descriptors were retired once each
}

// TestGrayFailoverSteersToAlternateRail runs ping-pongs over the
// dual-rail hetero fabric with the adaptive RTO estimator on, then
// makes the policy rail 24x slower (alive, nothing lost). The NIC's
// RTT estimator must detect the gray failure and steer traffic onto
// the healthy rail.
func TestGrayFailoverSteersToAlternateRail(t *testing.T) {
	cfg := DefaultNICConfig()
	cfg.AdaptiveRTO = true
	c, a, b := survivalBed(t, cluster.Hetero, cfg)
	hf := c.Fabric.(*hetero.Fabric)
	base := c.Env.Now()
	// Both nodes are in the lower split: their policy rail is Myrinet
	// (rail 0). Degrade it for a long window mid-run.
	c.Install(fabric.Schedule{Windows: []fabric.Window{{Node: fabric.AllNodes, Rail: fabric.OnRail(0), From: base + 3*sim.Millisecond, To: base + 80*sim.Millisecond, Slow: 24}}})

	const rounds, size = 120, 1024
	done := 0
	c.Env.Go("pingpong", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(size)
		vb := b.Process().Space.Alloc(size)
		for i := 0; i < rounds; i++ {
			if _, err := a.Send(p, b.Addr(), SystemChannel, va, size, 1); err != nil {
				t.Errorf("ping %d: %v", i, err)
				return
			}
			ev := b.WaitRecv(p)
			b.ReturnSystemBuffer(p, ev.VA, 4096)
			if _, err := b.Send(p, a.Addr(), SystemChannel, vb, size, 2); err != nil {
				t.Errorf("pong %d: %v", i, err)
				return
			}
			ev = a.WaitRecv(p)
			a.ReturnSystemBuffer(p, ev.VA, 4096)
			done++
		}
	})
	c.Env.RunUntil(base + 300*sim.Millisecond)

	if done != rounds {
		t.Fatalf("completed %d of %d rounds", done, rounds)
	}
	gf := c.Nodes[0].NIC.Stats().GrayFailovers + c.Nodes[1].NIC.Stats().GrayFailovers
	if gf == 0 {
		t.Fatal("no gray failover despite a 24x-degraded policy rail")
	}
	if hf.GraySteers() == 0 {
		t.Fatal("no packets steered onto the alternate rail")
	}
	assertDrained(t, c)
}

// TestExitMidRetransmitCleansJournal exits a process while its port's
// flow is mid-retry-ladder against an unreachable peer: the kernel must
// drop the endpoint's journal records (no replay resurrection), unpin
// its pages, and the NIC must release all SRAM.
func TestExitMidRetransmitCleansJournal(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	a, b := tb.ports[0], tb.ports[1]
	tb.c.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, From: tb.c.Env.Now(), To: tb.c.Env.Now() + 100*sim.Millisecond}}})

	const size = 8 * 1024
	tb.c.Env.Go("doomed", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(size)
		for i := 0; i < 3; i++ {
			if _, err := a.Send(p, b.Addr(), SystemChannel, va, size, uint64(i)); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		p.Sleep(1 * sim.Millisecond) // deep in the retry ladder now
		if err := a.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		tb.c.Nodes[0].Kernel.Exit(a.Process())
	})
	tb.run(t, 200*sim.Millisecond)

	if n := journalRecords(tb.c.Nodes[0].Kernel); n != 0 {
		t.Fatalf("journal still holds %d records (ports, postings, contexts or sends) after close+exit mid-retransmit", n)
	}
	// No SRAM is held, the closed port's postings are gone and its
	// abandoned sends were retired by the failure path.
	if err := tb.c.Nodes[0].NIC.Drained(); err != nil {
		t.Fatalf("after close+exit mid-retransmit: %v", err)
	}
}
