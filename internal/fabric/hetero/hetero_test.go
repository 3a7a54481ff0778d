package hetero

import (
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/fabric/mesh"
	"bcl/internal/fabric/myrinet"
	"bcl/internal/hw"
	"bcl/internal/sim"
)

func TestRailSelection(t *testing.T) {
	env := sim.NewEnv(1)
	f := New(env, hw.DAWNING3000(), 8, SplitAt(4))
	send := func(src, dst int) {
		env.Go("tx", func(p *sim.Proc) {
			pkt := &fabric.Packet{Kind: fabric.KindData, Src: src, Dst: dst, Payload: []byte{1}}
			pkt.Seal()
			f.Attach(src).Inject(p, pkt)
		})
	}
	recv := func(dst int, n int, got *int) {
		env.Go("rx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				f.Attach(dst).RX.Recv(p)
				*got++
			}
		})
	}
	var lowGot, highGot, crossGot int
	send(0, 1) // low half: Myrinet
	recv(1, 1, &lowGot)
	send(5, 6) // high half: mesh
	recv(6, 1, &highGot)
	send(1, 6) // cross-cluster: Myrinet backbone
	recv(6, 1, &crossGot)
	env.RunUntil(10 * sim.Millisecond)
	if lowGot != 1 || highGot != 2-1 || crossGot+highGot != 2 {
		t.Fatalf("deliveries: low=%d high=%d cross=%d", lowGot, highGot, crossGot)
	}
	myr, msh := counter(f, "myrinet_pkts"), counter(f, "mesh_pkts")
	if myr != 2 || msh != 1 {
		t.Fatalf("rail counts = %d/%d, want 2 myrinet + 1 mesh", myr, msh)
	}
}

// counter reads one of the composite's routing counters as a snapshot
// does, through Collect.
func counter(f *Fabric, name string) (v uint64) {
	f.Collect(func(_ int, layer, n string, x uint64) {
		if layer == "fabric:hetero" && n == name {
			v = x
		}
	})
	return v
}

func TestHeteroName(t *testing.T) {
	env := sim.NewEnv(1)
	f := New(env, hw.DAWNING3000(), 4, nil)
	if f.Name() != "hetero(myrinet+mesh)" || f.Nodes() != 4 {
		t.Fatalf("meta: %s %d", f.Name(), f.Nodes())
	}
}

func TestFailoverToSurvivingRail(t *testing.T) {
	env := sim.NewEnv(1)
	f := New(env, hw.DAWNING3000(), 4, func(src, dst int) int { return 0 }) // everything prefers Myrinet
	const outageEnd = 2 * sim.Millisecond
	f.Install(fabric.Schedule{Windows: []fabric.Window{{Node: fabric.AllNodes, Rail: fabric.OnRail(0), To: outageEnd}}})
	delivered := 0
	env.Go("rx", func(p *sim.Proc) {
		for {
			if _, ok := f.Attach(1).RX.RecvTimeout(p, 5*sim.Millisecond); !ok {
				return
			}
			delivered++
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		send := func() {
			pkt := &fabric.Packet{Kind: fabric.KindData, Src: 0, Dst: 1, Payload: []byte{9}}
			pkt.Seal()
			f.Attach(0).Inject(p, pkt)
		}
		send() // during the Myrinet outage: must ride the mesh
		if f.NodeDown(0) {
			t.Error("composite reports node down while one rail survives")
		}
		p.Sleep(outageEnd + 1 - p.Now())
		send() // after recovery: back on Myrinet
	})
	env.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d packets, want 2", delivered)
	}
	myr, msh := counter(f, "myrinet_pkts"), counter(f, "mesh_pkts")
	if myr != 1 || msh != 1 {
		t.Fatalf("rail counts = %d/%d, want 1 myrinet + 1 mesh", myr, msh)
	}
	if n := counter(f, "failovers"); n != 1 {
		t.Fatalf("failovers = %d, want 1", n)
	}
}

// TestRailsDeliverIntoMergedQueue: the composite is wiring, not a
// process. Building it starts no process and schedules no event, and a
// packet on either rail lands in Attach(dst).RX by the rail's own
// delivery: carrying it takes exactly the time and the events the bare
// rail spends (a forwarder between the rail's queue and the node's
// would add an event per packet).
func TestRailsDeliverIntoMergedQueue(t *testing.T) {
	prof := hw.DAWNING3000()
	// oneWay injects one packet with nobody receiving and runs to idle:
	// the packet must be sitting in the destination's RX queue.
	oneWay := func(env *sim.Env, f fabric.Fabric, src, dst int) (at sim.Time, steps uint64) {
		env.Go("tx", func(p *sim.Proc) {
			pkt := &fabric.Packet{Kind: fabric.KindData, Src: src, Dst: dst, Payload: []byte{1}}
			pkt.Seal()
			f.Attach(src).Inject(p, pkt)
		})
		at = env.Run()
		if n := f.Attach(dst).RX.Len(); n != 1 {
			t.Fatalf("%s %d->%d: %d packets in the destination RX queue at idle, want 1", f.Name(), src, dst, n)
		}
		return at, env.Steps()
	}
	for _, tc := range []struct {
		src, dst int
		bare     func(env *sim.Env) fabric.Fabric
	}{
		{1, 6, func(env *sim.Env) fabric.Fabric { return myrinet.New(env, prof, 8) }}, // cross-cluster
		{5, 6, func(env *sim.Env) fabric.Fabric { return mesh.New(env, prof, 8) }},    // high half
	} {
		bareEnv := sim.NewEnv(1)
		bare := tc.bare(bareEnv)
		wantAt, wantSteps := oneWay(bareEnv, bare, tc.src, tc.dst)
		bareEnv.Close()

		env := sim.NewEnv(1)
		f := New(env, prof, 8, SplitAt(4))
		if env.Run(); env.Steps() != 0 {
			t.Fatalf("building the composite ran %d events, want none (a process costs a start event)", env.Steps())
		}
		at, steps := oneWay(env, f, tc.src, tc.dst)
		env.Close()
		var queued int64 // as bcltop reads it: rx_queued summed over fabric layers
		f.CollectGauges(func(node int, layer, name string, v int64) {
			if node == tc.dst && name == "rx_queued" {
				queued += v
			}
		})
		if queued != 1 {
			t.Errorf("%d->%d: rx_queued gauges for node %d sum to %d with one packet waiting", tc.src, tc.dst, tc.dst, queued)
		}
		if at != wantAt || steps != wantSteps {
			t.Errorf("%d->%d: in RX at %d ns after %d events, on a bare %s at %d ns after %d",
				tc.src, tc.dst, at, steps, bare.Name(), wantAt, wantSteps)
		}
	}
}
