package fabric

import (
	"fmt"
	"testing"
	"testing/quick"

	"bcl/internal/hw"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

// counter reads one of net's counters as a snapshot does, through Collect.
func counter(net *Network, name string) (v uint64) {
	net.Collect(func(_ int, _, n string, x uint64) {
		if n == name {
			v = x
		}
	})
	return v
}

// twoNode builds the smallest useful network: two nodes joined by one
// switchless pair of directed links.
func twoNode(env *sim.Env, bw hw.Bps, lat sim.Time) *Network {
	n := NewNetwork(env, "test", 2)
	ab := n.AddLink("a->b", bw, lat)
	ba := n.AddLink("b->a", bw, lat)
	n.SetRoute(0, 1, []int{ab})
	n.SetRoute(1, 0, []int{ba})
	n.SetRoute(0, 0, nil)
	n.SetRoute(1, 1, nil)
	return n
}

func TestPacketCRC(t *testing.T) {
	p := &Packet{Payload: []byte("hello world")}
	p.Seal()
	if !p.Verify() {
		t.Fatal("fresh packet fails CRC")
	}
	p.Payload[3] ^= 1
	if p.Verify() {
		t.Fatal("corrupted packet passes CRC")
	}
	if p.WireSize() != HeaderBytes+11+CRCBytes {
		t.Fatalf("wire size = %d", p.WireSize())
	}
}

func TestDeliveryAndTiming(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNode(env, 160*hw.MBps, 500)
	var arrival sim.Time
	var got *Packet
	env.Go("rx", func(p *sim.Proc) {
		got = net.Attach(1).RX.Recv(p)
		arrival = p.Now()
	})
	env.Go("tx", func(p *sim.Proc) {
		pkt := &Packet{Kind: KindData, Src: 0, Dst: 1, Payload: []byte("abc")}
		pkt.Seal()
		net.Attach(0).Inject(p, pkt)
	})
	env.Run()
	if got == nil || string(got.Payload) != "abc" {
		t.Fatal("payload not delivered intact")
	}
	// Expected: serialization of 31 bytes at 160 MB/s = 194 ns
	// (rounded up), plus hop latency 500.
	ser := hw.TransferTime(31, 160*hw.MBps)
	want := ser + 500
	if arrival != want {
		t.Fatalf("arrival = %d, want %d", arrival, want)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNode(env, 160*hw.MBps, 500)
	var arrival sim.Time
	env.Go("rx", func(p *sim.Proc) {
		net.Attach(0).RX.Recv(p)
		arrival = p.Now()
	})
	env.Go("tx", func(p *sim.Proc) {
		p.Sleep(7)
		pkt := &Packet{Kind: KindData, Src: 0, Dst: 0}
		net.Attach(0).Inject(p, pkt)
	})
	env.Run()
	if arrival != 7 {
		t.Fatalf("loopback arrival = %d, want 7 (immediate)", arrival)
	}
}

func TestInjectionSerializesSender(t *testing.T) {
	// Two back-to-back packets from the same sender must be spaced by
	// their serialization time: the injection link is the bandwidth
	// limit.
	env := sim.NewEnv(1)
	net := twoNode(env, 100*hw.MBps, 0)
	payload := make([]byte, 1000-HeaderBytes-CRCBytes) // 1000-byte wire packets
	var times []sim.Time
	env.Go("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			net.Attach(1).RX.Recv(p)
			times = append(times, p.Now())
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			pkt := &Packet{Kind: KindData, Src: 0, Dst: 1, Payload: payload}
			pkt.Seal()
			net.Attach(0).Inject(p, pkt)
		}
	})
	env.Run()
	// 1000 bytes at 100 MB/s = 10 µs per packet.
	if len(times) != 2 || times[1]-times[0] != 10*sim.Microsecond {
		t.Fatalf("inter-arrival = %v, want 10 µs spacing", times)
	}
}

func TestContentionOnSharedLink(t *testing.T) {
	// Three senders into one destination share the final link; total
	// goodput must be capped by that link.
	env := sim.NewEnv(1)
	n := NewNetwork(env, "star", 4)
	bw := 100 * hw.MBps
	var up, down [4]int
	for i := 0; i < 4; i++ {
		up[i] = n.AddLink("up", bw, 0)
		down[i] = n.AddLink("down", bw, 0)
	}
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s != d {
				n.SetRoute(s, d, []int{up[s], down[d]})
			}
		}
	}
	const pktBytes = 10000
	const perSender = 10
	payload := make([]byte, pktBytes-HeaderBytes-CRCBytes)
	var last sim.Time
	env.Go("rx", func(p *sim.Proc) {
		for i := 0; i < 3*perSender; i++ {
			n.Attach(0).RX.Recv(p)
			last = p.Now()
		}
	})
	for s := 1; s <= 3; s++ {
		src := s
		env.Go("tx", func(p *sim.Proc) {
			for i := 0; i < perSender; i++ {
				pkt := &Packet{Kind: KindData, Src: src, Dst: 0, Payload: payload}
				pkt.Seal()
				n.Attach(src).Inject(p, pkt)
			}
		})
	}
	env.Run()
	total := 3 * perSender * pktBytes
	// Perfect sharing of the 100 MB/s down-link: 300 kB takes 3 ms.
	goodput := float64(total) / (float64(last) / float64(sim.Second))
	if goodput > 105e6 {
		t.Fatalf("goodput %.1f MB/s exceeds shared link capacity", goodput/1e6)
	}
	if goodput < 80e6 {
		t.Fatalf("goodput %.1f MB/s, shared link badly underutilized", goodput/1e6)
	}
}

func TestFaultDrop(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNode(env, 160*hw.MBps, 100)
	net.Install(Schedule{Rules: []Rule{{Every: 2, Do: Drop}}})
	received := 0
	env.Go("rx", func(p *sim.Proc) {
		for {
			if _, ok := net.Attach(1).RX.RecvTimeout(p, sim.Millisecond); !ok {
				return
			}
			received++
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			pkt := &Packet{Kind: KindData, Src: 0, Dst: 1, Payload: []byte{byte(i)}}
			pkt.Seal()
			net.Attach(0).Inject(p, pkt)
		}
	})
	env.Run()
	if received != 5 {
		t.Fatalf("received %d packets, want 5 (every 2nd dropped)", received)
	}
	delivered, dropped := counter(net, "delivered"), counter(net, "dropped")
	if delivered != 5 || dropped != 5 {
		t.Fatalf("stats = %d/%d, want 5/5", delivered, dropped)
	}
}

func TestFaultCorrupt(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNode(env, 160*hw.MBps, 100)
	net.Install(Schedule{Rules: []Rule{{Every: 3, Do: Corrupt}}})
	bad := 0
	env.Go("rx", func(p *sim.Proc) {
		for i := 0; i < 9; i++ {
			pkt := net.Attach(1).RX.Recv(p)
			if !pkt.Verify() {
				bad++
			}
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 9; i++ {
			pkt := &Packet{Kind: KindData, Src: 0, Dst: 1, Payload: []byte{1, 2, 3}}
			pkt.Seal()
			net.Attach(0).Inject(p, pkt)
		}
	})
	env.Run()
	if bad != 3 {
		t.Fatalf("%d packets failed CRC, want 3", bad)
	}
}

func TestRandomLossDeterministic(t *testing.T) {
	run := func() uint64 {
		env := sim.NewEnv(99)
		net := twoNode(env, 160*hw.MBps, 100)
		net.Install(Schedule{Rules: []Rule{{P: 0.3, Do: Drop}}})
		env.Go("tx", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				pkt := &Packet{Kind: KindData, Src: 0, Dst: 1}
				net.Attach(0).Inject(p, pkt)
			}
		})
		env.Go("rx", func(p *sim.Proc) {
			for {
				if _, ok := net.Attach(1).RX.RecvTimeout(p, sim.Millisecond); !ok {
					return
				}
			}
		})
		env.Run()
		return counter(net, "dropped")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("loss count diverged between identical runs: %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("dropped %d of 100 at p=0.3, implausible", a)
	}
}

func TestFaultDuplicate(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNode(env, 160*hw.MBps, 100)
	net.Install(Schedule{Rules: []Rule{{Every: 3, Do: Duplicate}}})
	received := 0
	env.Go("rx", func(p *sim.Proc) {
		for {
			if _, ok := net.Attach(1).RX.RecvTimeout(p, sim.Millisecond); !ok {
				return
			}
			received++
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 9; i++ {
			pkt := &Packet{Kind: KindData, Src: 0, Dst: 1, Payload: []byte{byte(i)}}
			pkt.Seal()
			net.Attach(0).Inject(p, pkt)
		}
	})
	env.Run()
	// 9 packets, every 3rd doubled: 12 arrivals.
	if received != 12 {
		t.Fatalf("received %d packets, want 12 (every 3rd duplicated)", received)
	}
	if d := counter(net, "duplicated"); d != 3 {
		t.Fatalf("duplicated = %d, want 3", d)
	}
}

func TestOutageWindow(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNode(env, 160*hw.MBps, 100)
	// Node 1's attachment is down for [1ms, 2ms).
	net.Install(Schedule{Windows: []Window{{Node: 1, From: sim.Millisecond, To: 2 * sim.Millisecond}}})
	var got []byte
	env.Go("rx", func(p *sim.Proc) {
		for {
			pkt, ok := net.Attach(1).RX.RecvTimeout(p, 5*sim.Millisecond)
			if !ok {
				return
			}
			got = append(got, pkt.Payload[0])
		}
	})
	send := func(p *sim.Proc, b byte) {
		pkt := &Packet{Kind: KindData, Src: 0, Dst: 1, Payload: []byte{b}}
		pkt.Seal()
		net.Attach(0).Inject(p, pkt)
	}
	env.Go("tx", func(p *sim.Proc) {
		send(p, 1) // before: delivered
		if net.NodeDown(1) {
			t.Error("node 1 down before the window")
		}
		p.SleepUntil(sim.Millisecond + 1)
		if !net.NodeDown(1) {
			t.Error("node 1 not down inside the window")
		}
		send(p, 2) // during: lost
		p.SleepUntil(3 * sim.Millisecond)
		if net.NodeDown(1) {
			t.Error("node 1 still down after the window")
		}
		send(p, 3) // after: delivered
	})
	env.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("delivered payloads %v, want [1 3]", got)
	}
	if d := counter(net, "outage_drops"); d != 1 {
		t.Fatalf("outage drops = %d, want 1", d)
	}
}

func TestAllDownDropsEverything(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNode(env, 160*hw.MBps, 100)
	net.Install(Schedule{Windows: []Window{{Node: AllNodes, From: 0, To: sim.Millisecond}}})
	received := 0
	env.Go("rx", func(p *sim.Proc) {
		for {
			if _, ok := net.Attach(1).RX.RecvTimeout(p, 2*sim.Millisecond); !ok {
				return
			}
			received++
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			pkt := &Packet{Kind: KindData, Src: 0, Dst: 1, Payload: []byte{byte(i)}}
			pkt.Seal()
			net.Attach(0).Inject(p, pkt)
		}
	})
	env.Run()
	if received != 0 {
		t.Fatalf("%d packets survived a whole-fabric outage", received)
	}
	if d := counter(net, "outage_drops"); d != 4 {
		t.Fatalf("outage drops = %d, want 4", d)
	}
}

// Property: ACK/NACK packets pass untouched through every rule on the
// default kind (data packets).
func TestQuickFaultsSpareControlPackets(t *testing.T) {
	f := func(nRaw uint8, kindRaw uint8) bool {
		n := int(nRaw%5) + 2
		kind := KindAck
		if kindRaw%2 == 0 {
			kind = KindNack
		}
		env := sim.NewEnv(uint64(nRaw))
		for _, r := range []Rule{{Every: n, Do: Drop}, {Every: n, Do: Corrupt}, {Every: n, Do: Duplicate}, {P: 0.9, Do: Drop}} {
			hooks, _ := Schedule{Rules: []Rule{r}}.PerRail(2, 1)
			pkt := &Packet{Kind: kind, Payload: []byte{42}}
			if hooks[0](env, pkt) != Deliver || pkt.Payload[0] != 42 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteTable pins what the dense route table keeps of the map it
// replaced: a route never set and a node that is not on the fabric are
// "no route" (nil from Route, the named panic from inject, not an index
// panic), and a loopback route is present although empty.
func TestRouteTable(t *testing.T) {
	net := NewNetwork(sim.NewEnv(1), "test", 3)
	ab := net.AddLink("a->b", 160*hw.MBps, 500)
	net.SetRoute(0, 1, []int{ab})
	net.SetRoute(0, 0, nil)
	if r := net.Route(0, 1); len(r) != 1 || r[0] != ab {
		t.Fatalf("Route(0,1) = %v, want [%d]", r, ab)
	}
	if r := net.Route(0, 0); r == nil || len(r) != 0 {
		t.Fatalf("loopback Route(0,0) = %#v, want present and empty", r)
	}
	for _, sd := range [][2]int{{0, 2}, {1, 0}, {0, 3}, {0, -1}, {-1, 0}, {7, 7}} {
		if r := net.Route(sd[0], sd[1]); r != nil {
			t.Errorf("Route(%d,%d) = %v, want nil", sd[0], sd[1], r)
		}
	}
	for _, dst := range []int{2, 3, -1} {
		env := sim.NewEnv(1)
		net := twoNode(env, 160*hw.MBps, 500)
		env.Go("tx", func(p *sim.Proc) {
			net.Attach(0).Inject(p, &Packet{Kind: KindData, Src: 0, Dst: dst})
		})
		want := fmt.Sprintf("fabric test: no route 0->%d", dst)
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Errorf("inject to %d: panic %v, want %q", dst, r, want)
				}
			}()
			env.Run()
		}()
		env.Close()
	}
}

// TestWireHistogramMadeByFirstDelivery: the fabric keeps its wire_ns
// histogram instead of looking it up per packet, but the series must
// still appear in the registry with the first delivery and not before
// (an idle rail adds nothing to a snapshot), and SetObs must drop the
// kept one.
func TestWireHistogramMadeByFirstDelivery(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNode(env, 160*hw.MBps, 500)
	send := func() {
		env.Go("tx", func(p *sim.Proc) {
			net.Attach(0).Inject(p, &Packet{Kind: KindData, Src: 0, Dst: 1})
		})
		env.Run()
	}
	wire := func(o *obs.Obs) uint64 {
		for _, h := range o.Snapshot(env.Now()).Hists {
			if h.Node == -1 && h.Layer == "fabric:test" && h.Name == "wire_ns" {
				return h.Count
			}
		}
		return 0
	}
	a, b := obs.New(), obs.New()
	net.SetObs(a)
	if n := len(a.Snapshot(0).Hists); n != 0 {
		t.Fatalf("%d histograms before any delivery, want 0", n)
	}
	send()
	send()
	net.SetObs(b)
	if n := len(b.Snapshot(env.Now()).Hists); n != 0 {
		t.Fatalf("%d histograms in the second registry before any delivery, want 0", n)
	}
	send()
	if wire(a) != 2 || wire(b) != 1 {
		t.Fatalf("wire_ns counts %d and %d, want 2 and 1", wire(a), wire(b))
	}
	net.SetObs(nil)
	send()
	if wire(a) != 2 || wire(b) != 1 {
		t.Fatalf("wire_ns counts %d and %d after SetObs(nil), want 2 and 1", wire(a), wire(b))
	}
}
