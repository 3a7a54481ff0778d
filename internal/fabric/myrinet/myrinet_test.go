package myrinet

import (
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/sim"
)

func TestSingleSwitchRoutes(t *testing.T) {
	env := sim.NewEnv(1)
	f := New(env, hw.DAWNING3000(), 8)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			r := f.Route(s, d)
			if s == d {
				if len(r) != 0 {
					t.Fatalf("loopback route %d has %d links", s, len(r))
				}
				continue
			}
			if len(r) != 2 {
				t.Fatalf("route %d->%d has %d links, want 2", s, d, len(r))
			}
		}
	}
}

func TestTreeRoutes(t *testing.T) {
	env := sim.NewEnv(1)
	// The DAWNING-3000 node count: ten leaves under a spine.
	f := New(env, hw.DAWNING3000(), 70)
	if got := len(f.Route(0, 1)); got != 2 { // same leaf
		t.Fatalf("same-leaf route length = %d, want 2", got)
	}
	if got := len(f.Route(0, 69)); got != 4 { // across the spine
		t.Fatalf("cross-leaf route length = %d, want 4", got)
	}
}

func TestEndToEndDelivery(t *testing.T) {
	env := sim.NewEnv(1)
	prof := hw.DAWNING3000()
	f := New(env, prof, 16)
	var lat2, lat4 sim.Time
	send := func(src, dst int, out *sim.Time) {
		env.Go("tx", func(p *sim.Proc) {
			pkt := &fabric.Packet{Kind: fabric.KindData, Src: src, Dst: dst, Payload: []byte("x")}
			pkt.Seal()
			start := p.Now()
			f.Attach(src).Inject(p, pkt)
			_ = start
		})
		env.Go("rx", func(p *sim.Proc) {
			f.Attach(dst).RX.Recv(p)
			*out = p.Now()
		})
	}
	send(0, 1, &lat2)  // same leaf: 2 links
	send(0, 15, &lat4) // cross spine: 4 links
	env.Run()
	if lat2 == 0 || lat4 == 0 {
		t.Fatal("packets not delivered")
	}
	if lat4 <= lat2 {
		t.Fatalf("cross-spine latency %d not greater than same-leaf %d", lat4, lat2)
	}
}
