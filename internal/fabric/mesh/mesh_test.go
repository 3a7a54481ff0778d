package mesh

import (
	"testing"
	"testing/quick"

	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/sim"
)

func TestGridShape(t *testing.T) {
	env := sim.NewEnv(1)
	f := New(env, hw.DAWNING3000(), 10)
	// On a 4x3 grid node 3 ends row 0 and node 9 sits at (1,2).
	if got := len(f.Route(0, 3)); got != 3+2 {
		t.Fatalf("route 0->3 has %d links, want 3 hops + injection + ejection", got)
	}
	if got := len(f.Route(0, 9)); got != 3+2 {
		t.Fatalf("route 0->9 has %d links, want 3 hops + injection + ejection", got)
	}
	if got := len(f.Route(0, 7)); got != 4+2 { // (0,0) -> (3,1)
		t.Fatalf("route 0->7 has %d links, want 4 hops + injection + ejection", got)
	}
}

func TestDimensionOrderRouteLengths(t *testing.T) {
	env := sim.NewEnv(1)
	f := NewGrid(env, hw.DAWNING3000(), 3, 3, 9)
	// Route 0 -> 8 ((0,0) -> (2,2)): injection + 4 grid hops + ejection.
	if got := len(f.Route(0, 8)); got != 6 {
		t.Fatalf("route 0->8 has %d links, want 6", got)
	}
	if got := len(f.Route(4, 4)); got != 0 {
		t.Fatalf("loopback route length = %d, want 0", got)
	}
}

func TestPartialLastRowTransit(t *testing.T) {
	// 4 nodes on a 3x2 grid leave positions 4 and 5 empty; the route
	// 3 -> 5 does not exist (no node 5), but 3 -> 2 transits only real
	// routers and a route crossing the empty corner must still work:
	// node 3 (0,1) -> node 2 (2,0) goes X-first through empty (1,1),
	// (2,1) routers.
	env := sim.NewEnv(1)
	f := NewGrid(env, hw.DAWNING3000(), 3, 2, 4)
	route := f.Route(3, 2)
	if len(route) == 0 {
		t.Fatal("no route 3->2")
	}
	delivered := false
	env.Go("tx", func(p *sim.Proc) {
		pkt := &fabric.Packet{Kind: fabric.KindData, Src: 3, Dst: 2, Payload: []byte("m")}
		pkt.Seal()
		f.Attach(3).Inject(p, pkt)
	})
	env.Go("rx", func(p *sim.Proc) {
		f.Attach(2).RX.Recv(p)
		delivered = true
	})
	env.Run()
	if !delivered {
		t.Fatal("packet lost crossing the partially filled row")
	}
}

func TestAllPairsDeliver(t *testing.T) {
	env := sim.NewEnv(1)
	const n = 9
	f := NewGrid(env, hw.DAWNING3000(), 3, 3, n)
	got := make([][]bool, n)
	for i := range got {
		got[i] = make([]bool, n)
	}
	for s := 0; s < n; s++ {
		src := s
		env.Go("tx", func(p *sim.Proc) {
			for d := 0; d < n; d++ {
				if d == src {
					continue
				}
				pkt := &fabric.Packet{
					Kind: fabric.KindData, Src: src, Dst: d,
					Payload: []byte{byte(src), byte(d)},
				}
				pkt.Seal()
				f.Attach(src).Inject(p, pkt)
			}
		})
	}
	for d := 0; d < n; d++ {
		dst := d
		env.Go("rx", func(p *sim.Proc) {
			for i := 0; i < n-1; i++ {
				pkt := f.Attach(dst).RX.Recv(p)
				if int(pkt.Payload[1]) != dst {
					t.Errorf("node %d received packet for %d", dst, pkt.Payload[1])
				}
				got[pkt.Payload[0]][dst] = true
			}
		})
	}
	env.Run()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d && !got[s][d] {
				t.Fatalf("pair %d->%d never delivered", s, d)
			}
		}
	}
}

func TestFartherIsSlower(t *testing.T) {
	env := sim.NewEnv(1)
	f := NewGrid(env, hw.DAWNING3000(), 4, 4, 16)
	measure := func(src, dst int) sim.Time {
		var at sim.Time
		e := sim.NewEnv(1)
		g := NewGrid(e, hw.DAWNING3000(), 4, 4, 16)
		e.Go("tx", func(p *sim.Proc) {
			pkt := &fabric.Packet{Kind: fabric.KindData, Src: src, Dst: dst, Payload: []byte("q")}
			pkt.Seal()
			g.Attach(src).Inject(p, pkt)
		})
		e.Go("rx", func(p *sim.Proc) {
			g.Attach(dst).RX.Recv(p)
			at = p.Now()
		})
		e.Run()
		return at
	}
	near := measure(0, 1) // 1 hop
	far := measure(0, 15) // 6 hops
	if far <= near {
		t.Fatalf("6-hop latency %d not greater than 1-hop %d", far, near)
	}
	_ = f
	_ = env
}

// Property: on arbitrary grids, every pair has a route whose length is
// the Manhattan distance plus injection and ejection.
func TestQuickRouteLengths(t *testing.T) {
	f := func(xRaw, yRaw, nRaw uint8) bool {
		x := int(xRaw%5) + 1
		y := int(yRaw%5) + 1
		n := int(nRaw)%(x*y) + 1
		env := sim.NewEnv(1)
		fab := NewGrid(env, hw.DAWNING3000(), x, y, n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				route := fab.Route(s, d)
				if s == d {
					if len(route) != 0 {
						return false
					}
					continue
				}
				sx, sy, dx, dy := s%x, s/x, d%x, d/x
				if len(route) != max(sx-dx, dx-sx)+max(sy-dy, dy-sy)+2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
