// Package mesh builds the nwrc 2-D mesh fabric: a grid of custom
// wormhole routing chips (nwrc1032: 40 MHz, six 32-bit channels — one
// to the local NIC, four to grid neighbours, so a 32-bit channel at
// 40 MHz moves 160 MB/s). Routing is dimension-ordered (X first, then
// Y), which is deadlock-free for wormhole switching.
package mesh

import (
	"fmt"

	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/sim"
)

// ChannelBandwidth is the per-channel bandwidth of the nwrc1032 chip:
// 32 bits x 40 MHz.
const ChannelBandwidth = 160 * hw.MBps

// Fabric is an X-by-Y nwrc mesh. Node i sits at (i % X, i / X).
type Fabric struct {
	*fabric.Network
}

// New builds a mesh covering n nodes as close to square as possible.
func New(env *sim.Env, prof *hw.Profile, n int) *Fabric {
	x := 1
	for x*x < n {
		x++
	}
	y := (n + x - 1) / x
	return NewGrid(env, prof, x, y, n)
}

// NewGrid builds an explicit x-by-y mesh serving node ids [0, n).
func NewGrid(env *sim.Env, prof *hw.Profile, x, y, n int) *Fabric {
	if n < 1 || n > x*y {
		panic(fmt.Sprintf("mesh: %d nodes do not fit %dx%d", n, x, y))
	}
	net := fabric.NewNetwork(env, "nwrc-mesh", n)
	f := &Fabric{Network: net}

	hop := prof.WireLatency + routerLatency(prof)

	// Per-node injection/ejection channels to the local router.
	up := make([]int, n)
	down := make([]int, n)
	for i := 0; i < n; i++ {
		up[i] = net.AddLink(ChannelBandwidth, hop)
		down[i] = net.AddLink(ChannelBandwidth, prof.WireLatency)
	}
	// Directed links between adjacent routers, keyed by (from,to).
	grid := make(map[[2]int]int)
	addDir := func(a, b int) {
		grid[[2]int{a, b}] = net.AddLink(ChannelBandwidth, hop)
	}
	at := func(cx, cy int) int { return cy*x + cx }
	// Routers exist at every grid position, even positions with no
	// node attached: X-first routing in a partially filled last row
	// can transit them.
	for cy := 0; cy < y; cy++ {
		for cx := 0; cx < x; cx++ {
			a := at(cx, cy)
			if cx+1 < x {
				addDir(a, at(cx+1, cy))
				addDir(at(cx+1, cy), a)
			}
			if cy+1 < y {
				addDir(a, at(cx, cy+1))
				addDir(at(cx, cy+1), a)
			}
		}
	}

	// Dimension-order routes: X first, then Y.
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				net.SetRoute(s, d, nil)
				continue
			}
			route := []int{up[s]}
			sx, sy := s%x, s/x
			dx, dy := d%x, d/x
			cx, cy := sx, sy
			for cx != dx {
				nx := cx + sign(dx-cx)
				route = append(route, grid[[2]int{at(cx, cy), at(nx, cy)}])
				cx = nx
			}
			for cy != dy {
				ny := cy + sign(dy-cy)
				route = append(route, grid[[2]int{at(cx, cy), at(cx, ny)}])
				cy = ny
			}
			route = append(route, down[d])
			net.SetRoute(s, d, route)
		}
	}
	return f
}

// routerLatency derives the per-router cut-through latency from the
// profile's switch latency (the nwrc1032 runs at 40 MHz: a few cycles
// of 25 ns each; the profile constant covers it).
func routerLatency(prof *hw.Profile) sim.Time { return prof.SwitchLatency }

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}
