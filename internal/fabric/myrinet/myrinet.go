// Package myrinet builds a Myrinet-like switched fabric: full-crossbar
// 8-port switches (M2M-OCT-SW8), 160 MB/s links, source routing with
// cut-through forwarding. Up to 8 nodes hang off a single switch; more
// nodes get a two-level tree of leaf switches under a spine switch,
// which keeps routing acyclic (up*/down*, so the wormhole engine
// cannot deadlock).
package myrinet

import (
	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/sim"
)

// SwitchPorts is the port count of one switch (M2M-OCT-SW8).
const SwitchPorts = 8

// Fabric is a Myrinet network.
type Fabric struct {
	*fabric.Network
}

// New builds a fabric for n nodes using the timing constants in prof.
func New(env *sim.Env, prof *hw.Profile, n int) *Fabric {
	if n < 1 {
		panic("myrinet: need at least one node")
	}
	net := fabric.NewNetwork(env, "myrinet", n)
	f := &Fabric{Network: net}

	if n <= SwitchPorts {
		buildSingleSwitch(net, prof, n)
	} else {
		buildTree(net, prof, n)
	}
	// Loopback routes (same node) are empty: the NIC short-circuits.
	for i := 0; i < n; i++ {
		net.SetRoute(i, i, nil)
	}
	return f
}

// buildSingleSwitch wires n nodes to one crossbar.
func buildSingleSwitch(net *fabric.Network, prof *hw.Profile, n int) {
	up := make([]int, n)   // node -> switch
	down := make([]int, n) // switch -> node
	for i := 0; i < n; i++ {
		up[i] = net.AddLink(prof.LinkBandwidth, prof.WireLatency+prof.SwitchLatency)
		down[i] = net.AddLink(prof.LinkBandwidth, prof.WireLatency)
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			net.SetRoute(s, d, []int{up[s], down[d]})
		}
	}
}

// buildTree wires leaf switches (7 nodes + 1 uplink each) under a
// spine switch.
func buildTree(net *fabric.Network, prof *hw.Profile, n int) {
	perLeaf := SwitchPorts - 1
	leaves := (n + perLeaf - 1) / perLeaf
	leafOf := func(node int) int { return node / perLeaf }

	up := make([]int, n)
	down := make([]int, n)
	for i := 0; i < n; i++ {
		up[i] = net.AddLink(prof.LinkBandwidth, prof.WireLatency+prof.SwitchLatency)
		down[i] = net.AddLink(prof.LinkBandwidth, prof.WireLatency)
	}
	leafUp := make([]int, leaves)
	leafDown := make([]int, leaves)
	for l := 0; l < leaves; l++ {
		leafUp[l] = net.AddLink(prof.LinkBandwidth, prof.WireLatency+prof.SwitchLatency)
		leafDown[l] = net.AddLink(prof.LinkBandwidth, prof.WireLatency+prof.SwitchLatency)
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if leafOf(s) == leafOf(d) {
				net.SetRoute(s, d, []int{up[s], down[d]})
			} else {
				net.SetRoute(s, d, []int{up[s], leafUp[leafOf(s)], leafDown[leafOf(d)], down[d]})
			}
		}
	}
}
