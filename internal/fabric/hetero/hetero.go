// Package hetero builds a heterogeneous system-area network: every
// node carries both a Myrinet adapter and an nwrc mesh adapter, and
// each (source, destination) pair is routed over one of the two
// physical networks by a configurable policy. This models the paper's
// heterogeneous-network claim (and its PM2 reference): because the NIC
// is transparent to user space under the semi-user-level architecture,
// "binary code written in BCL ... can run on any combination of
// networks supporting the BCL protocol" — a cluster of clusters whose
// halves use different fabrics works unmodified.
//
// The composite exposes the ordinary fabric.Fabric interface: packets
// injected at a node choose a rail by policy, and both rails' receive
// sides merge into the node's single logical RX queue, so the NIC
// firmware above is completely unaware that two networks exist.
package hetero

import (
	"fmt"

	"bcl/internal/fabric"
	"bcl/internal/fabric/mesh"
	"bcl/internal/fabric/myrinet"
	"bcl/internal/hw"
	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// Policy picks a rail for a (src, dst) pair: 0 = Myrinet, 1 = mesh.
type Policy func(src, dst int) int

// SplitAt returns the policy of a "cluster of clusters": nodes below
// the split talk Myrinet among themselves, nodes at or above the split
// talk mesh among themselves, and cross-cluster traffic rides the
// Myrinet backbone.
func SplitAt(split int) Policy {
	return func(src, dst int) int {
		if src >= split && dst >= split {
			return 1
		}
		return 0
	}
}

// Fabric is the composite network.
type Fabric struct {
	env       *sim.Env
	policy    Policy
	rails     [2]*fabric.Network // 0 Myrinet, 1 mesh
	endpoints []*fabric.Endpoint

	// Obs, when set (the cluster wires it), records rail failovers in
	// the flight recorder.
	Obs *obs.Obs

	// prefer marks (src,dst) pairs the NIC has asked to steer onto the
	// non-policy rail because the policy rail is gray-degraded (alive
	// but slow). Outage failover still overrides the preference.
	prefer map[[2]int]bool

	// Stats.
	perRail    [2]uint64
	failovers  uint64
	graySteers uint64
}

// New builds the composite for n nodes.
func New(env *sim.Env, prof *hw.Profile, n int, policy Policy) *Fabric {
	if policy == nil {
		policy = SplitAt(n / 2)
	}
	f := &Fabric{env: env, policy: policy}
	f.rails = [2]*fabric.Network{myrinet.New(env, prof, n).Network, mesh.New(env, prof, n).Network}
	for node := 0; node < n; node++ {
		// Both rails deliver straight into the node's one RX queue; the
		// NIC above sees one stream (two physical ports feeding one
		// logical adapter, as dual-rail NICs do).
		rx := sim.NewQueue[*fabric.Packet](env, fmt.Sprintf("hetero/rx%d", node), 0)
		for r := 0; r < 2; r++ {
			f.rails[r].Attach(node).RX = rx
		}
		f.endpoints = append(f.endpoints, f.newEndpoint(node, rx))
	}
	return f
}

// newEndpoint builds the composite endpoint for a node over its merged
// RX queue; packets for either rail are built from rail 0's pool.
func (f *Fabric) newEndpoint(node int, rx *sim.Queue[*fabric.Packet]) *fabric.Endpoint {
	return fabric.NewInjectedEndpoint(node, rx, f.rails[0].Attach(node).Pool(), func(pkt *fabric.Packet, k func(a, b uint64), a, b uint64) bool {
		rail := f.policy(node, pkt.Dst)
		if rail < 0 || rail > 1 {
			panic(fmt.Sprintf("hetero: policy returned rail %d", rail))
		}
		// Gray-failure steering: the NIC's RTT estimator detected the
		// policy rail as degraded-but-alive and asked for the alternate.
		if f.prefer[[2]int{node, pkt.Dst}] && !f.railBlocked(1-rail, node, pkt.Dst) {
			rail = 1 - rail
			f.graySteers++
		}
		// Failover: if the chosen rail is inside an outage window for
		// either end of this packet and the other rail is not, reroute
		// onto the survivor. When the primary recovers, the policy's
		// verdict applies again automatically.
		if f.railBlocked(rail, node, pkt.Dst) && !f.railBlocked(1-rail, node, pkt.Dst) {
			rail = 1 - rail
			f.failovers++
			f.Obs.Event(f.env.Now(), node, "fabric", "rail-failover", pkt.Trace,
				fmt.Sprintf("dst=%d -> %s", pkt.Dst, f.rails[rail].Name()))
		}
		f.perRail[rail]++
		return f.rails[rail].Attach(node).InjectFn(pkt, k, a, b)
	})
}

// railBlocked reports whether rail r cannot currently carry src->dst.
func (f *Fabric) railBlocked(r, src, dst int) bool {
	return f.rails[r].NodeDown(src) || f.rails[r].NodeDown(dst)
}

// Attach implements fabric.Fabric.
func (f *Fabric) Attach(node int) *fabric.Endpoint { return f.endpoints[node] }

// Nodes implements fabric.Fabric.
func (f *Fabric) Nodes() int { return len(f.endpoints) }

// Name implements fabric.Fabric.
func (f *Fabric) Name() string { return "hetero(myrinet+mesh)" }

// SetFault installs the hook on both rails.
func (f *Fabric) SetFault(hook fabric.Fault) {
	f.rails[0].SetFault(hook)
	f.rails[1].SetFault(hook)
}

// Install implements fabric.Fabric: a rule or window on one rail arms
// that rail alone, one on every rail arms both, and a rule on both
// rails keeps one counter, as one hook given to SetFault does.
func (f *Fabric) Install(s fabric.Schedule) {
	hooks, windows := s.PerRail(len(f.endpoints), len(f.rails))
	for r, rail := range f.rails {
		if hooks[r] != nil {
			rail.SetFault(hooks[r])
		}
		rail.Install(fabric.Schedule{Windows: windows[r]})
	}
}

// SetTracer attaches the tracer to both rails, so each physical
// network gets its own "wire:<name>" row.
func (f *Fabric) SetTracer(tr *trace.Tracer) {
	f.rails[0].SetTracer(tr)
	f.rails[1].SetTracer(tr)
}

// Collect publishes the composite's routing counters and forwards to
// both rails, so one snapshot covers the whole dual-rail fabric.
func (f *Fabric) Collect(set obs.Set) {
	set(-1, "fabric:hetero", "myrinet_pkts", f.perRail[0])
	set(-1, "fabric:hetero", "mesh_pkts", f.perRail[1])
	set(-1, "fabric:hetero", "failovers", f.failovers)
	set(-1, "fabric:hetero", "gray_steered", f.graySteers)
	f.rails[0].Collect(set)
	f.rails[1].Collect(set)
}

// CollectGauges publishes the composite's instantaneous state: the
// gray-steer preference count, per-node merged-queue depth, and both
// rails' gauges. A rail's RX queue is the merged queue, counted once
// here, so its rx_queued gauge keeps its place in the snapshot but
// reads zero (bcltop sums rx_queued over every fabric layer).
func (f *Fabric) CollectGauges(set obs.GaugeSet) {
	set(-1, "fabric:hetero", "gray_preferred", int64(len(f.prefer)))
	for node, ep := range f.endpoints {
		set(node, "fabric:hetero", "rx_queued", int64(ep.RX.Len()))
	}
	railSet := func(node int, layer, name string, v int64) {
		if name == "rx_queued" {
			v = 0
		}
		set(node, layer, name, v)
	}
	for _, rail := range f.rails {
		rail.CollectGauges(railSet)
	}
}

// SetObs attaches the observability bundle: failovers and gray steers
// land in the flight recorder, and each rail feeds its own wire_ns
// transit histogram (the health engine's rail-divergence inputs).
func (f *Fabric) SetObs(o *obs.Obs) {
	f.Obs = o
	for _, rail := range f.rails {
		rail.SetObs(o)
	}
}

// ModelFP implements fabric.Fabric: rail 0's packet log, then rail 1's.
func (f *Fabric) ModelFP(node int) uint64 {
	return sim.Mix(sim.Mix(sim.FPBasis, f.rails[0].ModelFP(node)), f.rails[1].ModelFP(node))
}

// NodeDown implements fabric.Fabric: a node is down for the composite
// only when BOTH rails have lost it (otherwise failover still routes).
func (f *Fabric) NodeDown(node int) bool {
	return f.rails[0].NodeDown(node) && f.rails[1].NodeDown(node)
}

// PreferAlternate implements the NIC's gray-failure steering hook
// (nic.RailSteer): while prefer is set for (src, dst), packets between
// the pair ride the non-policy rail. The NIC's per-peer RTT estimator
// flips this when the smoothed RTT blows past the flow's baseline and
// clears it after a hold period to re-probe the primary.
func (f *Fabric) PreferAlternate(src, dst int, prefer bool) {
	if f.prefer == nil {
		f.prefer = make(map[[2]int]bool)
	}
	if prefer {
		f.prefer[[2]int{src, dst}] = true
	} else {
		delete(f.prefer, [2]int{src, dst})
	}
	f.Obs.Event(f.env.Now(), src, "fabric", "gray-steer", 0,
		fmt.Sprintf("dst=%d prefer-alternate=%v", dst, prefer))
}

// GraySteers reports how many packets were steered off their policy
// rail by gray-failure detection.
func (f *Fabric) GraySteers() uint64 { return f.graySteers }
