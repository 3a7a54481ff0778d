// Package cluster assembles a complete simulated machine: a fabric
// (Myrinet or nwrc 2-D mesh) plus one node per attachment point. It is
// the root object every protocol package builds on.
package cluster

import (
	"encoding/binary"
	"fmt"

	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/fabric/mesh"
	"bcl/internal/fabric/myrinet"
	"bcl/internal/hw"
	"bcl/internal/nic"
	"bcl/internal/node"
	"bcl/internal/obs"
	"bcl/internal/obs/health"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// FabricKind selects the system-area network.
type FabricKind string

// Available fabrics.
const (
	Myrinet FabricKind = "myrinet"
	Mesh    FabricKind = "mesh"
	// Hetero gives every node both adapters: Myrinet among the lower
	// half of the nodes and as the cross-cluster backbone, the nwrc
	// mesh among the upper half — the paper's cluster-of-clusters
	// scenario.
	Hetero FabricKind = "hetero"
)

// Config describes the machine to build.
type Config struct {
	Nodes   int
	Fabric  FabricKind
	Profile *hw.Profile
	NIC     nic.Config
	Seed    uint64

	// Watchdog starts the kernel firmware watchdog on every node: the
	// MCP heartbeats, the kernel polls, and a crashed firmware is
	// rebooted and reprogrammed from the kernel's journal.
	Watchdog bool

	// Health attaches the cluster health engine (health.DefaultRules)
	// to the sampler: start one with Obs.StartSampler and alerts,
	// timelines and postmortem bundles appear on Cluster.Health.
	Health bool
}

// Cluster is a running simulated machine.
type Cluster struct {
	Env    *sim.Env
	Prof   *hw.Profile
	Fabric fabric.Fabric
	Nodes  []*node.Node

	// Obs is the machine-wide observability hub: one metrics registry
	// (with pull collectors registered for the fabric, every NIC and
	// every kernel) plus the shared flight recorder.
	Obs *obs.Obs

	// Health is the cluster health engine, non-nil when Config.Health
	// was set. It rides the sampler: derived series, alert timeline and
	// postmortem bundles all come from here.
	Health *health.Engine
}

// New builds a cluster. Zero-value config fields get DAWNING-3000
// defaults: 2 nodes, Myrinet, seed 1.
func New(cfg Config) *Cluster {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.Fabric == "" {
		cfg.Fabric = Myrinet
	}
	if cfg.Profile == nil {
		cfg.Profile = hw.DAWNING3000()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	env := sim.NewEnv(cfg.Seed)
	var fab fabric.Fabric
	switch cfg.Fabric {
	case Myrinet:
		fab = myrinet.New(env, cfg.Profile, cfg.Nodes)
	case Mesh:
		fab = mesh.New(env, cfg.Profile, cfg.Nodes)
	case Hetero:
		fab = hetero.New(env, cfg.Profile, cfg.Nodes, nil)
	default:
		panic(fmt.Sprintf("cluster: unknown fabric %q", cfg.Fabric))
	}
	o := obs.New()
	c := &Cluster{Env: env, Prof: cfg.Profile, Fabric: fab, Obs: o}
	o.RegisterCollector(fab.Collect)
	if so, ok := fab.(interface{ SetObs(*obs.Obs) }); ok {
		// Single-rail networks feed their wire_ns histogram; hetero
		// additionally records failovers/gray steers in the flight
		// recorder and forwards to both rails.
		so.SetObs(o)
	}
	if gc, ok := fab.(interface{ CollectGauges(obs.GaugeSet) }); ok {
		o.RegisterGaugeCollector(gc.CollectGauges)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := node.New(env, cfg.Profile, i, fab, cfg.NIC)
		n.Obs = o
		n.NIC.SetObs(o)
		if hf, ok := fab.(*hetero.Fabric); ok {
			// Dual-rail machines give the NIC's gray-failure detector a
			// rail-steering lever.
			n.NIC.Steer = hf
		}
		if cfg.Watchdog {
			n.Kernel.StartWatchdog()
		}
		o.RegisterCollector(n.NIC.Collect)
		o.RegisterCollector(n.Kernel.Collect)
		o.RegisterGaugeCollector(n.NIC.CollectGauges)
		o.RegisterGaugeCollector(n.Kernel.CollectGauges)
		c.Nodes = append(c.Nodes, n)
	}
	if cfg.Health {
		c.Health = health.NewEngine(health.DefaultRules())
		c.Health.Attach(o)
	}
	return c
}

// SetTracer attaches one tracer to the fabric and every NIC, so host,
// NIC and wire spans land in a single timeline (and, when the health
// engine is on, postmortem bundles can dump the worst flows).
func (c *Cluster) SetTracer(tr *trace.Tracer) {
	c.Fabric.SetTracer(tr)
	for _, n := range c.Nodes {
		n.NIC.Tracer = tr
	}
	if c.Health != nil {
		c.Health.Tracer = tr
	}
}

// Install arms a fault schedule: its rules and windows on the fabric,
// then each crash, in list order, as an event on its node's NIC. It
// panics, naming the entry, on anything the machine cannot run, before
// anything is armed.
func (c *Cluster) Install(s fabric.Schedule) {
	for i, cr := range s.Crashes {
		if uint(cr.Node) >= uint(len(c.Nodes)) {
			panic(fmt.Sprintf("cluster: schedule crash %d %+v: node %d is not on a %d-node machine", i, cr, cr.Node, len(c.Nodes)))
		}
	}
	c.Fabric.Install(fabric.Schedule{Rules: s.Rules, Windows: s.Windows})
	for _, cr := range s.Crashes {
		c.Nodes[cr.Node].NIC.CrashAt(cr.At)
	}
}

// ModelFingerprint folds what the model did: node by node, the NIC's
// completion log and then the fabric's packet log, and last the final
// registry snapshot's JSON, eight bytes to a word. Per-node logs keep
// the order of same-instant events on different nodes, which only the
// scheduler decides, out of it, so a change that reorders or merges
// events without changing a packet, a completion or a counter leaves
// it alone; Env.Fingerprint is the oracle that notices such a change.
func (c *Cluster) ModelFingerprint() uint64 {
	h := sim.FPBasis
	for i, n := range c.Nodes {
		h = sim.Mix(sim.Mix(h, n.NIC.ModelFP()), c.Fabric.ModelFP(i))
	}
	js, err := c.Obs.Snapshot(c.Env.Now()).JSON()
	if err != nil {
		panic(err) // a snapshot holds only numbers and strings
	}
	h = sim.Mix(h, uint64(len(js)))
	for ; len(js) >= 8; js = js[8:] {
		h = sim.Mix(h, binary.LittleEndian.Uint64(js))
	}
	var tail [8]byte
	copy(tail[:], js)
	return sim.Mix(h, binary.LittleEndian.Uint64(tail[:]))
}

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.Nodes) }
