// Package bcl is the public API of the semi-user-level communication
// architecture reproduction: a simulated DAWNING-3000-class cluster
// plus the complete communication software stack of Meng et al.,
// "Semi-User-Level Communication Architecture" (IPPS 2002).
//
// The headline object is a Machine — a deterministic discrete-event
// simulation of N SMP nodes joined by a Myrinet-like switched fabric
// or an nwrc 2-D wormhole mesh — on which you start simulated
// processes that communicate through BCL ports (the paper's
// contribution), through the comparator protocols (user-level,
// kernel-level, AM-II-like, BIP-like), or through the upper layers
// (EADI-2, MPI, PVM).
//
// A two-process ping over the semi-user-level path:
//
//	m := bcl.NewMachine(bcl.MachineConfig{Nodes: 2})
//	m.Start(2, []int{0, 1}, func(ctx *bcl.Ctx) {
//		buf := ctx.Alloc(64)
//		if ctx.Rank == 0 {
//			ctx.Write(buf, []byte("hello"))
//			ctx.Port.Send(ctx.P, ctx.Peers[1], bcl.SystemChannel, buf, 5, 0)
//		} else {
//			ev := ctx.Port.WaitRecv(ctx.P)
//			data, _ := ctx.Read(ev.VA, ev.Len)
//			fmt.Printf("got %q\n", data)
//		}
//	})
//	m.Run()
//
// Virtual time is integer nanoseconds; nothing depends on wall-clock
// speed, and runs are bit-for-bit reproducible for a given seed.
package bcl

import (
	"fmt"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/eadi"
	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/mpi"
	"bcl/internal/nic"
	"bcl/internal/node"
	"bcl/internal/obs"
	"bcl/internal/pvm"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// Re-exported simulation types: the process handle and virtual time.
type (
	// Proc is a simulated process handle; blocking operations take it.
	Proc = sim.Proc
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Tracer records stage timelines (Figures 5-7).
	Tracer = trace.Tracer
)

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Re-exported BCL library types.
type (
	// Port is a BCL communication endpoint (one per process).
	Port = ibcl.Port
	// Addr names a process as (node, port).
	Addr = ibcl.Addr
	// PortOptions tunes port creation.
	PortOptions = ibcl.Options
	// Event is a completion event; the wait calls return it by value.
	Event = nic.Event
	// VAddr is a virtual address in a simulated process.
	VAddr = mem.VAddr
	// Profile is a hardware timing profile.
	Profile = hw.Profile
	// MPIComm is a communicator of the mini-MPI over EADI-2.
	MPIComm = mpi.Comm
	// PVMTask is a task of the mini-PVM over EADI-2.
	PVMTask = pvm.Task
	// MPIRequest is a nonblocking MPI operation handle.
	MPIRequest = mpi.Request
)

// SystemChannel is the eager per-process channel id.
const SystemChannel = ibcl.SystemChannel

// MPI reduction datatypes and operators (for MPIComm.Reduce and
// friends).
const (
	MPIFloat64 = mpi.Float64
	MPIInt64   = mpi.Int64
	MPISum     = mpi.Sum
	MPIMax     = mpi.Max
	MPIMin     = mpi.Min
)

// MPI wildcards.
const (
	MPIAnySource = mpi.AnySource
	MPIAnyTag    = mpi.AnyTag
)

// PVM wildcards and encodings.
const (
	PVMAnyTid      = pvm.AnyTid
	PVMAnyTag      = pvm.AnyTag
	PVMDataDefault = pvm.DataDefault
	PVMDataRaw     = pvm.DataRaw
	PVMDataInPlace = pvm.DataInPlace
)

// PVMTid converts a task rank to its task id.
func PVMTid(rank int) int { return pvm.Tid(rank) }

// PVMRank converts a task id back to its rank.
func PVMRank(tid int) int { return pvm.Rank(tid) }

// Event types.
const (
	EvRecvDone   = nic.EvRecvDone
	EvSendDone   = nic.EvSendDone
	EvSendFailed = nic.EvSendFailed
)

// Fabric kinds.
const (
	Myrinet = cluster.Myrinet
	Mesh    = cluster.Mesh
	// Hetero is the cluster-of-clusters configuration: Myrinet among
	// the lower half of the nodes (and as the cross-cluster backbone),
	// the nwrc mesh among the upper half. The same BCL binaries run
	// unmodified — the paper's heterogeneous-network claim.
	Hetero = cluster.Hetero
)

// MachineConfig describes the simulated cluster.
type MachineConfig struct {
	Nodes   int                // default 2
	Fabric  cluster.FabricKind // default Myrinet
	Profile *Profile           // default DAWNING3000
	Seed    uint64             // default 1
}

// Machine is a running simulated cluster with the BCL stack attached.
type Machine struct {
	Cluster *cluster.Cluster
	Sys     *ibcl.System
}

// NewMachine builds the cluster and boots BCL on it.
func NewMachine(cfg MachineConfig) *Machine {
	c := cluster.New(cluster.Config{
		Nodes:   cfg.Nodes,
		Fabric:  cfg.Fabric,
		Profile: cfg.Profile,
		NIC:     ibcl.DefaultNICConfig(),
		Seed:    cfg.Seed,
	})
	return &Machine{Cluster: c, Sys: ibcl.NewSystem(c)}
}

// Nodes returns the node count.
func (m *Machine) Nodes() int { return m.Cluster.Size() }

// Now returns the current virtual time.
func (m *Machine) Now() Time { return m.Cluster.Env.Now() }

// Run executes the simulation until no work remains and returns the
// final virtual time.
func (m *Machine) Run() Time { return m.Cluster.Env.Run() }

// Node returns node i (for stats and advanced use).
func (m *Machine) Node(i int) *node.Node { return m.Cluster.Nodes[i] }

// Ctx is the environment handed to each process started via Start and
// friends: its rank, its simulated process handle, its BCL port, and
// the addresses of every peer in the job.
type Ctx struct {
	Rank  int
	P     *Proc
	Port  *Port
	Peers []Addr
}

// Alloc maps n bytes in the process's address space.
func (c *Ctx) Alloc(n int) VAddr { return c.Port.Process().Space.Alloc(n) }

// Write stores data at va.
func (c *Ctx) Write(va VAddr, data []byte) error {
	return c.Port.Process().Space.Write(va, data)
}

// Read loads n bytes at va.
func (c *Ctx) Read(va VAddr, n int) ([]byte, error) {
	return c.Port.Process().Space.Read(va, n)
}

// Start launches ranks BCL processes; rank i runs on node
// placement[i]. Each body runs in its own simulated process with an
// open port. Call Run afterwards to execute.
func (m *Machine) Start(ranks int, placement []int, body func(ctx *Ctx)) {
	m.StartWithOptions(ranks, placement, PortOptions{SystemBuffers: 64}, body)
}

// StartWithOptions is Start with explicit port options.
func (m *Machine) StartWithOptions(ranks int, placement []int, opts PortOptions, body func(ctx *Ctx)) {
	m.launch("bcl", ranks, placement, opts, func(ports []*Port) {
		peers := ibcl.Addrs(ports)
		for i, pt := range ports {
			ctx := &Ctx{Rank: i, Port: pt, Peers: peers}
			m.Cluster.Env.Go(fmt.Sprintf("rank%d", i), func(rp *sim.Proc) {
				ctx.P = rp
				body(ctx)
			})
		}
	})
}

// launch checks the placement now, so a bad call fails here and not
// inside Run, then boots the job from process kind+"/launch": it opens
// rank i's port on node placement[i] and hands the ports to start,
// which starts the ranks.
func (m *Machine) launch(kind string, ranks int, placement []int, opts PortOptions, start func(ports []*Port)) {
	if len(placement) != ranks {
		panic(fmt.Sprintf("bcl: %d ranks but %d placements", ranks, len(placement)))
	}
	for i, n := range placement {
		if n < 0 || n >= m.Nodes() {
			panic(fmt.Sprintf("bcl: rank %d placed on node %d of a %d-node machine", i, n, m.Nodes()))
		}
	}
	m.Cluster.Env.Go(kind+"/launch", func(p *sim.Proc) {
		ports, err := m.Sys.OpenJob(p, placement, opts)
		if err != nil {
			panic(err.Error())
		}
		start(ports)
	})
}

// eadiPort is the port of an MPI rank or PVM task: eager messages
// land in its system buffers whole.
var eadiPort = PortOptions{SystemBuffers: 64, SystemBufSize: eadi.EagerLimit}

// StartMPI launches an MPI job: rank i runs on node placement[i] with
// a world communicator.
func (m *Machine) StartMPI(ranks int, placement []int, body func(p *Proc, comm *MPIComm)) {
	m.launch("mpi", ranks, placement, eadiPort, func(ports []*Port) {
		for i, dev := range eadi.Job(ports) {
			comm := mpi.World(dev)
			m.Cluster.Env.Go(fmt.Sprintf("mpi/rank%d", i), func(rp *sim.Proc) {
				body(rp, comm)
			})
		}
	})
}

// StartPVM launches a PVM virtual machine: task i runs on node
// placement[i].
func (m *Machine) StartPVM(tasks int, placement []int, body func(p *Proc, task *PVMTask)) {
	m.launch("pvm", tasks, placement, eadiPort, func(ports []*Port) {
		for i, dev := range eadi.Job(ports) {
			tk := pvm.NewTask(dev)
			m.Cluster.Env.Go(fmt.Sprintf("pvm/task%d", i), func(rp *sim.Proc) {
				body(rp, tk)
			})
		}
	})
}

// TraceAll attaches a tracer to every NIC and the fabric, so traced
// messages carry flow spans across host, NIC and wire rows (see
// Tracer.FlowTimeline and Tracer.ChromeTrace).
func (m *Machine) TraceAll(tr *Tracer) { m.Cluster.SetTracer(tr) }

// Metrics is the machine's metrics snapshot at the current virtual
// time: every counter, gauge and histogram the stack publishes to the
// cluster registry, keyed by (node, layer, name). Render it with
// MetricsSnapshot.Text (Prometheus-style) or MetricsSnapshot.JSON.
func (m *Machine) Metrics() *MetricsSnapshot {
	return m.Cluster.Obs.Snapshot(m.Cluster.Env.Now())
}

// FlightRecorder returns the machine's bounded ring of recent protocol
// events (retransmission rounds, peer death/recovery, rail failovers);
// FlightRecorder().Text(n) renders the most recent n.
func (m *Machine) FlightRecorder() *obs.Recorder { return m.Cluster.Obs.Rec }

// MetricsSnapshot is a point-in-time view of the metrics registry.
type MetricsSnapshot = obs.Snapshot
