// Package bcl implements BCL (Basic Communication Library), the
// paper's semi-user-level communication architecture.
//
// The architecture in one paragraph: the message-SENDING path traps
// into the OS kernel — the BCL kernel module validates the request
// (PID, buffer bounds, destination), translates and pins the buffer
// through the pin-down page table, and fills the send descriptor into
// NIC memory by programmed IO; the NIC is never touched from user
// space. The message-RECEIVING path has no kernel at all: the MCP
// firmware DMAs payload directly into the posted user buffer and DMAs
// a completion event into the port's event queue, which the process
// polls. No interrupts anywhere.
//
// A Port is the unit of addressing: each process creates one port, and
// (node, port) names a process. Each port owns a send request queue on
// the NIC, a receive buffer pool, and send/receive event queues. Three
// channel types carry messages:
//
//   - the system channel (channel 0): small eager messages landing in a
//     FIFO pool of preposted buffers;
//   - normal channels: rendezvous semantics — the receiver binds a
//     user buffer to the channel before the sender transmits;
//   - open channels: RMA — once a buffer is bound, remote processes
//     read and write it with no receiver involvement.
//
// Intra-node communication bypasses the NIC entirely: a shared-memory
// queue with pipelined chunked copies (both copies contend on the
// node's memory system, which is why intra-node bandwidth plateaus
// near half the raw memcpy rate).
package bcl

import (
	"errors"
	"fmt"

	"bcl/internal/cluster"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/node"
	"bcl/internal/obs"
	"bcl/internal/oskernel"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// SystemChannel is the channel id of the per-process system channel.
const SystemChannel = 0

// Errors surfaced by the library.
var (
	ErrClosed     = errors.New("bcl: port closed")
	ErrBadChannel = errors.New("bcl: invalid channel")
	ErrNoSuchPort = errors.New("bcl: no port at address")
)

// Addr names a process: the pair of node number and port number.
type Addr struct {
	Node int
	Port int
}

func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Node, a.Port) }

// Options tunes port creation.
type Options struct {
	SystemBuffers int // preposted system-channel pool entries (default 16)
	SystemBufSize int // size of each pool buffer (default MaxPacket)
	Tracer        *trace.Tracer

	// Label tags the port with the job it belongs to. Labeled ports
	// publish an extra per-job copy of their counters under the "job"
	// metrics layer (name-prefixed with the label) and label their trace
	// rows, so multi-tenant runs can attribute traffic to tenants.
	Label string
	// QoSWeight is the endpoint's send-DMA arbitration weight: the
	// number of wire fragments the NIC grants it per weighted
	// round-robin round when the card runs with Config.QoS. 0 means 1.
	QoSWeight int
}

// System is the cluster-wide BCL instance: it owns the port registry
// used for intra-node delivery and address validation.
type System struct {
	Cluster *cluster.Cluster
	ports   map[Addr]*Port
	nextID  []int // per-node next port number
}

// NewSystem attaches BCL to a cluster. The cluster's NICs should be
// configured with nic.Config{Translate: HostTranslated, Completion:
// UserEventQueue, Reliable: true} — the semi-user-level configuration
// (see DefaultNICConfig).
func NewSystem(c *cluster.Cluster) *System {
	return &System{
		Cluster: c,
		ports:   make(map[Addr]*Port),
		nextID:  make([]int, c.Size()),
	}
}

// DefaultNICConfig is the NIC firmware configuration BCL expects.
func DefaultNICConfig() nic.Config {
	return nic.Config{
		Translate:  nic.HostTranslated,
		Completion: nic.UserEventQueue,
		Reliable:   true,
	}
}

// Port is one process's BCL endpoint.
type Port struct {
	sys   *System
	node  *node.Node
	proc  *oskernel.Process
	addr  Addr
	tr    *trace.Tracer
	label string // owning job's label ("" = unlabeled)
	row   string // "host<node>" or "host<node>[<label>]", the trace row

	nicPort *nic.Port
	events  *sim.Queue[nic.Event] // nicPort.RecvEvQ: the NIC and the intra engine both post here
	sendEvs *sim.Queue[nic.Event] // nicPort.SendEvQ, likewise
	pending sim.Ring[nic.Event]   // receive events set aside by selective waits

	intraQ   *sim.Queue[*intraFrag]
	fragFree sim.FreeList[*intraFrag] // fragments bound for this port, retired
	nextChan int
	closed   bool

	// Stats.
	sent, received uint64
	bytesSent      uint64
	bytesReceived  uint64

	sysBufSize int         // bytes of each system-channel pool buffer
	returns    []mem.VAddr // consumed pool buffers awaiting one batched return
}

// Open creates the port for a process (each process creates exactly
// one). Port numbers are assigned per node. Opening traps into the
// kernel: port registration programs the NIC.
func (s *System) Open(p *sim.Proc, n *node.Node, proc *oskernel.Process, opts Options) (*Port, error) {
	if opts.SystemBuffers == 0 {
		opts.SystemBuffers = 16
	}
	if opts.SystemBufSize == 0 {
		opts.SystemBufSize = n.Prof.MaxPacket
	}
	s.nextID[n.ID]++
	pt := &Port{
		sys:        s,
		node:       n,
		proc:       proc,
		addr:       Addr{Node: n.ID, Port: s.nextID[n.ID]},
		tr:         opts.Tracer,
		label:      opts.Label,
		sysBufSize: opts.SystemBufSize,
		returns:    make([]mem.VAddr, 0, returnBatch),
		intraQ:     sim.NewQueue[*intraFrag](n.Env, "bcl/intra", 0),
		nextChan:   1,
	}
	pt.row = fmt.Sprintf("host%d", n.ID)
	if pt.label != "" {
		pt.row += "[" + pt.label + "]"
	}
	err := n.Kernel.Trap(p, func() error {
		if err := n.Kernel.CheckRequest(p, proc.PID, 0, 0, n.ID, s.Cluster.Size()); err != nil {
			return err
		}
		// Allocate the virtualized endpoint: bind it to the calling
		// process (from here on, send-path requests naming it are
		// admitted only from this PID), then program the port control
		// block, QoS arbitration weight included, into NIC memory.
		if err := n.Kernel.BindEndpoint(proc.PID, pt.addr.Port); err != nil {
			return err
		}
		pt.nicPort = n.Kernel.RegisterPort(p, pt.addr.Port, opts.QoSWeight)
		pt.events, pt.sendEvs = pt.nicPort.RecvEvQ, pt.nicPort.SendEvQ
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Publish the library-level counters into the cluster registry.
	// Ports are not closed during the runs we snapshot, so the collector
	// outliving a Close only re-reports final values. A labeled port
	// also reports them under the "job" layer, keyed by the owning
	// job's label (per-tenant attribution; the names are made here, not
	// per snapshot).
	var job [4]string
	if pt.label != "" {
		for i, c := range [...]string{"sent", "received", "bytes_sent", "bytes_received"} {
			job[i] = pt.label + "/" + c
		}
	}
	n.Obs.RegisterCollector(func(set obs.Set) {
		set(pt.addr.Node, "bcl", "sent", pt.sent)
		set(pt.addr.Node, "bcl", "received", pt.received)
		set(pt.addr.Node, "bcl", "bytes_sent", pt.bytesSent)
		set(pt.addr.Node, "bcl", "bytes_received", pt.bytesReceived)
		if pt.label != "" {
			set(pt.addr.Node, "job", job[0], pt.sent)
			set(pt.addr.Node, "job", job[1], pt.received)
			set(pt.addr.Node, "job", job[2], pt.bytesSent)
			set(pt.addr.Node, "job", job[3], pt.bytesReceived)
		}
	})

	// Initialize the system-channel buffer pool.
	for i := 0; i < opts.SystemBuffers; i++ {
		va := proc.Space.Alloc(opts.SystemBufSize)
		if err := pt.addSystemBuffer(p, va, opts.SystemBufSize); err != nil {
			return nil, err
		}
	}

	// The port is open: visible to intra-node senders and counted by
	// Boot from here on.
	s.ports[pt.addr] = pt

	// Intra-node delivery engine: the port's one process. It posts its
	// completions into the NIC port's event queues, so intra-node and
	// inter-node events share one wait point with no forwarder.
	n.Env.Go(fmt.Sprintf("bcl/%v/intra", pt.addr), pt.intraEngine)
	return pt, nil
}

// Addr returns the port's cluster-wide address.
func (pt *Port) Addr() Addr { return pt.addr }

// Node returns the node hosting the port.
func (pt *Port) Node() *node.Node { return pt.node }

// Process returns the owning process.
func (pt *Port) Process() *oskernel.Process { return pt.proc }

// PeerHealthy reports the local NIC firmware's liveness belief about
// a remote node: false once retry exhaustion marked it Dead, true
// again after probe-based recovery. The local node is always healthy
// (intra-node traffic never touches the fabric).
func (pt *Port) PeerHealthy(node int) bool {
	if node == pt.addr.Node {
		return true
	}
	return pt.node.NIC.PeerHealthy(node)
}

// Tracer returns the port's tracer (may be nil).
func (pt *Port) Tracer() *trace.Tracer { return pt.tr }

// SetTracer installs a stage tracer.
func (pt *Port) SetTracer(tr *trace.Tracer) { pt.tr = tr }

// CreateChannel allocates a fresh channel id on this port (used for
// both normal and open channels; id 0 is the system channel).
func (pt *Port) CreateChannel() int {
	id := pt.nextChan
	pt.nextChan++
	return id
}

// Close tears the port down and ends its intra-node engine.
func (pt *Port) Close(p *sim.Proc) error {
	if pt.closed {
		return ErrClosed
	}
	pt.closed = true
	delete(pt.sys.ports, pt.addr)
	pt.intraQ.Post(nil)
	return pt.node.Kernel.Trap(p, func() error {
		pt.node.Kernel.ClosePort(pt.addr.Port)
		return nil
	})
}

// lookup finds a port in the registry.
func (s *System) lookup(a Addr) (*Port, bool) {
	pt, ok := s.ports[a]
	return pt, ok
}
