package bench

import (
	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/eadi"
	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/mpi"
	"bcl/internal/sim"
	"bcl/internal/ulc"
)

// This file is the harness's one fixture and its three measurement
// methodologies. Every experiment that drives BCL ports gets them from
// a rig; every warm-latency, streaming and ping-pong number in the
// reports comes from the one loop below — the paper's tables compare
// stacks by applying the same methodology to each, and so do ours.

// rig is a booted cluster with BCL attached and its open ports.
type rig struct {
	c     *cluster.Cluster
	sys   *ibcl.System
	ports []*ibcl.Port
}

// newRig attaches BCL to c, opens one port per entry of place (the
// node its fresh process lives on) with opts, and runs the clock to
// the absolute time boot. Boot horizons differ per caller and must not
// be unified: fault schedules are offsets from Env.Now() after boot.
func newRig(c *cluster.Cluster, place []int, opts ibcl.Options, boot sim.Time) *rig {
	r := attach(c)
	ports, err := r.sys.Boot(place, opts, boot)
	if err != nil {
		panic("bench: " + err.Error())
	}
	r.ports = ports
	return r
}

// attach is the rig of an experiment whose processes open their own
// ports (scheduler job bodies, service drivers) through open.
func attach(c *cluster.Cluster) *rig { return &rig{c: c, sys: ibcl.NewSystem(c)} }

// open spawns a process on node n and opens its port. A failed open is
// a harness bug: it panics here, naming the port, instead of
// surfacing as a nil dereference somewhere inside the experiment.
func (r *rig) open(p *sim.Proc, n int, opts ibcl.Options) *ibcl.Port {
	ports, err := r.sys.OpenJob(p, []int{n}, opts)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return ports[0]
}

// pairRig is the two-port rig of the point-to-point measurements: 64
// system buffers a side, both processes on node 0 when intra is set.
func pairRig(cfg cluster.Config, intra bool) *rig {
	return newRig(newCluster(cfg), pairPlace(intra), ibcl.Options{SystemBuffers: 64}, 20*sim.Millisecond)
}

// pairPlace places two processes, both on node 0 when intra is set.
func pairPlace(intra bool) []int {
	if intra {
		return []int{0, 0}
	}
	return []int{0, 1}
}

// bclPair is pairRig on the stock two-node BCL machine.
func bclPair(prof *hw.Profile, intra bool) *rig {
	return pairRig(cluster.Config{Nodes: 2, Profile: prof, NIC: ibcl.DefaultNICConfig()}, intra)
}

// mpiWorld opens one eager-sized port per entry of place and wraps
// them as the EADI devices of one job, rank i on place[i] — what MPI
// communicators and PVM tasks are built on.
func mpiWorld(cfg cluster.Config, place []int, boot sim.Time) (*cluster.Cluster, []*eadi.Device) {
	rg := newRig(newCluster(cfg), place, ibcl.Options{SystemBuffers: 64, SystemBufSize: eadi.EagerLimit}, boot)
	return rg.c, eadi.Job(rg.ports)
}

// mpiComms is mpiWorld as MPI_COMM_WORLD, one communicator per rank.
func mpiComms(cfg cluster.Config, place []int, boot sim.Time) (*cluster.Cluster, []*mpi.Comm) {
	c, devs := mpiWorld(cfg, place, boot)
	comms := make([]*mpi.Comm, len(devs))
	for i, dev := range devs {
		comms[i] = mpi.World(dev)
	}
	return c, comms
}

// oneRankPerNode is the placement of an n-rank job on n nodes.
func oneRankPerNode(n int) []int {
	place := make([]int, n)
	for i := range place {
		place[i] = i
	}
	return place
}

// ------------------------------------------------------- methodologies

// side is one end of a prepared port pair, bound to its peer: the slice
// of a port the methodologies drive. BCL and ULC ports have the same
// methods over different Addr types, so each pair is bound into
// closures once (bclSides, ulcSides) and every loop below exists once.
// KLC sockets and AM-II handlers differ in kind and stay bespoke.
type side struct {
	space    *mem.AddrSpace
	channel  func() int
	register func(p *sim.Proc, va mem.VAddr, n int) // user-level pinning; nil when the kernel pins on the send path
	send     func(p *sim.Proc, ch int, va mem.VAddr, n int)
	post     func(p *sim.Proc, ch int, va mem.VAddr, n int)
	waitRecv func(p *sim.Proc)
	waitSend func(p *sim.Proc)
}

// alloc returns an n-byte buffer the end may send from or receive into.
func (e side) alloc(p *sim.Proc, n int) mem.VAddr {
	va := e.space.Alloc(n)
	if e.register != nil {
		e.register(p, va, n)
	}
	return va
}

func bclSides(a, b *ibcl.Port) (side, side) {
	bind := func(me, peer *ibcl.Port) side {
		return side{
			space:    me.Process().Space,
			channel:  me.CreateChannel,
			send:     func(p *sim.Proc, ch int, va mem.VAddr, n int) { me.Send(p, peer.Addr(), ch, va, n, 0) },
			post:     func(p *sim.Proc, ch int, va mem.VAddr, n int) { me.PostRecv(p, ch, va, n) },
			waitRecv: func(p *sim.Proc) { me.WaitRecv(p) },
			waitSend: func(p *sim.Proc) { me.WaitSend(p) },
		}
	}
	return bind(a, b), bind(b, a)
}

func ulcSides(a, b *ulc.Port) (side, side) {
	bind := func(me, peer *ulc.Port) side {
		return side{
			space:    me.Process().Space,
			channel:  me.CreateChannel,
			register: func(p *sim.Proc, va mem.VAddr, n int) { me.Register(p, va, n) },
			send:     func(p *sim.Proc, ch int, va mem.VAddr, n int) { me.Send(p, peer.Addr(), ch, va, n, 0) },
			post:     func(p *sim.Proc, ch int, va mem.VAddr, n int) { me.PostRecv(p, ch, va, n) },
			waitRecv: func(p *sim.Proc) { me.WaitRecv(p) },
			waitSend: func(p *sim.Proc) { me.WaitSend(p) },
		}
	}
	return bind(a, b), bind(b, a)
}

// pair is a prepared port pair on its cluster: what the three
// methodologies run over.
type pair struct {
	c    *cluster.Cluster
	a, b side
}

// pair binds the rig's first two ports.
func (r *rig) pair() pair {
	a, b := bclSides(r.ports[0], r.ports[1])
	return pair{r.c, a, b}
}

// bufFor is the buffer a size-byte message uses (0-byte messages still
// name a real buffer).
func bufFor(size int) int {
	if size == 0 {
		return 64
	}
	return size
}

// warmLatency measures warm one-way latency for size bytes on a normal
// channel with a preposted (and re-posted) buffer: the last of four
// paced sends, so pin-table misses stay off the measurement.
func (pr pair) warmLatency(size int) sim.Time {
	c, a, b := pr.c, pr.a, pr.b
	const iters = 4
	bufN := bufFor(size)
	ch := b.channel()
	sendAt := make([]sim.Time, iters)
	var warm sim.Time
	c.Env.Go("recv", func(p *sim.Proc) {
		rva := b.alloc(p, bufN)
		b.post(p, ch, rva, bufN)
		for i := 0; i < iters; i++ {
			b.waitRecv(p)
			warm = p.Now() - sendAt[i]
			if i < iters-1 {
				b.post(p, ch, rva, bufN)
			}
		}
	})
	c.Env.Go("send", func(p *sim.Proc) {
		va := a.alloc(p, bufN)
		p.Sleep(100 * sim.Microsecond)
		for i := 0; i < iters; i++ {
			sendAt[i] = p.Now()
			a.send(p, ch, va, size)
			a.waitSend(p)
			p.Sleep(300 * sim.Microsecond)
		}
	})
	c.Env.RunUntil(c.Env.Now() + sim.Second)
	return warm
}

// stream measures streaming bandwidth in MB/s: msgs back-to-back
// messages of size bytes into preposted buffers.
func (pr pair) stream(size, msgs int) float64 {
	c, a, b := pr.c, pr.a, pr.b
	var start, end sim.Time
	ready := false
	c.Env.Go("recv", func(p *sim.Proc) {
		// A kernel-pinned receiver gives every message its own buffer (each
		// is pinned on posting, before the clock starts); a user-level one
		// reposts its single registered buffer — registered memory is all
		// its NIC can translate without a miss.
		va := b.alloc(p, size)
		for i := 0; i < msgs; i++ {
			if i > 0 && b.register == nil {
				va = b.alloc(p, size)
			}
			b.post(p, i+1, va, size)
		}
		ready = true
		// The first message is warm-up: the clock starts when it has
		// fully arrived, so pin-table misses stay off the measurement.
		b.waitRecv(p)
		start = p.Now()
		for i := 1; i < msgs; i++ {
			b.waitRecv(p)
		}
		end = p.Now()
	})
	c.Env.Go("send", func(p *sim.Proc) {
		va := a.alloc(p, size)
		for !ready {
			p.Sleep(50 * sim.Microsecond)
		}
		for i := 0; i < msgs; i++ {
			a.send(p, i+1, va, size)
		}
		for i := 0; i < msgs; i++ {
			a.waitSend(p)
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return mbps((msgs-1)*size, end-start)
}

// pingPong measures RTT/2 with receive re-posting inside the loop — the
// Figure 7 methodology that exposes the full semi-user-level kernel
// cost (send trap + re-posting trap). warm rounds run before the clock
// starts.
func (pr pair) pingPong(size, warm, iters int) sim.Time {
	c, a, b := pr.c, pr.a, pr.b
	bufN := bufFor(size)
	chA, chB := a.channel(), b.channel()
	var rtt sim.Time
	c.Env.Go("a", func(p *sim.Proc) {
		va := a.alloc(p, bufN)
		a.post(p, chA, va, bufN)
		p.Sleep(200 * sim.Microsecond)
		var start sim.Time
		for i := -warm; i < iters; i++ {
			if i == 0 {
				start = p.Now()
			}
			a.send(p, chB, va, size)
			a.waitRecv(p)
			a.post(p, chA, va, bufN)
		}
		rtt = (p.Now() - start) / sim.Time(iters)
	})
	c.Env.Go("b", func(p *sim.Proc) {
		va := b.alloc(p, bufN)
		b.post(p, chB, va, bufN)
		for i := 0; i < warm+iters; i++ {
			b.waitRecv(p)
			b.post(p, chB, va, bufN)
			b.send(p, chA, va, size)
		}
	})
	c.Env.RunUntil(c.Env.Now() + sim.Second)
	return rtt / 2
}
