// Package mpi implements a compact MPI-style message passing library
// over EADI-2, mirroring the DAWNING-3000 software stack (paper
// Figure 1: MPI -> EADI-2 -> BCL). It provides blocking point-to-point
// operations with tag/source matching and wildcards, communicator
// contexts, and the classic collective algorithms (dissemination
// barrier, binomial broadcast and reduce, ring allgather).
//
// Reductions operate on real data in simulated process memory: the
// bytes are read, decoded, combined and written back, so collective
// results are verifiable, not just timed.
package mpi

import (
	"bcl/internal/eadi"
	"bcl/internal/mem"
	"bcl/internal/nic/coll"
	"bcl/internal/sim"
)

// Wildcards, mirroring eadi's.
const (
	AnySource = eadi.AnySource
	AnyTag    = eadi.AnyTag
)

// internalTag is the base of the tag space reserved for collectives.
const internalTag = 1 << 24

// Datatype describes the element type of a reduction.
type Datatype int

// Supported datatypes.
const (
	Float64 Datatype = iota
	Int64
)

// Size returns the element size in bytes.
func (d Datatype) Size() int { return 8 }

// Op is a reduction operator.
type Op int

// Supported reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

// Status describes a completed receive.
type Status = eadi.Status

// Comm is a communicator: a context over the job's process group.
type Comm struct {
	dev  *eadi.Device
	ctx  int
	coll *eadi.CollContext // NIC offload context, nil = host algorithms

	// Scratch of the host algorithms, in the rank's own memory: mapped
	// on first use and kept, so after the first collective every send
	// from it and receive into it hits the pin-down table, as a
	// registered buffer would (eadi.CollContext and pvm.Task keep theirs
	// the same way; the address space has no Free).
	acc      mem.VAddr // reduction accumulator, then the incoming partial: scratchN bytes each
	scratchN int
	token    mem.VAddr // barrier notification byte
	fold     []byte    // combine's two operands, side by side
}

// World wraps an EADI device as the world communicator (context 0).
func World(dev *eadi.Device) *Comm { return &Comm{dev: dev, ctx: 0} }

// Dup returns a communicator with a fresh context, isolating its
// traffic from the parent's. An attached offload context carries over
// (it covers the same process group).
func (c *Comm) Dup(ctx int) *Comm { return &Comm{dev: c.dev, ctx: ctx, coll: c.coll} }

// AttachColl enables NIC collective offload: Barrier/Bcast/Reduce/
// Allreduce transparently use the offloaded path when the payload fits
// one packet, falling back to the host algorithms otherwise.
func (c *Comm) AttachColl(cc *eadi.CollContext) { c.coll = cc }

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.dev.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.dev.Size() }

// Device returns the underlying EADI device.
func (c *Comm) Device() *eadi.Device { return c.dev }

func (c *Comm) space() *mem.AddrSpace { return c.dev.Port().Process().Space }

// copyLocal is the rank's own memcpy: n bytes from src to dst inside
// its address space, charged at the node's copy rate. A copy that
// faults moves nothing and charges nothing.
func (c *Comm) copyLocal(p *sim.Proc, dst, src mem.VAddr, n int) error {
	if err := c.space().Copy(dst, src, n); err != nil {
		return err
	}
	c.dev.Port().Node().Memcpy(p, n)
	return nil
}

// Send transmits n bytes at va to rank dst with the given tag,
// blocking until the buffer is reusable. A send to the caller's own
// rank goes through the device like any other (intra-node path).
func (c *Comm) Send(p *sim.Proc, va mem.VAddr, n, dst, tag int) error {
	return c.dev.Send(p, dst, c.ctx, tag, va, n)
}

// Recv blocks until a matching message lands in [va, va+n).
func (c *Comm) Recv(p *sim.Proc, va mem.VAddr, n, src, tag int) (Status, error) {
	return c.dev.Recv(p, src, c.ctx, tag, va, n)
}

// Sendrecv exchanges messages with two peers without deadlocking. The
// operation order is decided by comparing ranks: the lower-ranked end
// of each send edge sends first, the higher-ranked end receives first.
// In any communication cycle (pairwise exchange, shifted rings, the
// dissemination pattern) the wrap-around edge therefore has exactly
// one receive-first node, which breaks the wait cycle even when every
// message is a blocking rendezvous.
func (c *Comm) Sendrecv(p *sim.Proc, sendVA mem.VAddr, sendN, dst, sendTag int,
	recvVA mem.VAddr, recvN, src, recvTag int) (Status, error) {
	if c.Rank() < dst {
		if err := c.Send(p, sendVA, sendN, dst, sendTag); err != nil {
			return Status{}, err
		}
		return c.Recv(p, recvVA, recvN, src, recvTag)
	}
	st, err := c.Recv(p, recvVA, recvN, src, recvTag)
	if err != nil {
		return st, err
	}
	return st, c.Send(p, sendVA, sendN, dst, sendTag)
}

// Barrier blocks until every rank has entered it. With an offload
// context attached it is one NIC combine (one trap per rank);
// otherwise the dissemination algorithm runs ceil(log2 n) rounds of
// pairwise notifications.
func (c *Comm) Barrier(p *sim.Proc) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	if c.coll != nil {
		return c.coll.Barrier(p)
	}
	rank := c.Rank()
	if c.token == 0 {
		c.token = c.space().Alloc(8)
	}
	for k := 1; k < size; k <<= 1 {
		dst := (rank + k) % size
		src := (rank - k + size) % size
		tag := internalTag + 1000 + k
		if _, err := c.Sendrecv(p, c.token, 1, dst, tag, c.token, 1, src, tag); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes n bytes at va from root to every rank: one NIC
// multicast when offloaded, a binomial tree of point-to-point messages
// otherwise.
func (c *Comm) Bcast(p *sim.Proc, va mem.VAddr, n, root int) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	if c.coll != nil && n <= c.coll.MaxPayload() {
		return c.coll.Bcast(p, root, va, n)
	}
	return c.bcastOn(p, coll.Binomial(size, root), va, n, internalTag+2000)
}

// maxKids sizes the on-stack child list of a tree walk: a binomial
// tree over 2^16 ranks has no wider node (a wider one spills to the
// heap, nothing else changes).
const maxKids = 16

// bcastOn pushes n bytes at va down the plan's tree: receive from the
// parent, forward to each child. Shared by Bcast and Allreduce so both
// walk the exact same topology.
func (c *Comm) bcastOn(p *sim.Proc, pl coll.Plan, va mem.VAddr, n, tag int) error {
	me := c.Rank()
	if parent := pl.Parent(me); parent >= 0 {
		if _, err := c.Recv(p, va, n, parent, tag); err != nil {
			return err
		}
	}
	var kids [maxKids]int
	for _, child := range pl.AppendChildren(kids[:0], me) {
		if err := c.Send(p, va, n, child, tag); err != nil {
			return err
		}
	}
	return nil
}

// Reduce combines count elements from sendVA across all ranks into
// recvVA at root: one NIC combine when offloaded and the tree is
// rooted at root, a binomial tree of point-to-point messages
// otherwise.
func (c *Comm) Reduce(p *sim.Proc, sendVA, recvVA mem.VAddr, count int, dt Datatype, op Op, root int) error {
	size := c.Size()
	n := count * dt.Size()
	if c.coll != nil && size > 1 && n <= c.coll.MaxPayload() && root == c.coll.Root() {
		return c.coll.Reduce(p, sendVA, recvVA, n, coll.Op(op), coll.DT(dt))
	}
	// Work in a local accumulator.
	acc, tmp := c.scratch(n)
	if err := c.space().Copy(acc, sendVA, n); err != nil {
		return err
	}
	if err := c.reduceOn(p, coll.Binomial(size, root), acc, tmp, count, dt, op, internalTag+3000); err != nil {
		return err
	}
	if c.Rank() == root {
		return c.copyLocal(p, recvVA, acc, n)
	}
	return nil
}

// scratch returns the accumulator and the incoming-partial buffer of an
// n-byte host reduction, each on pages of its own. It maps them when n
// outgrows what is there: whole pages, and at least twice the last
// size, so a rank whose vectors keep growing abandons a bounded number
// of pages.
func (c *Comm) scratch(n int) (acc, tmp mem.VAddr) {
	if n > c.scratchN || c.acc == 0 {
		sp := c.space()
		page := sp.Mem().PageSize()
		c.scratchN = max((n+page-1)/page*page, page, 2*c.scratchN)
		c.acc = sp.Alloc(2 * c.scratchN)
	}
	return c.acc, c.acc + mem.VAddr(c.scratchN)
}

// reduceOn folds contributions up the plan's tree: receive each
// child's partial into tmp, combine into acc, send acc to the parent.
// Shared by Reduce and Allreduce so both walk the exact same topology.
func (c *Comm) reduceOn(p *sim.Proc, pl coll.Plan, acc, tmp mem.VAddr, count int, dt Datatype, op Op, tag int) error {
	n := count * dt.Size()
	me := c.Rank()
	var kids [maxKids]int
	for _, child := range pl.AppendChildren(kids[:0], me) {
		if _, err := c.Recv(p, tmp, n, child, tag); err != nil {
			return err
		}
		if err := c.combine(p, acc, tmp, count, dt, op); err != nil {
			return err
		}
	}
	if parent := pl.Parent(me); parent >= 0 {
		return c.Send(p, acc, n, parent, tag)
	}
	return nil
}

// Allreduce folds everyone's contribution and hands every rank the
// result: one releasing NIC combine when offloaded; otherwise a reduce
// up and a broadcast down ONE shared tree plan (historically this built
// the topology twice with duplicated mask arithmetic).
func (c *Comm) Allreduce(p *sim.Proc, sendVA, recvVA mem.VAddr, count int, dt Datatype, op Op) error {
	size := c.Size()
	n := count * dt.Size()
	if c.coll != nil && size > 1 && n <= c.coll.MaxPayload() {
		return c.coll.Allreduce(p, sendVA, recvVA, n, coll.Op(op), coll.DT(dt))
	}
	acc, tmp := c.scratch(n)
	if err := c.space().Copy(acc, sendVA, n); err != nil {
		return err
	}
	pl := coll.Binomial(size, 0)
	if err := c.reduceOn(p, pl, acc, tmp, count, dt, op, internalTag+3000); err != nil {
		return err
	}
	if c.Rank() == pl.Root {
		if err := c.copyLocal(p, recvVA, acc, n); err != nil {
			return err
		}
	}
	return c.bcastOn(p, pl, recvVA, n, internalTag+2000)
}

// combine applies op element-wise: acc = acc (op) tmp. The fold is the
// same code the NIC firmware runs (coll.Combine), so host and offloaded
// reductions agree bit-for-bit on identical fold orders; the CPU cost
// is a memcpy-rate pass over the operands.
func (c *Comm) combine(p *sim.Proc, acc, tmp mem.VAddr, count int, dt Datatype, op Op) error {
	n := count * dt.Size()
	c.dev.Port().Node().Memcpy(p, 2*n) // read both operands, write one
	sp := c.space()
	if len(c.fold) < 2*n {
		c.fold = make([]byte, 2*n)
	}
	a, b := c.fold[:n], c.fold[n:2*n]
	if err := sp.ReadInto(acc, a); err != nil {
		return err
	}
	if err := sp.ReadInto(tmp, b); err != nil {
		return err
	}
	coll.Combine(a, b, coll.Op(op), coll.DT(dt))
	return sp.Write(acc, a)
}

// Gather collects n bytes from every rank into root's buffer (laid out
// by rank).
func (c *Comm) Gather(p *sim.Proc, sendVA mem.VAddr, n int, recvVA mem.VAddr, root int) error {
	tag := internalTag + 4000
	if c.Rank() != root {
		return c.Send(p, sendVA, n, root, tag)
	}
	for r := 0; r < c.Size(); r++ {
		slot := recvVA + mem.VAddr(r*n)
		if r == root {
			if err := c.copyLocal(p, slot, sendVA, n); err != nil {
				return err
			}
			continue
		}
		if _, err := c.Recv(p, slot, n, r, tag); err != nil {
			return err
		}
	}
	return nil
}

// Scatter distributes per-rank slices of root's buffer.
func (c *Comm) Scatter(p *sim.Proc, sendVA mem.VAddr, n int, recvVA mem.VAddr, root int) error {
	tag := internalTag + 5000
	if c.Rank() != root {
		_, err := c.Recv(p, recvVA, n, root, tag)
		return err
	}
	for r := 0; r < c.Size(); r++ {
		slot := sendVA + mem.VAddr(r*n)
		if r == root {
			if err := c.copyLocal(p, recvVA, slot, n); err != nil {
				return err
			}
			continue
		}
		if err := c.Send(p, slot, n, r, tag); err != nil {
			return err
		}
	}
	return nil
}

// Allgather shares each rank's n bytes with everyone (ring algorithm:
// size-1 steps, each forwarding the newest block).
func (c *Comm) Allgather(p *sim.Proc, sendVA mem.VAddr, n int, recvVA mem.VAddr) error {
	size := c.Size()
	rank := c.Rank()
	// Own block into place.
	if err := c.copyLocal(p, recvVA+mem.VAddr(rank*n), sendVA, n); err != nil {
		return err
	}
	if size == 1 {
		return nil
	}
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	tag := internalTag + 6000
	for step := 0; step < size-1; step++ {
		sendBlock := (rank - step + size) % size
		recvBlock := (rank - step - 1 + size) % size
		_, err := c.Sendrecv(p,
			recvVA+mem.VAddr(sendBlock*n), n, right, tag+step,
			recvVA+mem.VAddr(recvBlock*n), n, left, tag+step)
		if err != nil {
			return err
		}
	}
	return nil
}
