package mpi

import (
	"errors"

	"bcl/internal/eadi"
	"bcl/internal/mem"
	"bcl/internal/sim"
)

// Nonblocking operations. The device is single-threaded per process
// (as MPI's progress rule allows), so Isend/Irecv record the operation
// and Wait drives the device's progress engine until it completes.
// Eager Isends start immediately — the payload leaves the user buffer
// right away — while rendezvous Isends run their handshake lazily
// inside Wait (legal: MPI promises completion at Wait, not progress
// before it).

// ErrActiveRequest guards double-Wait.
var ErrActiveRequest = errors.New("mpi: request already completed")

type reqKind int

const (
	reqIrecv reqKind = iota
	reqIsendEager
	reqIsendRndv
)

// Request is a handle to a nonblocking operation.
type Request struct {
	kind reqKind
	comm *Comm
	done bool

	// Irecv fields.
	rstate *eadi.RecvHandle

	// Isend fields.
	va  mem.VAddr
	n   int
	dst int
	tag int

	status Status
	err    error
}

// Irecv posts a nonblocking receive. The buffer must stay untouched
// until Wait.
func (c *Comm) Irecv(p *sim.Proc, va mem.VAddr, n, src, tag int) (*Request, error) {
	h := c.dev.PostRecvNB(p, src, c.ctx, tag, va, n)
	return &Request{kind: reqIrecv, comm: c, rstate: h}, nil
}

// Isend starts a nonblocking send. Eager-size payloads leave the
// buffer immediately; larger sends complete their rendezvous in Wait.
func (c *Comm) Isend(p *sim.Proc, va mem.VAddr, n, dst, tag int) (*Request, error) {
	if n <= eadi.EagerLimit {
		if err := c.dev.SendEagerNB(p, dst, c.ctx, tag, va, n); err != nil {
			return nil, err
		}
		return &Request{kind: reqIsendEager, comm: c}, nil
	}
	return &Request{kind: reqIsendRndv, comm: c, va: va, n: n, dst: dst, tag: tag}, nil
}

// Wait blocks until the request completes and returns its status.
func (r *Request) Wait(p *sim.Proc) (Status, error) {
	if r.done {
		return r.status, ErrActiveRequest
	}
	r.done = true
	switch r.kind {
	case reqIrecv:
		r.status, r.err = r.comm.dev.WaitRecvNB(p, r.rstate)
	case reqIsendEager:
		r.err = r.comm.dev.WaitEagerNB(p)
	case reqIsendRndv:
		r.err = r.comm.dev.Send(p, r.dst, r.comm.ctx, r.tag, r.va, r.n)
	}
	return r.status, r.err
}

// Test reports whether the request has completed, without blocking
// (it still drives one step of progress, per the MPI progress rule).
func (r *Request) Test(p *sim.Proc) (Status, bool, error) {
	if r.done {
		return r.status, true, nil
	}
	if r.kind == reqIrecv {
		if done := r.comm.dev.PollRecvNB(p, r.rstate); done {
			r.done = true
			r.status, r.err = r.rstate.Status()
			return r.status, true, r.err
		}
		return Status{}, false, nil
	}
	// Send requests complete only in Wait here.
	return Status{}, false, nil
}

// Waitall completes a set of requests in order.
func Waitall(p *sim.Proc, reqs []*Request) error {
	for _, r := range reqs {
		if _, err := r.Wait(p); err != nil && err != ErrActiveRequest {
			return err
		}
	}
	return nil
}

// Alltoall exchanges n bytes between every pair of ranks: rank i's
// block j lands in rank j's slot i. Implemented as a sequence of
// pairwise Sendrecv exchanges (the classic XOR/shift schedule).
func (c *Comm) Alltoall(p *sim.Proc, sendVA mem.VAddr, n int, recvVA mem.VAddr) error {
	size := c.Size()
	rank := c.Rank()
	// Own block.
	if err := c.copyLocal(p, recvVA+mem.VAddr(rank*n), sendVA+mem.VAddr(rank*n), n); err != nil {
		return err
	}
	tag := internalTag + 7000
	for step := 1; step < size; step++ {
		peer := (rank + step) % size
		from := (rank - step + size) % size
		_, err := c.Sendrecv(p,
			sendVA+mem.VAddr(peer*n), n, peer, tag+step,
			recvVA+mem.VAddr(from*n), n, from, tag+step)
		if err != nil {
			return err
		}
	}
	return nil
}
