// Package amii implements an Active Messages II style comparator: a
// user-level request/reply layer where every message invokes a handler
// at the receiver. Bulk data moves through small pinned staging
// buffers with stop-and-wait crediting, and the handler copies payload
// from staging into its final destination — the "extra memory copy"
// that, per the paper, makes AM-II bandwidth incomparable to BCL's
// zero-copy path.
package amii

import (
	"errors"
	"fmt"

	"bcl/internal/cluster"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/node"
	"bcl/internal/oskernel"
	"bcl/internal/sim"
)

// MTU is the staging-fragment size: AM mediums move through small
// pinned bounce buffers.
const MTU = 2048

// handlerCost is the dispatch overhead of invoking a user handler from
// the polling loop.
const handlerCost = 1000 // ns

// creditHandler is the reserved handler id for flow-control credits.
const creditHandler = 0

// ErrTooManyHandlers guards the tiny handler table.
var ErrTooManyHandlers = errors.New("amii: handler table full")

// NICConfig mirrors the user-level architecture (AM-II rode on GAM's
// user-level Myrinet access) with reliable firmware delivery.
func NICConfig() nic.Config {
	return nic.Config{
		Translate:  nic.NICTranslated,
		Completion: nic.UserEventQueue,
		Reliable:   true,
	}
}

// Addr names an endpoint.
type Addr struct {
	Node int
	Port int
}

// Handler is a user function invoked at the receiver for each arrived
// fragment: src identifies the sender, arg is the immediate word, data
// is the staged payload (offset bytes into the logical transfer).
type Handler func(p *sim.Proc, src Addr, arg uint64, offset int, data []byte)

// System is the per-cluster AM instance.
type System struct {
	nextID []int
}

// NewSystem attaches AM to a cluster built with NICConfig().
func NewSystem(c *cluster.Cluster) *System {
	return &System{nextID: make([]int, c.Size())}
}

// Endpoint is one process's AM endpoint.
type Endpoint struct {
	node     *node.Node
	proc     *oskernel.Process
	addr     Addr
	nicPort  *nic.Port
	handlers [16]Handler
	credits  int
	maxCred  int
	staging  mem.VAddr // registered outbound staging buffer
}

// Open creates an endpoint with nStaging receive staging buffers.
func (s *System) Open(p *sim.Proc, nd *node.Node, proc *oskernel.Process, nStaging int) (*Endpoint, error) {
	if nStaging == 0 {
		nStaging = 8
	}
	s.nextID[nd.ID]++
	e := &Endpoint{
		node:    nd,
		proc:    proc,
		addr:    Addr{Node: nd.ID, Port: s.nextID[nd.ID]},
		credits: 1, // stop-and-wait: one outstanding bulk fragment
		maxCred: 1,
	}
	err := nd.Kernel.Trap(p, func() error { // one-time mmap + pinning
		p.Sleep(nd.Prof.PIOFill(8))
		e.nicPort = nd.NIC.RegisterPort(e.addr.Port)
		// Pin the receive staging pool and the outbound staging area.
		for i := 0; i < nStaging; i++ {
			va := proc.Space.Alloc(MTU + 64)
			if _, terr := nd.Kernel.TranslateAndPin(p, proc.PID, proc.Space, va, MTU+64, nil); terr != nil {
				return terr
			}
			if aerr := nd.NIC.AddSystemBuffer(e.addr.Port, &nic.RecvDesc{
				Len: MTU + 64, VA: va, Space: proc.Space,
			}); aerr != nil {
				return aerr
			}
		}
		e.staging = proc.Space.Alloc(MTU)
		_, terr := nd.Kernel.TranslateAndPin(p, proc.PID, proc.Space, e.staging, MTU, nil)
		return terr
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Addr returns the endpoint address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Node returns the hosting node.
func (e *Endpoint) Node() *node.Node { return e.node }

// Process returns the owning process.
func (e *Endpoint) Process() *oskernel.Process { return e.proc }

// SetHandler installs a handler (ids 1..15; 0 is reserved for
// credits).
func (e *Endpoint) SetHandler(id int, h Handler) error {
	if id <= 0 || id >= len(e.handlers) {
		return ErrTooManyHandlers
	}
	e.handlers[id] = h
	return nil
}

// pack encodes (handler, offset) into the wire tag.
func pack(handler int, arg uint64, offset int) uint64 {
	return uint64(handler)&0xf | (uint64(offset)&0xffffffff)<<4 | (arg&0xffffff)<<36
}

func unpack(tag uint64) (handler int, arg uint64, offset int) {
	return int(tag & 0xf), tag >> 36, int((tag >> 4) & 0xffffffff)
}

// request sends one fragment (<= MTU) through the sender staging
// buffer to the remote pool: compose, copy into pinned staging (the
// AM extra copy exists on the send side too), PIO the descriptor.
func (e *Endpoint) request(p *sim.Proc, dst Addr, handler int, arg uint64, offset int, data []byte) error {
	if len(data) > MTU {
		return fmt.Errorf("amii: fragment %d exceeds MTU", len(data))
	}
	p.Sleep(e.node.Prof.UserCompose)
	if len(data) > 0 {
		e.node.Memcpy(p, len(data)) // copy into pinned staging
		if err := e.proc.Space.Write(e.staging, data); err != nil {
			return err
		}
	}
	p.Sleep(e.node.Kernel.PIOFillCost(e.node.Prof.SendDescWords, 1))
	e.node.NIC.PostSend(p, &nic.SendDesc{
		Kind: nic.DescData, MsgID: e.node.NIC.NextMsgID(),
		SrcPort: e.addr.Port, DstNode: dst.Node, DstPort: dst.Port,
		Channel: 0, Len: len(data), Tag: pack(handler, arg, offset),
		VA: e.staging, Space: e.proc.Space, NoEvent: true,
	})
	return nil
}

// Request sends a short active message invoking handler at dst.
func (e *Endpoint) Request(p *sim.Proc, dst Addr, handler int, arg uint64, data []byte) error {
	return e.request(p, dst, handler, arg, 0, data)
}

// Bulk transfers n bytes at va to dst, invoking handler once per
// fragment with the fragment's offset. Stop-and-wait: each fragment
// waits for the receiver's credit before the staging buffer is reused
// — the flow-control cost that caps AM bulk bandwidth.
func (e *Endpoint) Bulk(p *sim.Proc, dst Addr, handler int, arg uint64, va mem.VAddr, n int) error {
	frags := 1
	if n > 0 {
		frags = (n + MTU - 1) / MTU
	}
	for i := 0; i < frags; i++ {
		lo := i * MTU
		hi := lo + MTU
		if hi > n {
			hi = n
		}
		var data []byte
		if hi > lo {
			var err error
			data, err = e.proc.Space.Read(va+mem.VAddr(lo), hi-lo)
			if err != nil {
				return err
			}
		}
		for e.credits == 0 {
			e.Poll(p) // wait for the credit reply
		}
		e.credits--
		if err := e.request(p, dst, handler, arg, lo, data); err != nil {
			return err
		}
	}
	for e.credits < e.maxCred {
		e.Poll(p) // drain outstanding credits
	}
	return nil
}

// Poll services one incoming event: it dispatches the handler (paying
// the dispatch cost), returns the staging buffer to the pool, and
// sends a credit back for payload-bearing fragments.
func (e *Endpoint) Poll(p *sim.Proc) {
	ev := e.nicPort.RecvEvQ.Recv(p)
	p.Sleep(e.node.Prof.CompletionPoll + e.node.Prof.EventDecode)
	handler, arg, offset := unpack(ev.Tag)
	var data []byte
	if ev.Len > 0 {
		data, _ = e.proc.Space.Read(ev.VA, ev.Len)
	}
	p.Sleep(handlerCost)
	if handler == creditHandler {
		e.credits++
	} else if h := e.handlers[handler]; h != nil {
		h(p, Addr{Node: ev.SrcNode, Port: ev.SrcPort}, arg, offset, data)
	}
	// Return the staging buffer: a direct PIO repost, no trap.
	p.Sleep(e.node.Kernel.PIOFillCost(e.node.Prof.RecvDescWords, 1))
	e.node.NIC.AddSystemBuffer(e.addr.Port, &nic.RecvDesc{
		Len: MTU + 64, VA: ev.VA, Space: e.proc.Space,
	})
	if handler != creditHandler && ev.Len > 0 {
		e.request(p, Addr{Node: ev.SrcNode, Port: ev.SrcPort}, creditHandler, 0, 0, nil)
	}
}
