// Package ulc implements the user-level communication comparator — a
// GM-like library in the style of U-Net/VMMC: the process maps the NIC
// into its address space and drives it directly, with no kernel
// anywhere on the send or receive path.
//
// Consequences, exactly the ones the paper argues about:
//
//   - Send is cheap: compose + PIO descriptor fill, no trap (the ~22%
//     latency advantage over BCL).
//   - The NIC must translate virtual addresses itself through its
//     small on-board cache; big working sets thrash it.
//   - Buffers must be registered (pinned) up front via a kernel call —
//     off the critical path, but mandatory.
//   - Nothing validates what the process writes into the descriptor:
//     a garbage request reaches the firmware and fails asynchronously
//     at best. The library cannot protect the NIC's shared state.
package ulc

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

// SystemChannel mirrors bcl.SystemChannel.
const SystemChannel = 0

// ErrNotRegistered is returned when a send/recv uses an unregistered
// buffer (GM requires registered memory for DMA).
var ErrNotRegistered = errors.New("ulc: buffer not registered")

// NICConfig is the firmware configuration the user-level architecture
// needs: on-card translation, polled events, reliable delivery (GM
// provides reliable ordered delivery).
func NICConfig() nic.Config {
	return nic.Config{
		Translate:  nic.NICTranslated,
		Completion: nic.UserEventQueue,
		Reliable:   true,
	}
}

// Addr names a process (node, port).
type Addr struct {
	Node int
	Port int
}

// System is the per-cluster ULC instance.
type System struct {
	nextID []int
}

// NewSystem attaches the user-level library to a cluster built with
// NICConfig().
func NewSystem(c *cluster.Cluster) *System {
	return &System{nextID: make([]int, c.Size())}
}

// Port is one process's user-level endpoint.
type Port struct {
	node     *node.Node
	proc     *oskernel.Process
	addr     Addr
	nicPort  *nic.Port
	regions  []region
	nextChan int
}

type region struct {
	va mem.VAddr
	n  int
}

// Open maps the NIC into the process and creates a port. Mapping is a
// one-time kernel operation (mmap) — the point of the architecture is
// that nothing after this touches the kernel.
func (s *System) Open(p *sim.Proc, n *node.Node, proc *oskernel.Process, sysBuffers int) (*Port, error) {
	if sysBuffers == 0 {
		sysBuffers = 16
	}
	s.nextID[n.ID]++
	pt := &Port{
		node:     n,
		proc:     proc,
		addr:     Addr{Node: n.ID, Port: s.nextID[n.ID]},
		nextChan: 1,
	}
	err := n.Kernel.Trap(p, func() error { // the mmap: one-time setup
		p.Sleep(n.Prof.PIOFill(8))
		pt.nicPort = n.NIC.RegisterPort(pt.addr.Port)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < sysBuffers; i++ {
		va := proc.Space.Alloc(n.Prof.MaxPacket)
		if err := pt.Register(p, va, n.Prof.MaxPacket); err != nil {
			return nil, err
		}
		// Posting the pool buffer is a direct PIO write, no trap.
		p.Sleep(n.Prof.PIOFill(n.Prof.RecvDescWords))
		if err := n.NIC.AddSystemBuffer(pt.addr.Port, &nic.RecvDesc{
			Len: n.Prof.MaxPacket, VA: va, Space: proc.Space,
		}); err != nil {
			return nil, err
		}
	}
	return pt, nil
}

// Addr returns the port address.
func (pt *Port) Addr() Addr { return pt.addr }

// Process returns the owning process.
func (pt *Port) Process() *oskernel.Process { return pt.proc }

// CreateChannel allocates a channel id.
func (pt *Port) CreateChannel() int {
	id := pt.nextChan
	pt.nextChan++
	return id
}

// Register pins a buffer for DMA (GM-style memory registration). This
// is a kernel call, paid once per buffer, off the messaging fast path.
func (pt *Port) Register(p *sim.Proc, va mem.VAddr, n int) error {
	k := pt.node.Kernel
	return k.Trap(p, func() error {
		if !pt.proc.Space.Mapped(va, n) {
			return fmt.Errorf("%w: va %#x", mem.ErrFault, int64(va))
		}
		// Pinning is the point; the NIC re-translates via its cache.
		if _, err := k.TranslateAndPin(p, pt.proc.PID, pt.proc.Space, va, n, nil); err != nil {
			return err
		}
		pt.regions = append(pt.regions, region{va: va, n: n})
		return nil
	})
}

func (pt *Port) registered(va mem.VAddr, n int) bool {
	for _, r := range pt.regions {
		if va >= r.va && va+mem.VAddr(n) <= r.va+mem.VAddr(r.n) {
			return true
		}
	}
	return false
}

// Send posts a send descriptor straight to the NIC from user space: no
// trap, no kernel validation. The NIC resolves the virtual addresses
// through its translation cache. Returns the message id.
func (pt *Port) Send(p *sim.Proc, dst Addr, channel int, va mem.VAddr, n int, tag uint64) (uint64, error) {
	p.Sleep(pt.node.Prof.UserCompose)
	// The library checks registration (a debugger can bypass this —
	// the security point the paper makes — but the library is honest).
	if !pt.registered(va, n) {
		return 0, ErrNotRegistered
	}
	msgID := pt.node.NIC.NextMsgID()
	p.Sleep(pt.node.Kernel.PIOFillCost(pt.node.Prof.SendDescWords, 1))
	pt.node.NIC.PostSend(p, &nic.SendDesc{
		Kind: nic.DescData, MsgID: msgID, SrcPort: pt.addr.Port,
		DstNode: dst.Node, DstPort: dst.Port, Channel: channel,
		Len: n, Tag: tag, VA: va, Space: pt.proc.Space,
	})
	return msgID, nil
}

// SendUnchecked bypasses the library's registration check, as a
// malicious or buggy user can: the bad descriptor reaches the firmware
// and fails (or worse) on the card. It exists to demonstrate the
// protection gap of the user-level architecture.
func (pt *Port) SendUnchecked(p *sim.Proc, dst Addr, channel int, va mem.VAddr, n int, tag uint64) uint64 {
	p.Sleep(pt.node.Prof.UserCompose)
	msgID := pt.node.NIC.NextMsgID()
	p.Sleep(pt.node.Kernel.PIOFillCost(pt.node.Prof.SendDescWords, 1))
	pt.node.NIC.PostSend(p, &nic.SendDesc{
		Kind: nic.DescData, MsgID: msgID, SrcPort: pt.addr.Port,
		DstNode: dst.Node, DstPort: dst.Port, Channel: channel,
		Len: n, Tag: tag, VA: va, Space: pt.proc.Space,
	})
	return msgID
}

// PostRecv arms a channel with a registered buffer: direct PIO, no
// trap.
func (pt *Port) PostRecv(p *sim.Proc, channel int, va mem.VAddr, n int) error {
	p.Sleep(pt.node.Prof.UserPostRecv)
	if !pt.registered(va, n) {
		return ErrNotRegistered
	}
	p.Sleep(pt.node.Kernel.PIOFillCost(pt.node.Prof.RecvDescWords, 1))
	return pt.node.NIC.PostRecv(pt.addr.Port, channel, &nic.RecvDesc{
		Len: n, VA: va, Space: pt.proc.Space,
	})
}

// WaitRecv polls the receive event queue.
func (pt *Port) WaitRecv(p *sim.Proc) nic.Event {
	ev := pt.nicPort.RecvEvQ.Recv(p)
	p.Sleep(pt.node.Prof.CompletionPoll + pt.node.Prof.EventDecode)
	return ev
}

// WaitSend polls the send event queue.
func (pt *Port) WaitSend(p *sim.Proc) nic.Event {
	ev := pt.nicPort.SendEvQ.Recv(p)
	p.Sleep(pt.node.Prof.SendComplete)
	return ev
}
