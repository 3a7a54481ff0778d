// Package klc implements the kernel-level networking comparator: a
// traditional TCP/UDP-style path where all protocol processing lives
// in the OS kernel. Every send and receive is a system call, payload
// crosses the kernel/user boundary by copy on both ends, and arrival
// is signalled by a hardware interrupt — the three costs the paper's
// Table 1 charges against this architecture.
//
// The wire protocol is real: the socket layer fragments messages into
// MTU-sized datagrams, each carrying a 16-byte socket header inside
// the payload; the receiving kernel parses headers, reassembles, and
// wakes the blocked receiver.
package klc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bcl/internal/cluster"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/node"
	"bcl/internal/oskernel"
	"bcl/internal/sim"
)

// KernelPort is the NIC port number the socket layer claims on every
// node.
const KernelPort = 999

// HeaderBytes is the socket-layer datagram header inside the payload.
const HeaderBytes = 16

// ErrTooLarge is returned for messages beyond the socket buffer limit.
var ErrTooLarge = errors.New("klc: message exceeds socket buffer limit")

// NICConfig is the firmware configuration the kernel-level
// architecture uses: the kernel translated buffers itself, and arrival
// raises interrupts.
func NICConfig() nic.Config {
	return nic.Config{
		Translate:  nic.HostTranslated,
		Completion: nic.Interrupt,
		Reliable:   true,
	}
}

// Addr names a socket (node, socket id).
type Addr struct {
	Node   int
	Socket int
}

// System is the cluster-wide socket layer: one kernel instance per
// node.
type System struct {
	Cluster *cluster.Cluster
	layers  []*layer
}

// chunk is a piece of a received message sitting in a kernel buffer.
type chunk struct {
	buf    *kbuf
	offset int // offset in the message
	data   []byte
}

// message is an assembled inbound message queued on a socket.
type message struct {
	src    Addr
	length int
	chunks []chunk
}

// kbuf is one kernel receive buffer (an sk_buff).
type kbuf struct {
	va   mem.VAddr
	segs []mem.Segment
}

// layer is one node's in-kernel protocol instance.
type layer struct {
	sys     *System
	node    *node.Node
	kspace  *mem.AddrSpace // kernel address space for sk_buffs
	sockets map[int]*Socket
	kbufs   map[mem.VAddr]*kbuf
	nextSk  int
	nextSeq uint64
	asm     map[asmKey]*message
	mtu     int
	isrName string // process name of every interrupt this layer takes
}

type asmKey struct {
	srcNode int
	socket  int
	seq     uint64
}

// Socket is one process's kernel-level endpoint.
type Socket struct {
	layer *layer
	proc  *oskernel.Process
	addr  Addr
	rxQ   *sim.Queue[*message]
}

// NewSystem boots the socket layer on every node of a cluster built
// with NICConfig().
func NewSystem(c *cluster.Cluster) *System {
	s := &System{Cluster: c}
	for _, nd := range c.Nodes {
		s.layers = append(s.layers, newLayer(s, nd))
	}
	return s
}

func newLayer(s *System, nd *node.Node) *layer {
	l := &layer{
		sys:     s,
		node:    nd,
		kspace:  mem.NewAddrSpace(nd.Mem),
		sockets: make(map[int]*Socket),
		kbufs:   make(map[mem.VAddr]*kbuf),
		asm:     make(map[asmKey]*message),
		mtu:     nd.Prof.MaxPacket - HeaderBytes,
		isrName: fmt.Sprintf("klc%d/isr", nd.ID),
	}
	nd.NIC.RegisterPort(KernelPort)
	// Preposted kernel receive ring: pinned sk_buffs on the NIC's
	// system channel.
	bufSize := nd.Prof.MaxPacket
	for i := 0; i < 64; i++ {
		l.postKbuf(bufSize)
	}
	nd.NIC.InterruptHandler = l.interrupt
	return l
}

// postKbuf allocates, pins and posts one kernel receive buffer.
func (l *layer) postKbuf(size int) *kbuf {
	va := l.kspace.Alloc(size)
	segs, err := l.kspace.Segments(va, size)
	if err != nil {
		panic(err)
	}
	for _, s := range segs {
		for off := 0; off == 0 || off < s.Len; off += l.node.Prof.PageSize {
			if err := l.node.Mem.PinFrame(s.Phys + mem.PAddr(off)); err != nil {
				panic(err)
			}
		}
	}
	b := &kbuf{va: va, segs: segs}
	l.kbufs[va] = b
	if err := l.node.NIC.AddSystemBuffer(KernelPort, &nic.RecvDesc{
		Len: size, Segs: segs, VA: va, Space: l.kspace,
	}); err != nil {
		panic(err)
	}
	return b
}

// repost returns a consumed sk_buff to the NIC ring (kernel context:
// a PIO write, no trap).
func (l *layer) repost(p *sim.Proc, b *kbuf) {
	p.Sleep(l.node.Kernel.PIOFillCost(l.node.Prof.RecvDescWords, len(b.segs)))
	size := 0
	for _, s := range b.segs {
		size += s.Len
	}
	if err := l.node.NIC.AddSystemBuffer(KernelPort, &nic.RecvDesc{
		Len: size, Segs: b.segs, VA: b.va, Space: l.kspace,
	}); err != nil {
		panic(err)
	}
}

// interrupt is the NIC interrupt service routine: one per arrived
// datagram. It parses the socket header, reassembles, and wakes the
// receiver when a message completes.
func (l *layer) interrupt(ev nic.Event) {
	l.node.Kernel.Interrupt(l.isrName, func(p *sim.Proc) {
		if ev.Type != nic.EvRecvDone {
			return // send completions need no kernel action here
		}
		p.Sleep(l.node.Prof.KernelProtoProc)
		raw, err := l.kspace.Read(ev.VA, ev.Len)
		if err != nil || len(raw) < HeaderBytes {
			return
		}
		srcNode := int(binary.LittleEndian.Uint16(raw[0:]))
		srcSock := int(binary.LittleEndian.Uint16(raw[2:]))
		dstSock := int(binary.LittleEndian.Uint16(raw[4:]))
		frag := int(binary.LittleEndian.Uint16(raw[6:]))
		frags := int(binary.LittleEndian.Uint16(raw[8:]))
		msgLen := int(binary.LittleEndian.Uint32(raw[10:]))
		seq := uint64(binary.LittleEndian.Uint16(raw[14:]))

		key := asmKey{srcNode: srcNode, socket: dstSock, seq: seq}
		m, ok := l.asm[key]
		if !ok {
			m = &message{src: Addr{Node: srcNode, Socket: srcSock}, length: msgLen}
			l.asm[key] = m
		}
		b, okb := l.kbufs[ev.VA]
		if !okb {
			return // not one of ours
		}
		m.chunks = append(m.chunks, chunk{
			buf:    b,
			offset: frag * l.mtu,
			data:   raw[HeaderBytes:],
		})
		if len(m.chunks) == frags {
			delete(l.asm, key)
			sk, ok := l.sockets[dstSock]
			if !ok {
				// No such socket: drop, reposting the buffers.
				for _, c := range m.chunks {
					l.repost(p, c.buf)
				}
				return
			}
			l.node.Kernel.WakeProcess(p)
			sk.rxQ.Post(m)
		}
	})
}

// Open creates a socket for a process (a trap, like socket(2)).
func (s *System) Open(p *sim.Proc, nd *node.Node, proc *oskernel.Process) (*Socket, error) {
	l := s.layers[nd.ID]
	var sk *Socket
	err := nd.Kernel.Trap(p, func() error {
		l.nextSk++
		sk = &Socket{
			layer: l,
			proc:  proc,
			addr:  Addr{Node: nd.ID, Socket: l.nextSk},
			rxQ:   sim.NewQueue[*message](nd.Env, "klc/rx", 0),
		}
		l.sockets[sk.addr.Socket] = sk
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sk, nil
}

// Addr returns the socket's address.
func (sk *Socket) Addr() Addr { return sk.addr }

// Space returns the owning process's address space (for allocating
// user buffers in examples and benchmarks).
func (sk *Socket) Space() *mem.AddrSpace { return sk.proc.Space }

// SendTo transmits n bytes at va to the destination socket: one trap,
// then per-datagram kernel protocol processing, a copy from user space
// into pinned sk_buffs, and descriptor posts to the NIC.
func (sk *Socket) SendTo(p *sim.Proc, dst Addr, va mem.VAddr, n int) error {
	l := sk.layer
	nd := l.node
	p.Sleep(nd.Prof.UserCompose)
	return nd.Kernel.Trap(p, func() error {
		if err := nd.Kernel.CheckRequest(p, sk.proc.PID, va, n, dst.Node, l.sys.Cluster.Size()); err != nil {
			return err
		}
		l.nextSeq++
		seq := l.nextSeq
		frags := 1
		if n > l.mtu {
			frags = (n + l.mtu - 1) / l.mtu
		}
		for i := 0; i < frags; i++ {
			lo := i * l.mtu
			hi := lo + l.mtu
			if hi > n {
				hi = n
			}
			p.Sleep(nd.Prof.KernelProtoProc)
			// Build the datagram in a pinned kernel buffer: header +
			// user payload copied across the boundary.
			dg := make([]byte, HeaderBytes+(hi-lo))
			binary.LittleEndian.PutUint16(dg[0:], uint16(sk.addr.Node))
			binary.LittleEndian.PutUint16(dg[2:], uint16(sk.addr.Socket))
			binary.LittleEndian.PutUint16(dg[4:], uint16(dst.Socket))
			binary.LittleEndian.PutUint16(dg[6:], uint16(i))
			binary.LittleEndian.PutUint16(dg[8:], uint16(frags))
			binary.LittleEndian.PutUint32(dg[10:], uint32(n))
			binary.LittleEndian.PutUint16(dg[14:], uint16(seq))
			if hi > lo {
				user, err := nd.Kernel.CopyFromUser(p, sk.proc.Space, va+mem.VAddr(lo), hi-lo)
				if err != nil {
					return err
				}
				copy(dg[HeaderBytes:], user)
			}
			kva := l.kspace.Alloc(len(dg))
			if err := l.kspace.Write(kva, dg); err != nil {
				return err
			}
			segs, err := l.kspace.Segments(kva, len(dg))
			if err != nil {
				return err
			}
			for _, s := range segs {
				for off := 0; off == 0 || off < s.Len; off += nd.Prof.PageSize {
					nd.Mem.PinFrame(s.Phys + mem.PAddr(off))
				}
			}
			p.Sleep(nd.Kernel.PIOFillCost(nd.Prof.SendDescWords, len(segs)))
			nd.NIC.PostSend(p, &nic.SendDesc{
				Kind: nic.DescData, MsgID: nd.NIC.NextMsgID(),
				SrcPort: KernelPort, DstNode: dst.Node, DstPort: KernelPort,
				Channel: 0, Len: len(dg), Segs: segs,
				NoEvent: true,
			})
		}
		return nil
	})
}

// Recv blocks until a message arrives, copies it into the user buffer
// at va (capacity n), and returns the payload size and source. One
// trap; the process sleeps in the kernel until the interrupt path
// wakes it.
func (sk *Socket) Recv(p *sim.Proc, va mem.VAddr, n int) (int, Addr, error) {
	l := sk.layer
	nd := l.node
	var m *message
	err := nd.Kernel.Trap(p, func() error {
		if err := nd.Kernel.CheckRequest(p, sk.proc.PID, va, n, sk.addr.Node, l.sys.Cluster.Size()); err != nil {
			return err
		}
		m = sk.rxQ.Recv(p) // sleep in kernel until the ISR wakes us
		if m.length > n {
			for _, c := range m.chunks {
				l.repost(p, c.buf)
			}
			return fmt.Errorf("%w: %d > %d", ErrTooLarge, m.length, n)
		}
		for _, c := range m.chunks {
			if err := nd.Kernel.CopyToUser(p, sk.proc.Space, va+mem.VAddr(c.offset), c.data); err != nil {
				return err
			}
			l.repost(p, c.buf)
		}
		return nil
	})
	if err != nil {
		return 0, Addr{}, err
	}
	return m.length, m.src, nil
}
