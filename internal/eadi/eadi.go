// Package eadi implements EADI-2, the Extended Abstract Device
// Interface: the middle communication layer of the DAWNING-3000 stack
// (Figure 1 of the paper) on which both MPI and PVM are built. It
// turns BCL's port/channel primitives into tagged, matched message
// passing:
//
//   - Eager protocol for small messages: the payload travels on the
//     system channel; the receiver matches (source, context, tag)
//     against posted receives, copying from the pool buffer into the
//     user buffer (or into an unexpected-message queue).
//   - Rendezvous for large messages: RTS/CTS handshake, then the data
//     moves by chunked RMA writes into the receiver's registered
//     buffer (inter-node) or as a single pipelined shared-memory
//     message (intra-node), followed by a FIN.
//   - Consumed system-pool buffers are returned to the NIC in batches
//     to amortize the kernel trap each return costs.
//
// Threading rule: a Device must be driven by exactly one simulated
// process (the MPI rule that a rank is single-threaded unless
// MPI_THREAD_MULTIPLE is requested). Two processes blocking in the
// progress engine of one device can steal each other's wake-ups.
package eadi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"bcl/internal/bcl"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

// EagerLimit is the largest payload sent eagerly; larger messages use
// rendezvous. It matches the system-pool buffer size.
const EagerLimit = 4096

// rmaChunk is the RMA write granularity of the rendezvous data path.
const rmaChunk = 16384

// Matching costs (library CPU), calibrated so MPI-over-BCL lands at
// the paper's 23.7 µs inter-node / 6.3 µs intra-node.
const (
	packCost  = 500 // sender builds the match header
	matchCost = 600 // receiver searches the posted/unexpected queues
)

// AnySource and AnyTag are wildcard match values.
const (
	AnySource = -1
	AnyTag    = -1
)

// message kinds carried in the BCL tag word.
const (
	kindEager = iota
	kindRTS
	kindCTS
	kindFIN
)

// ErrTruncated reports a message longer than the posted buffer.
var ErrTruncated = errors.New("eadi: message truncated")

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// Device is one process's EADI endpoint: rank r of a job whose rank i
// lives at addrs[i].
type Device struct {
	port  *bcl.Port
	rank  int
	addrs []bcl.Addr

	posted     []*pendingRecv
	unexpected []*inMsg
	sends      map[int]*sendState
	rndvRecvs  map[int]*rndvRecv // keyed by data channel
	nextID     int
	hdrs       mem.VAddr            // one page of 8-byte rendezvous header slots
	nextHdr    int                  // next slot of hdrs, round-robin
	colls      map[int]*CollContext // offload contexts by id

	// Matching records the device is done with, for reuse: the
	// pendingRecv of a blocking receive, whose caller got its answer by
	// value, and the inMsg of a claimed unexpected message, which keeps
	// its payload buffer. (A nonblocking receive's record belongs to
	// the RecvHandle the caller holds, and is never reused.)
	recvs sim.FreeList[*pendingRecv]
	msgs  sim.FreeList[*inMsg]

	// Stats.
	EagerSent, EagerRecv uint64
	RndvSent, RndvRecv   uint64
	UnexpectedMsgs       uint64
	UnclaimedMsgs        uint64
}

type pendingRecv struct {
	src, ctx, tag int
	va            mem.VAddr
	n             int
	done          bool
	status        Status
	err           error
}

type inMsg struct {
	src, ctx, tag int
	data          []byte // eager payload, already copied out of the pool
	rts           *rtsInfo
}

type rtsInfo struct {
	size   int
	sendID int
	src    int
}

type sendState struct {
	id      int
	ctsChan int
	gotCTS  bool
}

type rndvRecv struct {
	recv *pendingRecv
	src  int
	tag  int
	size int
}

// newRecv returns a pendingRecv for a blocking receive; endRecv gives it
// back once the receive has returned its result.
func (d *Device) newRecv(src, ctx, tag int, va mem.VAddr, n int) *pendingRecv {
	pr, ok := d.recvs.Get()
	if !ok {
		pr = new(pendingRecv)
	}
	*pr = pendingRecv{src: src, ctx: ctx, tag: tag, va: va, n: n}
	return pr
}

func (d *Device) endRecv(pr *pendingRecv) (Status, error) {
	st, err := pr.status, pr.err
	d.recvs.Put(pr)
	return st, err
}

// newMsg returns an inMsg for the unexpected queue, its payload buffer
// emptied but kept; endMsg gives back one a receive has claimed.
func (d *Device) newMsg(src, ctx, tag int) *inMsg {
	m, ok := d.msgs.Get()
	if !ok {
		m = new(inMsg)
	}
	*m = inMsg{src: src, ctx: ctx, tag: tag, data: m.data[:0]}
	return m
}

func (d *Device) endMsg(m *inMsg) { d.msgs.Put(m) }

// NewDevice wraps a BCL port as rank `rank` of the job laid out in
// addrs.
func NewDevice(port *bcl.Port, rank int, addrs []bcl.Addr) *Device {
	d := &Device{
		port:      port,
		rank:      rank,
		addrs:     addrs,
		sends:     make(map[int]*sendState),
		rndvRecvs: make(map[int]*rndvRecv),
		hdrs:      port.Process().Space.Alloc(hdrSlots * 8),
	}
	node := port.Addr().Node
	port.Node().Obs.RegisterCollector(func(set obs.Set) {
		set(node, "eadi", "eager_sent", d.EagerSent)
		set(node, "eadi", "eager_recv", d.EagerRecv)
		set(node, "eadi", "rndv_sent", d.RndvSent)
		set(node, "eadi", "rndv_recv", d.RndvRecv)
		set(node, "eadi", "unexpected_msgs", d.UnexpectedMsgs)
		set(node, "eadi", "unclaimed_msgs", d.UnclaimedMsgs)
	})
	return d
}

// Job wraps the ports of one job as its devices: rank i on ports[i].
func Job(ports []*bcl.Port) []*Device {
	addrs := bcl.Addrs(ports)
	devs := make([]*Device, len(ports))
	for i, pt := range ports {
		devs[i] = NewDevice(pt, i, addrs)
	}
	return devs
}

// Rank returns this device's rank.
func (d *Device) Rank() int { return d.rank }

// Size returns the job size.
func (d *Device) Size() int { return len(d.addrs) }

// Port returns the underlying BCL port.
func (d *Device) Port() *bcl.Port { return d.port }

// packTag packs (kind, ctx, tag, id) into BCL's 64-bit tag word:
// kind in bits [0:4), context [4:20), tag [20:52), handshake id
// [52:64). Ids wrap at 12 bits, which is safe because only a handful
// of handshakes are in flight per peer at once.
func packTag(kind, ctx, tag, id int) uint64 {
	return uint64(kind)&0xf |
		uint64(uint16(ctx))<<4 |
		(uint64(tag)&0xffffffff)<<20 |
		(uint64(id)&0xfff)<<52
}

func unpackTag(t uint64) (kind, ctx, tag, id int) {
	kind = int(t & 0xf)
	ctx = int(uint16(t >> 4))
	tag = int(int32(uint32(t >> 20 & 0xffffffff)))
	id = int(t >> 52)
	return
}

// rankOf maps a BCL source address back to a rank.
func (d *Device) rankOf(node, port int) int {
	for i, a := range d.addrs {
		if a.Node == node && a.Port == port {
			return i
		}
	}
	return -1
}

// Send transmits n bytes at va to (dst, ctx, tag), blocking until the
// buffer is reusable.
func (d *Device) Send(p *sim.Proc, dst, ctx, tag int, va mem.VAddr, n int) error {
	p.Sleep(packCost)
	if n <= EagerLimit {
		return d.sendEager(p, dst, ctx, tag, va, n)
	}
	return d.sendRndv(p, dst, ctx, tag, va, n)
}

func (d *Device) sendEager(p *sim.Proc, dst, ctx, tag int, va mem.VAddr, n int) error {
	d.EagerSent++
	_, err := d.port.Send(p, d.addrs[dst], bcl.SystemChannel, va, n, packTag(kindEager, ctx, tag, 0))
	if err != nil {
		return err
	}
	ev := d.port.WaitSend(p)
	if ev.Type == nic.EvSendFailed {
		return fmt.Errorf("eadi: eager send to %d failed", dst)
	}
	return nil
}

func (d *Device) sendRndv(p *sim.Proc, dst, ctx, tag int, va mem.VAddr, n int) error {
	d.RndvSent++
	d.nextID++
	st := &sendState{id: d.nextID & 0xfff}
	d.sends[st.id] = st
	defer delete(d.sends, st.id)

	// RTS carries the size in its 8-byte payload.
	if _, err := d.port.Send(p, d.addrs[dst], bcl.SystemChannel, d.header(uint64(n)), 8,
		packTag(kindRTS, ctx, tag, st.id)); err != nil {
		return err
	}
	if ev := d.port.WaitSend(p); ev.Type == nic.EvSendFailed {
		// A failed RTS means no CTS will ever come; waiting for it
		// would hang the rank forever.
		return fmt.Errorf("eadi: rendezvous RTS to %d failed", dst)
	}

	// Drive progress until the CTS names the data channel.
	for !st.gotCTS {
		d.progress(p)
	}

	if d.addrs[dst].Node == d.port.Addr().Node {
		// Intra-node: one pipelined shared-memory message straight
		// into the posted buffer; its recv event completes the peer.
		if _, err := d.port.Send(p, d.addrs[dst], st.ctsChan, va, n, packTag(kindFIN, ctx, tag, st.id)); err != nil {
			return err
		}
		if ev := d.port.WaitSend(p); ev.Type == nic.EvSendFailed {
			return fmt.Errorf("eadi: rendezvous data to %d failed", dst)
		}
		return nil
	}

	// Inter-node: chunked RMA writes into the registered window, then
	// a FIN (flows are ordered, so the FIN arrives after the data).
	chunks := 0
	for off := 0; off < n; off += rmaChunk {
		ln := rmaChunk
		if off+ln > n {
			ln = n - off
		}
		if _, err := d.port.RMAWrite(p, d.addrs[dst], st.ctsChan, off, va+mem.VAddr(off), ln); err != nil {
			return err
		}
		chunks++
	}
	for i := 0; i < chunks; i++ {
		if ev := d.port.WaitSend(p); ev.Type == nic.EvSendFailed {
			return fmt.Errorf("eadi: rendezvous data to %d failed", dst)
		}
	}
	if _, err := d.port.Send(p, d.addrs[dst], bcl.SystemChannel, d.header(uint64(st.ctsChan)), 8,
		packTag(kindFIN, ctx, tag, st.id)); err != nil {
		return err
	}
	if ev := d.port.WaitSend(p); ev.Type == nic.EvSendFailed {
		return fmt.Errorf("eadi: rendezvous FIN to %d failed", dst)
	}
	return nil
}

// Recv blocks until a message matching (src, ctx, tag) — with
// AnySource/AnyTag wildcards — lands in [va, va+n).
func (d *Device) Recv(p *sim.Proc, src, ctx, tag int, va mem.VAddr, n int) (Status, error) {
	p.Sleep(matchCost)
	// Check the unexpected queue first.
	for i, m := range d.unexpected {
		if m.ctx != ctx || !matches(src, tag, m.src, m.tag) {
			continue
		}
		d.unexpected = append(d.unexpected[:i], d.unexpected[i+1:]...)
		return d.claim(p, m, va, n)
	}
	pr := d.newRecv(src, ctx, tag, va, n)
	d.posted = append(d.posted, pr)
	for !pr.done {
		d.progress(p)
	}
	return d.endRecv(pr)
}

// claim completes a blocking receive from the unexpected message m it
// matched, and gives m back.
func (d *Device) claim(p *sim.Proc, m *inMsg, va mem.VAddr, n int) (Status, error) {
	defer d.endMsg(m)
	if m.rts != nil {
		return d.acceptRndv(p, m.rts, m.ctx, m.tag, va, n)
	}
	if len(m.data) > n {
		return Status{}, ErrTruncated
	}
	if len(m.data) > 0 {
		// As in PostRecvNB and deliverEager, an empty message moves
		// no bytes and charges no copy.
		d.port.Node().Memcpy(p, len(m.data))
		if err := d.port.Process().Space.Write(va, m.data); err != nil {
			return Status{}, err
		}
	}
	d.EagerRecv++
	return Status{Source: m.src, Tag: m.tag, Len: len(m.data)}, nil
}

// Probe reports whether a matching message is available without
// receiving it (non-blocking).
func (d *Device) Probe(p *sim.Proc, src, ctx, tag int) (Status, bool) {
	p.Sleep(matchCost)
	for _, m := range d.unexpected {
		if m.ctx != ctx || !matches(src, tag, m.src, m.tag) {
			continue
		}
		ln := len(m.data)
		if m.rts != nil {
			ln = m.rts.size
		}
		return Status{Source: m.src, Tag: m.tag, Len: ln}, true
	}
	if ev, ok := d.port.TryRecv(p); ok {
		d.handle(p, ev)
		return d.Probe(p, src, ctx, tag)
	}
	return Status{}, false
}

func matches(wantSrc, wantTag, src, tag int) bool {
	return (wantSrc == AnySource || wantSrc == src) &&
		(wantTag == AnyTag || wantTag == tag)
}

// progress services one BCL event.
func (d *Device) progress(p *sim.Proc) {
	d.handle(p, d.port.WaitRecv(p))
}

func (d *Device) handle(p *sim.Proc, ev nic.Event) {
	if ev.Type != nic.EvRecvDone {
		return
	}
	// Collective completions ride their reserved channel.
	if ev.Channel == bcl.CollChannel {
		d.handleColl(p, ev)
		return
	}
	// Rendezvous data arriving on its channel (intra-node path)?
	if ev.Channel != bcl.SystemChannel {
		if rr, ok := d.rndvRecvs[ev.Channel]; ok {
			delete(d.rndvRecvs, ev.Channel)
			d.finishRndv(p, rr, ev.Len)
			return
		}
	}
	kind, ctx, tag, id := unpackTag(ev.Tag)
	src := d.rankOf(ev.SrcNode, ev.SrcPort)
	switch kind {
	case kindEager:
		d.deliverEager(p, ev, src, ctx, tag)
	case kindRTS:
		size := int(getUint64(d.port.Process().Space, ev.VA))
		d.recycle(p, ev)
		d.deliverRTS(p, &rtsInfo{size: size, sendID: id, src: src}, ctx, tag)
	case kindCTS:
		ch := int(getUint64(d.port.Process().Space, ev.VA))
		d.recycle(p, ev)
		if st, ok := d.sends[id]; ok {
			st.ctsChan = ch
			st.gotCTS = true
		}
	case kindFIN:
		ch := int(getUint64(d.port.Process().Space, ev.VA))
		d.recycle(p, ev)
		if rr, ok := d.rndvRecvs[ch]; ok {
			delete(d.rndvRecvs, ch)
			d.finishRndv(p, rr, rr.size)
		}
	default:
		// A tag kind this protocol does not own: count it and recycle
		// the pool buffer so a foreign message cannot leak the eager pool.
		d.UnclaimedMsgs++
		d.recycle(p, ev)
	}
}

// deliverEager matches an arrived eager message or queues it.
func (d *Device) deliverEager(p *sim.Proc, ev nic.Event, src, ctx, tag int) {
	p.Sleep(matchCost)
	for i, pr := range d.posted {
		if pr.ctx != ctx || !matches(pr.src, pr.tag, src, tag) {
			continue
		}
		d.posted = append(d.posted[:i], d.posted[i+1:]...)
		if ev.Len > pr.n {
			pr.err = ErrTruncated
		} else if ev.Len > 0 {
			// Pool buffer to user buffer; a copy that faults moves
			// nothing and charges nothing.
			if pr.err = d.port.Process().Space.Copy(pr.va, ev.VA, ev.Len); pr.err == nil {
				d.port.Node().Memcpy(p, ev.Len)
			}
		}
		pr.status = Status{Source: src, Tag: tag, Len: ev.Len}
		pr.done = true
		d.EagerRecv++
		d.recycle(p, ev)
		return
	}
	// Unexpected: copy out so the pool buffer can recycle.
	d.UnexpectedMsgs++
	m := d.newMsg(src, ctx, tag)
	if ev.Len > 0 {
		m.data = slices.Grow(m.data, ev.Len)[:ev.Len]
		if d.port.Process().Space.ReadInto(ev.VA, m.data) != nil {
			m.data = m.data[:0] // an unreadable pool buffer delivers an empty message
		}
		d.port.Node().Memcpy(p, ev.Len)
	}
	d.unexpected = append(d.unexpected, m)
	d.recycle(p, ev)
}

// deliverRTS matches a rendezvous announcement or queues it.
func (d *Device) deliverRTS(p *sim.Proc, rts *rtsInfo, ctx, tag int) {
	p.Sleep(matchCost)
	for i, pr := range d.posted {
		if pr.ctx != ctx || !matches(pr.src, pr.tag, rts.src, tag) {
			continue
		}
		d.posted = append(d.posted[:i], d.posted[i+1:]...)
		st, err := d.acceptRndvInto(p, rts, ctx, tag, pr)
		_ = st
		if err != nil {
			pr.err = err
			pr.done = true
		}
		return
	}
	d.UnexpectedMsgs++
	m := d.newMsg(rts.src, ctx, tag)
	m.rts = rts
	d.unexpected = append(d.unexpected, m)
}

// acceptRndv handles an RTS found on the unexpected queue by a Recv.
func (d *Device) acceptRndv(p *sim.Proc, rts *rtsInfo, ctx, tag int, va mem.VAddr, n int) (Status, error) {
	pr := d.newRecv(rts.src, ctx, tag, va, n)
	if _, err := d.acceptRndvInto(p, rts, ctx, tag, pr); err != nil {
		d.endRecv(pr)
		return Status{}, err
	}
	for !pr.done {
		d.progress(p)
	}
	return d.endRecv(pr)
}

// acceptRndvInto arms the data path for a matched RTS and sends CTS.
func (d *Device) acceptRndvInto(p *sim.Proc, rts *rtsInfo, ctx, tag int, pr *pendingRecv) (*rndvRecv, error) {
	if rts.size > pr.n {
		return nil, ErrTruncated
	}
	ch := d.port.CreateChannel()
	srcAddr := d.addrs[rts.src]
	var err error
	if srcAddr.Node == d.port.Addr().Node {
		err = d.port.PostRecv(p, ch, pr.va, rts.size)
	} else {
		err = d.port.RegisterOpen(p, ch, pr.va, rts.size)
	}
	if err != nil {
		return nil, err
	}
	rr := &rndvRecv{recv: pr, src: rts.src, tag: tag, size: rts.size}
	d.rndvRecvs[ch] = rr
	// CTS carries the channel id in its payload.
	if _, err := d.port.Send(p, srcAddr, bcl.SystemChannel, d.header(uint64(ch)), 8,
		packTag(kindCTS, ctx, tag, rts.sendID)); err != nil {
		return nil, err
	}
	if ev := d.port.WaitSend(p); ev.Type == nic.EvSendFailed {
		delete(d.rndvRecvs, ch)
		return nil, fmt.Errorf("eadi: rendezvous CTS to %d failed", rts.src)
	}
	return rr, nil
}

func (d *Device) finishRndv(p *sim.Proc, rr *rndvRecv, n int) {
	d.RndvRecv++
	rr.recv.status = Status{Source: rr.src, Tag: rr.tag, Len: n}
	rr.recv.done = true
}

// recycle gives a consumed system-pool buffer back to the port, which
// returns a full batch of them in one kernel trap. A refused return
// only leaves the pool smaller; the device has no better answer.
func (d *Device) recycle(p *sim.Proc, ev nic.Event) {
	if ev.Channel == bcl.SystemChannel {
		_ = d.port.RecycleSystemBuffer(p, ev.VA)
	}
}

// hdrSlots is how many rendezvous headers the header page holds, used
// round-robin. A header's send DMA must happen before its slot is
// rewritten, and waiting out one send event per header does not by
// itself promise that: WaitSend retires the oldest completion, which
// with nonblocking eager sends in flight is one of theirs. So a
// header's DMA can trail its posting by as many headers as there are
// eager sends not yet waited for, and a rank would need 512 of those
// outstanding to come round to a slot still waiting for its DMA. (A
// fresh page per header made any number safe, at a pin-down miss and a
// leaked page each.)
const hdrSlots = 512

// header writes v into the next slot of the header page and returns the
// slot: the 8-byte payload of an RTS (size) or CTS/FIN (data channel).
func (d *Device) header(v uint64) mem.VAddr {
	va := d.hdrs + mem.VAddr(8*(d.nextHdr%hdrSlots))
	d.nextHdr++
	putUint64(d.port.Process().Space, va, v)
	return va
}

// putUint64 and getUint64 move the 8-byte little-endian payload of a
// rendezvous header (RTS: size, CTS/FIN: data channel).
func putUint64(sp *mem.AddrSpace, va mem.VAddr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	sp.Write(va, b[:])
}

func getUint64(sp *mem.AddrSpace, va mem.VAddr) uint64 {
	var b [8]byte
	sp.ReadInto(va, b[:]) // an unreadable header reads as zero
	return binary.LittleEndian.Uint64(b[:])
}
