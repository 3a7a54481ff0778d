package nic

import (
	"fmt"

	"bcl/internal/fabric"
	"bcl/internal/mem"
	"bcl/internal/nic/gbn"
	"bcl/internal/sim"
)

// This file is the MCP (Message Control Program): the firmware running
// on the NIC's control processor. Its engines share the card:
//
//   - the send MCP drains the send request queue in two engines: the
//     fetch engine (fetchNext) arbitrates across the send rings and
//     fetches payload from host memory by DMA, and the inject engine
//     (injectNext) packetises, seals a CRC and injects. fetchQ between
//     them double-buffers, so the fetch of fragment k+1 overlaps the
//     injection of fragment k — per-message protocol processing plus
//     per-fragment processing serialise with link injection, which sets
//     the ~146 MB/s plateau the paper measures against the 160 MB/s
//     link.
//   - the receive MCP (recv.go) drains the fabric RX queue: CRC check,
//     go-back-N sequencing, payload DMA into the posted buffer,
//     cumulative ACKs, completion events and the target side of RMA.
//   - retxEngine replays unacknowledged packets when a flow's
//     retransmission timer fires or a NACK arrives.
//   - collEngine (collengine.go) runs the collective offload.
//
// The fetch, inject and receive engines run as events, as the LANai's
// single event loop does: each is a state machine whose every wait is
// one event booked where a blocked process's wake-up would be. The
// retransmit and collective engines are processes; they reach the
// operations the event-driven engines share (transmit, inject, busDMA,
// failMessage, post) through Proc.Await.
//
// All of them charge their processing to the single LANai processor
// resource, so send and receive traffic genuinely contend on the card.

// pending is what the NIC keeps with a packet in a flow's window: the
// pristine packet (every transmission puts a pool clone of it on the
// wire, sharing the payload by reference; a fault hook corrupts a private
// copy, see fabric.Fault, so the retained bytes stay intact) and its SRAM.
type pending struct {
	pkt  *fabric.Packet
	sram int
}

// txFlow is the sender side of the reliable protocol toward one remote
// node: the go-back-N core's decisions (gbn.Sender), and the timers and
// waiters that carry them out.
type txFlow struct {
	gbn.Sender[*SendDesc, pending]
	dst                          int
	timer, probeTimer, grayTimer sim.Timer
	window                       *sim.Cond

	// Timer callbacks, built once per flow so arming a timer (once per
	// ACK) allocates nothing: onTimer queues a retransmit round, onProbe
	// the next liveness probe, onGray ends a rail-steering hold.
	onTimer, onProbe, onGray func()
}

// rxFlow is the receiver side from one remote node.
type rxFlow struct {
	gbn.Receiver
	src int
	asm []*rxAssembly // messages in progress: one per sending port at most, so found by walking
}

// DoneRing is the depth of a flow's ring of delivered messages, and of
// the kernel journal's mirror of it.
const DoneRing = gbn.DoneRing

// rxAssembly tracks one in-progress incoming message.
type rxAssembly struct {
	msgID      uint64
	desc       *RecvDesc
	port       *Port
	channel    int
	got        int
	gotSet     []bool // per-fragment receipt bitmap (dedups replay overlap)
	frags      int
	baseOffset int  // extra offset into desc (RMA writes)
	recvEvent  bool // post EvRecvDone on completion
	sysBuf     bool // buffer came from the system pool
}

// where labels this NIC in trace spans.
func (n *NIC) where() string { return n.row }

func (n *NIC) flowTo(dst int) *txFlow {
	f := n.tx.Get(dst)
	if f == nil {
		f = &txFlow{Sender: gbn.NewSender[*SendDesc, pending](&n.gbn, dst, n.Steer != nil), dst: dst, window: sim.NewCond(n.env)}
		f.onTimer = func() {
			f.timer = sim.Timer{}
			n.retxQ.Post(f)
		}
		f.onProbe = func() {
			f.probeTimer = sim.Timer{}
			n.retxQ.Post(f)
		}
		f.onGray = func() { n.grayRestore(f) }
		n.tx.Set(dst, f)
	}
	return f
}

func (n *NIC) flowFrom(src int) *rxFlow {
	f := n.rx.Get(src)
	if f == nil {
		f = &rxFlow{Receiver: gbn.NewReceiver(&n.gbn), src: src}
		n.rx.Set(src, f)
	}
	return f
}

// ---------------------------------------------------------------- send

// The send MCP's waits — work to fetch, LANai or bus time, SRAM, room
// in or a fragment from fetchQ, window room, the injection link, an
// event's delivery — each resume its engine at the stage they name.

// fetchJob is one fragment staged in NIC SRAM, flowing from the fetch
// engine to the injection engine. The two engines form a pipeline so
// the host-DMA fetch of fragment (or message) k+1 overlaps the link
// injection of k — across message boundaries too, which matters for
// upper layers that issue many chunk-sized messages back to back.
type fetchJob struct {
	desc     *SendDesc
	fragIdx  int
	frags    int
	pkt      *fabric.Packet // pooled descriptor holding the fetched payload; nil for a read request or a failed fetch
	sram     int
	lastFrag bool
	err      error
	epoch    uint32 // boot epoch the fragment was staged under
}

// releaseSRAM returns b bytes of NIC buffer memory, if any.
func (n *NIC) releaseSRAM(b int) {
	if b > 0 {
		n.sram.Release(b)
	}
}

// dropJob releases what a staged fragment holds when the injector
// discards it.
func (n *NIC) dropJob(j fetchJob) {
	n.releaseSRAM(j.sram)
	if j.pkt != nil {
		j.pkt.Release()
	}
}

// txFetch is the fetch engine's record: the fragment in hand, from the
// arbiter's grant to its hand-off to the injector.
type txFetch struct {
	hold
	r     *sendRing // the ring it was granted from
	job   fetchJob  // the fragment, as it is staged
	xl    xlate     // where its payload is, and the translation on the way there
	seg   int       // the next segment to DMA
	done  int       // the payload bytes DMAed so far
	start sim.Time  // when the DMA began
}

// The stages a wait resumes the fetch engine at (fetchStep).
const (
	fxWork   uint64 = iota // work may have been posted, or the firmware rebooted
	fxXlated               // one page's translation charged
	fxDMAed                // one segment's bus time passed
	fxStaged               // the fragment's SRAM granted
	fxQueued               // the fragment is in fetchQ
)

// fetchStep resumes the fetch engine after a wait.
func (n *NIC) fetchStep(stage, _ uint64) {
	switch stage {
	case fxWork:
	case fxXlated, fxDMAed:
		if !n.fetchPayload(stage) {
			return
		}
	case fxStaged:
		if !n.fetchQueue() {
			return
		}
	case fxQueued:
		n.fetchQueued()
	default:
		panic(fmt.Sprintf("nic%d: fetch stage %d", n.node, stage))
	}
	n.fetchNext()
}

// fetchNext is the fetch half of the send pipeline: it arbitrates
// across the per-endpoint send rings, stages payload fragments into
// SRAM by host DMA and hands them to the injector, fragment after
// fragment until one has to wait, or waits for work. With QoS off the
// arbiter replays strict cross-ring arrival order one whole message at
// a time (single-tenant behaviour); with QoS on it grants wire
// fragments under weighted round-robin so endpoints share the DMA
// engine proportionally.
func (n *NIC) fetchNext() {
	f := &n.txf
	for {
		r, d, idx := n.nextFrag()
		if r == nil {
			// Crashed firmware fetches nothing; FinishReboot broadcasts.
			n.sendWork.WaitFn(f.resume, fxWork, 0)
			return
		}
		// The staging epoch: a crash mid-fetch voids the job.
		f.r, f.job = r, fetchJob{desc: d, fragIdx: idx, frags: r.frags, epoch: n.bootEpoch}
		if idx == 0 {
			n.stats.MsgsSent++
			if d.Born == 0 {
				// Raw-NIC callers (and firmware-generated descriptors
				// that did not inherit a birth time) are born at
				// dequeue, so the latency histogram covers every
				// architecture.
				d.Born = n.env.Now()
			}
		}
		if !n.fetch() {
			return
		}
	}
}

// nextFrag picks the ring the active arbitration policy grants and
// returns the next fragment of its in-service message, or a nil ring if
// there is nothing to fetch. The ring's fragment cursor is advanced;
// fetchQueued retires the message once its last (or failing) fragment
// has been handed to the injector.
func (n *NIC) nextFrag() (*sendRing, *SendDesc, int) {
	if n.fwDead {
		return nil, nil, 0
	}
	var r *sendRing
	if n.cfg.QoS {
		r = n.pickWRR()
	} else {
		r = n.pickFIFO()
	}
	if r == nil {
		return nil, nil, 0
	}
	if r.cur == nil {
		r.cur = r.q.Pop().d
		r.fragIdx = 0
		r.frags = 1
		if r.cur.Kind != DescRMARead {
			r.frags = n.prof.Packets(r.cur.Len)
		}
	}
	idx := r.fragIdx
	r.fragIdx++
	return r, r.cur, idx
}

// fetch starts staging the fragment in hand and reports whether it is
// in fetchQ already. A read request is a single control packet: no
// payload. A data fragment's bytes are DMAed from host memory into the
// payload of a pooled packet — the buffer they stay in until the
// receiving NIC has DMAed them out — charging bus time (and, in
// NIC-translated mode, translation cache costs).
func (n *NIC) fetch() bool {
	f := &n.txf
	d := f.job.desc
	if d.Kind == DescRMARead {
		return n.fetchQueue()
	}
	lo := f.job.fragIdx * n.prof.MaxPacket
	hi := max(min(lo+n.prof.MaxPacket, d.Len), lo)
	f.job.pkt = n.pool.Get(hi - lo)
	if hi == lo {
		return n.fetched()
	}
	f.job.err = n.resolveStart(&f.xl, d.Segs, d.VA, d.Space, lo, hi-lo)
	return n.fetchPayload(fxXlated)
}

// fetchPayload translates the payload a page at a time (fxXlated),
// DMAs it a segment at a time, bus time then bytes (fxDMAed), and
// stages it. A payload whose bytes cannot be fetched is dropped, and
// the fragment goes on with the error, which the injector surfaces.
func (n *NIC) fetchPayload(stage uint64) bool {
	f := &n.txf
	switch {
	case f.job.err != nil:
	case stage == fxDMAed:
		s := f.xl.out[f.seg]
		if f.job.err = n.hmem.DMARead(s.Phys, f.job.pkt.Payload[f.done:f.done+s.Len]); f.job.err == nil {
			f.seg++
			f.done += s.Len
		}
	case f.xl.left > 0:
		var cost sim.Time
		if cost, f.job.err = n.translatePage(&f.xl); f.job.err == nil {
			f.use(n.cpu, cost, fxXlated)
			return false
		}
	default: // resolved: the DMA starts
		f.seg, f.done, f.start = 0, 0, n.env.Now()
	}
	if f.job.err != nil {
		f.job.pkt.Release()
		f.job.pkt = nil
		return n.fetched()
	}
	if f.seg < len(f.xl.out) {
		n.busDMA(&f.hold, f.xl.out[f.seg].Len, fxDMAed)
		return false
	}
	n.Tracer.AddFlow("nic: host DMA fetch", n.where(), f.job.desc.Trace, f.start, n.env.Now())
	return n.fetched()
}

// fetched takes SRAM for the fetched payload, then queues it.
func (n *NIC) fetched() bool {
	f := &n.txf
	if f.job.pkt != nil {
		f.job.sram = len(f.job.pkt.Payload)
	}
	if f.job.sram > 0 && !n.sram.AcquireFn(f.job.sram, f.resume, fxStaged, 0) {
		return false
	}
	return n.fetchQueue()
}

// fetchQueue hands the staged fragment to the injector, once fetchQ has
// room.
func (n *NIC) fetchQueue() bool {
	f := &n.txf
	f.job.lastFrag = f.job.fragIdx == f.r.frags-1
	if !n.fetchQ.SendFn(f.job, f.resume, fxQueued, 0) {
		return false
	}
	n.fetchQueued()
	return true
}

// fetchQueued retires the ring's message once its last fragment is with
// the injector. A fetch error abandons the rest of the message (the
// injector surfaces the failure).
func (n *NIC) fetchQueued() {
	f := &n.txf
	if f.job.err != nil || f.job.lastFrag {
		n.finishMsg(f.r)
	}
	f.r, f.job = nil, fetchJob{}
}

// finishMsg retires a ring's in-service message and reaps the ring if
// its port closed and the backlog has drained.
func (n *NIC) finishMsg(r *sendRing) {
	r.cur = nil
	if r.closed && !r.hasWork() {
		n.removeRing(r)
	}
}

// pickFIFO is the single-tenant arbitration policy: once a message is
// in service it runs to completion, and the next message is the one
// that was posted earliest across all rings — exactly the behaviour of
// one shared send queue.
func (n *NIC) pickFIFO() *sendRing {
	var best *sendRing
	var bestSeq uint64
	for _, r := range n.ringOrder {
		if r.cur != nil {
			return r
		}
		if r.q.Len() == 0 {
			continue
		}
		if arrival := r.q.At(0).arrival; best == nil || arrival < bestSeq {
			best = r
			bestSeq = arrival
		}
	}
	return best
}

// pickWRR grants wire fragments under weighted round-robin: a ring
// with work keeps the grant while it has round credits, then refills
// and passes the grant on. Every ring with work is served at least its
// weight's worth of fragments per full rotation, so no endpoint can
// starve another regardless of backlog depth.
func (n *NIC) pickWRR() *sendRing {
	// Two full rotations: the first may only refill exhausted credits,
	// the second is then guaranteed to grant any ring that has work.
	for scanned := 0; scanned < 2*len(n.ringOrder); scanned++ {
		if n.rrPos >= len(n.ringOrder) {
			n.rrPos = 0
		}
		r := n.ringOrder[n.rrPos]
		if r.hasWork() && r.credits > 0 {
			r.credits--
			n.stats.QoSFrags++
			return r
		}
		r.credits = r.weight
		n.rrPos++
	}
	return nil
}

// txInject is the inject engine's record: the fragment in hand, from
// fetchQ to the link.
type txInject struct {
	hold
	j       fetchJob
	flow    *txFlow  // the flow it goes out on
	start   sim.Time // when the open span began
	trace   uint64   // the open span's flow
	skipMsg uint64   // message being dropped after a fetch error
}

// The stages a wait resumes the inject engine at (injectStep).
const (
	ixRecv        uint64 = iota // a fragment may be in fetchQ
	ixReadCharged               // read request: its processing charged
	ixCharged                   // data fragment: its processing charged
	ixSent                      // data fragment: transmitted
	ixDone                      // the fragment is handled
)

// injectStep resumes the inject engine after a wait.
func (n *NIC) injectStep(stage, _ uint64) {
	switch stage {
	case ixRecv, ixDone:
	case ixReadCharged:
		if !n.injectRead() {
			return
		}
	case ixCharged:
		if !n.injectData() {
			return
		}
	case ixSent:
		n.injectSent()
	default:
		panic(fmt.Sprintf("nic%d: inject stage %d", n.node, stage))
	}
	n.injectNext()
}

// injectNext is the injection half of the send pipeline: it takes
// fragment after fragment from fetchQ until one has to wait, or waits
// for one.
func (n *NIC) injectNext() {
	i := &n.txi
	i.j, i.flow = fetchJob{}, nil
	for {
		j, ok := n.fetchQ.RecvFn(i.resume, ixRecv, 0)
		if !ok || !n.injectJob(j) {
			return
		}
	}
}

// injectJob starts on a fragment and reports whether it is handled
// already.
func (n *NIC) injectJob(j fetchJob) bool {
	i := &n.txi
	d := j.desc
	if n.fwDead || j.epoch != n.bootEpoch {
		// Staged under a boot epoch that has since crashed: the
		// fragment's SRAM was already wiped conceptually; the kernel
		// journal replay re-issues the message if it still matters.
		n.dropJob(j)
		return true
	}
	if d.Len < 0 {
		// Only a free list's poison is negative.
		panic(fmt.Sprintf("nic%d: send pipeline holds a descriptor that was retired and recycled", n.node))
	}
	if j.err != nil {
		// Bad host descriptor (fault/unpinned). Surface a send
		// failure; the kernel path validates before posting, so
		// this fires mainly for the user-level architecture.
		n.dropJob(j)
		i.skipMsg = d.MsgID
		return n.failMessage(d, i.resume, ixDone, 0)
	}
	if d.MsgID == i.skipMsg && d.MsgID != 0 {
		n.dropJob(j)
		return true
	}
	if d.Kind == DescCollMcast || d.Kind == DescCollComb {
		if j.fragIdx != 0 {
			// Collective payloads are single-packet by contract (the
			// library validates); drop stray fragments defensively.
			n.dropJob(j)
			return true
		}
		// Hand the staged payload (and its SRAM accounting) to the
		// collective engine: from here on the message fans out over
		// the tree without re-touching host memory. The engine keeps
		// and shares payloads for as long as a collective runs, so it
		// gets a GC-owned copy, not the pooled buffer.
		payload := append([]byte(nil), j.pkt.Payload...)
		j.pkt.Release()
		n.collQ.Post(collJob{kind: collJobLocal, desc: d, payload: payload, sram: j.sram, epoch: n.bootEpoch})
		return true
	}
	i.j, i.flow = j, n.flowTo(d.DstNode)
	if d.Kind == DescRMARead {
		i.use(n.cpu, n.prof.MCPSendProc, ixReadCharged)
		return false
	}
	cost := n.prof.MCPPacketProc
	if j.fragIdx == 0 {
		cost = n.prof.MCPDescFetch + n.prof.MCPSendProc
	}
	i.start, i.trace = n.env.Now(), d.Trace
	i.use(n.cpu, cost, ixCharged)
	return false
}

// injectRead transmits a read request, its processing charged.
func (n *NIC) injectRead() bool {
	i := &n.txi
	d := i.j.desc
	pkt := n.pool.Get(0)
	pkt.Kind, pkt.Frags, pkt.Offset = fabric.KindRMARead, 1, d.Offset
	pkt.Tag = uint64(d.ReplyChannel)
	n.stamp(pkt, d)
	return n.transmit(i.flow, pkt, d, true, 0, i.resume, ixDone, 0)
}

// injectData packetises a data fragment, its processing charged, and
// transmits it.
func (n *NIC) injectData() bool {
	i := &n.txi
	j, d := &i.j, i.j.desc
	stage := "nic: packet processing"
	if j.fragIdx == 0 {
		stage = "nic: send proc (reliable protocol)"
	}
	n.Tracer.AddFlow(stage, n.where(), i.trace, i.start, n.env.Now())
	pkt := j.pkt
	pkt.Kind = fabric.KindData
	if d.Kind == DescRMAWrite {
		pkt.Kind = fabric.KindRMAWrite
	}
	pkt.FragIdx, pkt.Frags = j.fragIdx, j.frags
	pkt.Offset = d.Offset + j.fragIdx*n.prof.MaxPacket
	pkt.Tag = d.Tag
	n.stamp(pkt, d)
	i.start, i.trace = n.env.Now(), d.Trace
	if !n.transmit(i.flow, pkt, d, j.lastFrag, j.sram, i.resume, ixSent, 0) {
		return false
	}
	n.injectSent()
	return true
}

// injectSent closes a data fragment's injection span.
func (n *NIC) injectSent() {
	i := &n.txi
	n.Tracer.AddFlow("nic: inject to network", n.where(), i.trace, i.start, n.env.Now())
}

// stamp fills in the header fields every packet of a message takes
// from its descriptor and seals the CRC — once: clones carry it.
func (n *NIC) stamp(pkt *fabric.Packet, d *SendDesc) {
	pkt.Src, pkt.Dst = n.node, d.DstNode
	pkt.SrcPort, pkt.DstPort, pkt.Channel = d.SrcPort, d.DstPort, d.Channel
	pkt.MsgID, pkt.MsgLen = d.MsgID, d.Len
	pkt.Trace, pkt.Born = d.Trace, d.Born
	pkt.Seal()
}

// xlate resolves a byte range into physical segments, out: at once from
// a host-translated list, or on the card a page at a time (left bytes
// from addr to go). The fetch engine and the receive MCP keep one each.
type xlate struct {
	out   []mem.Segment
	space *mem.AddrSpace
	addr  int64
	left  int
}

// resolveStart begins resolving [lo, lo+ln) of a buffer into x.
func (n *NIC) resolveStart(x *xlate, segs []mem.Segment, va mem.VAddr, space *mem.AddrSpace, lo, ln int) error {
	x.out, x.left = x.out[:0], 0
	if n.cfg.Translate == HostTranslated || segs != nil {
		x.out = appendSegs(x.out, segs, lo, ln)
		return nil
	}
	if space == nil {
		return fmt.Errorf("nic%d: NIC-translated descriptor without address space", n.node)
	}
	x.space, x.addr, x.left = space, int64(va)+int64(lo), ln
	return nil
}

// translatePage looks the next page of x up in the card's translation
// cache, appends its segment, and returns the lookup's firmware time.
// The cache is shared: a caller charges it before the next lookup.
func (n *NIC) translatePage(x *xlate) (sim.Time, error) {
	pageSize := int64(x.space.Mem().PageSize())
	off := x.addr % pageSize
	pa, hit, err := n.tlb.lookup(x.space, x.addr/pageSize)
	if err != nil {
		return 0, err
	}
	cost := n.prof.NICTranslateLook
	if hit {
		n.stats.TLBHits++
	} else {
		n.stats.TLBMisses++
		cost += n.prof.NICTranslateMiss
	}
	chunk := int(min(pageSize-off, int64(x.left)))
	x.out = append(x.out, mem.Segment{Phys: pa + mem.PAddr(off), Len: chunk})
	x.addr += int64(chunk)
	x.left -= chunk
	return cost, nil
}

// sliceSegs cuts the byte range [lo, lo+ln) out of a scatter/gather
// list into a fresh slice.
func sliceSegs(segs []mem.Segment, lo, ln int) []mem.Segment {
	return appendSegs(nil, segs, lo, ln)
}

// appendSegs appends the byte range [lo, lo+ln) of a scatter/gather
// list to out.
func appendSegs(out, segs []mem.Segment, lo, ln int) []mem.Segment {
	pos := 0
	for _, s := range segs {
		if ln <= 0 {
			break
		}
		segEnd := pos + s.Len
		if segEnd <= lo {
			pos = segEnd
			continue
		}
		start := 0
		if lo > pos {
			start = lo - pos
		}
		take := s.Len - start
		if take > ln {
			take = ln
		}
		out = append(out, mem.Segment{Phys: s.Phys + mem.PAddr(start), Len: take})
		ln -= take
		lo += take
		pos = segEnd
	}
	return out
}

// transmit runs the reliability window and injects the packet. It
// takes over pkt: the flow's window keeps it until the ACK, and every
// path that does not queue it releases it. It reports true if it is
// done at once, or runs k(a, b) last in the event that finishes it.
func (n *NIC) transmit(flow *txFlow, pkt *fabric.Packet, d *SendDesc, lastFrag bool, sram int, k func(a, b uint64), a, b uint64) bool {
	pkt.Epoch = n.bootEpoch
	if len(n.idleTms) == 0 {
		n.addTransmission()
	}
	t := n.idleTms[len(n.idleTms)-1]
	n.idleTms = n.idleTms[:len(n.idleTms)-1]
	t.flow, t.pkt, t.d, t.last, t.sram, t.k, t.ka, t.kb = flow, pkt, d, lastFrag, sram, k, a, b
	var done bool
	if !n.cfg.Reliable {
		done = n.inject(pkt, t.stepFn, tmInjected, 0) && t.injected()
	} else {
		done = t.send()
	}
	if done {
		t.free()
	}
	return done
}

// transmission is one packet on its way through transmit: what a
// transmitting process's stack held across the window wait, the
// injection and the completion it may post.
type transmission struct {
	n      *NIC
	flow   *txFlow
	pkt    *fabric.Packet
	d      *SendDesc
	last   bool
	sram   int
	k      func(a, b uint64)
	ka, kb uint64
	stepFn func(stage, _ uint64)
}

// transmissions is how many transmission records New readies: one for
// each engine that transmits, one packet at a time — the inject and
// collective engines. A third would allocate.
const transmissions = 2

// The stages of a transmission (transmission.step).
const (
	tmWindow   uint64 = iota // reliable: the window may have room
	tmInjected               // fire-and-forget: the link has the packet
	tmFailed                 // refused: the message's failure is posted
	tmDone                   // the packet is handled
)

// addTransmission readies one more transmission record.
func (n *NIC) addTransmission() {
	t := &transmission{n: n}
	t.stepFn = t.step
	n.idleTms = append(n.idleTms, t)
}

// free returns the record to the NIC's idle list.
func (t *transmission) free() {
	t.flow, t.pkt, t.d, t.k = nil, nil, nil, nil
	t.n.idleTms = append(t.n.idleTms, t)
}

func (t *transmission) step(stage, _ uint64) {
	n := t.n
	switch stage {
	case tmWindow:
		if n.tx.Get(t.d.DstNode) != t.flow {
			// The firmware rebooted while we waited for window space:
			// this fragment belongs to the dead boot epoch; the kernel
			// journal replay re-issues the message.
			n.releaseSRAM(t.sram)
			t.pkt.Release()
		} else if !t.send() {
			return
		}
	case tmInjected:
		if !t.injected() {
			return
		}
	case tmFailed:
		t.pkt.Release()
	case tmDone:
	default:
		panic(fmt.Sprintf("nic%d: transmit stage %d", n.node, stage))
	}
	k, a, b := t.k, t.ka, t.kb
	t.free()
	k(a, b)
}

// injected finishes a fire-and-forget packet once the link has it: the
// last fragment declares its message a success.
func (t *transmission) injected() bool {
	n, d := t.n, t.d
	n.releaseSRAM(t.sram)
	if !t.last {
		return true
	}
	ev, post := n.sendEvent(EvSendDone, d), !d.NoEvent
	n.retireSend(d.MsgID, d, true)
	return !post || n.post(ev, t.stepFn, tmDone, 0)
}

// send puts the packet into its flow's window once there is room, and
// injects a copy; a message the flow refuses fails.
func (t *transmission) send() bool {
	n, flow, pkt, d := t.n, t.flow, t.pkt, t.d
	if flow.Full() {
		flow.window.WaitFn(t.stepFn, tmWindow, 0)
		return false
	}
	seq, v := flow.Send(sendEntry{
		MsgID: pkt.MsgID, Msg: d, P: pending{pkt, t.sram}, Last: t.last,
		Tracked: d.Kind == DescData || d.Kind == DescRMAWrite,
	}, pkt.FragIdx == 0, n.env.Now())
	if v == gbn.Sent {
		pkt.Seq = seq
		if flow.timer == (sim.Timer{}) {
			n.armTimer(flow)
		}
		return n.inject(n.pool.Clone(pkt), t.stepFn, tmDone, 0)
	}
	n.releaseSRAM(t.sram)
	if v == gbn.Fail || v == gbn.FailFast {
		n.stats.FastFails++
		if v == gbn.FailFast {
			n.obs.Event(n.env.Now(), n.node, "nic", "fast-fail", pkt.Trace,
				fmt.Sprintf("dst=%d msg=%d peer %v", d.DstNode, d.MsgID, flow.Health()))
		}
		if !n.failMessage(d, t.stepFn, tmFailed, 0) {
			return false
		}
	}
	pkt.Release()
	return true
}

// sendEntry is a packet in a flow's window.
type sendEntry = gbn.Entry[*SendDesc, pending]

// inject pushes one packet into the fabric, counting it. It reports
// true if the link took it at once, or runs k(a, b) once it has.
func (n *NIC) inject(pkt *fabric.Packet, k func(a, b uint64), a, b uint64) bool {
	n.stats.PacketsSent++
	n.stats.BytesSent += uint64(len(pkt.Payload))
	return n.ep.InjectFn(pkt, k, a, b)
}

func (n *NIC) armTimer(f *txFlow) {
	d, adapted, backedOff := f.RTO()
	if adapted {
		n.stats.RTOAdapted++
	}
	if backedOff {
		n.stats.Backoffs++
	}
	f.timer.Cancel()
	f.timer = n.env.After(d, f.onTimer)
}

// wipe empties a flow's window, returning the SRAM and the packets it
// holds, except that a rewind keeps the collective forwards (packet and
// SRAM) for the collective engine to send again.
func (n *NIC) wipe(f *txFlow, rewind bool) (kept []sendEntry) {
	for w := f.Window(); w.Len() > 0; {
		e := w.Pop()
		if rewind && (e.Msg.Kind == DescCollMcast || e.Msg.Kind == DescCollComb) {
			kept = append(kept, e)
			continue
		}
		n.releaseSRAM(e.P.sram)
		e.P.pkt.Release()
	}
	return kept
}

// ---------------------------------------------------------- retransmit

func (n *NIC) retxEngine(p *sim.Proc) {
	for {
		f := n.retxQ.Recv(p)
		if n.fwDead || n.tx.Get(f.dst) != f {
			// Crashed firmware retransmits nothing; a flow replaced by a
			// reboot is stale and its timer event is void.
			continue
		}
		switch v, note := f.Timeout(n.env.Now()); v {
		case gbn.Probe:
			// The probe timer routes through this queue so probes are
			// injected from process context.
			n.cpu.Use(p, 1, n.prof.MCPAckProc)
			n.stats.Probes++
			n.obs.Event(n.env.Now(), n.node, "nic", "probe", 0, fmt.Sprintf("dst=%d", f.dst))
			n.ep.Inject(p, n.control(fabric.KindProbe, f.dst, 0, 0))
			n.armProbe(f)
		case gbn.GiveUp:
			n.failFlow(p, f)
		case gbn.Resend:
			n.rtt(f, note)
			n.resend(p, f)
		}
	}
}

// resend injects a retransmit round: the window as it stands now. Every
// packet in it goes out again even if its ACK lands while an earlier one
// is being injected; cloning up front takes the payload references that
// keep those bytes alive past such an ACK.
func (n *NIC) resend(p *sim.Proc, f *txFlow) {
	w := f.Window()
	n.obs.Event(n.env.Now(), n.node, "nic", "retx-round", w.At(0).P.pkt.Trace,
		fmt.Sprintf("dst=%d round=%d pkts=%d", f.dst, f.Retries(), w.Len()))
	first := w.Head()
	round := n.retxRound[:0]
	for i := 0; i < w.Len(); i++ {
		e := w.At(i)
		wire := n.pool.Clone(e.P.pkt)
		if e.Void {
			wire.Kind = fabric.KindVoid
		}
		round = append(round, wire)
	}
	for i, wire := range round {
		f.Resending(first + uint64(i))
		n.Tracer.DoFlow(p, "nic: retransmit", n.where(), wire.Trace, func() {
			n.cpu.Use(p, 1, n.prof.MCPPacketProc)
			n.stats.Retransmits++
			p.Await(func(k func(a, b uint64)) bool { return n.inject(wire, k, 0, 0) })
		})
		round[i] = nil
	}
	n.retxRound = round[:0]
	n.armTimer(f)
}

// failFlow abandons every in-flight message on a flow after retry
// exhaustion, reporting EvSendFailed once per message, marks the peer
// Dead and starts the liveness-probe cycle.
func (n *NIC) failFlow(p *sim.Proc, f *txFlow) {
	w := f.Window()
	for abs, end := w.Head(), w.Head()+uint64(w.Len()); abs < end; abs++ {
		// Delivering a failure event blocks, and the window stays queued
		// meanwhile (so the injector keeps seeing it full): an entry an
		// ACK retired in that time is skipped, and the fields used after
		// a blocking call are copied out first.
		e := w.Live(abs)
		if e == nil {
			continue
		}
		n.releaseSRAM(e.P.sram)
		e.P.sram = 0
		if e.Void {
			continue // withdrawn: its message has failed already
		}
		d, msgID, traceID := e.Msg, e.MsgID, e.P.pkt.Trace
		ev := n.sendEvent(EvSendFailed, d)
		n.retireSend(msgID, d, false) // abandoned: the journal forgets it
		switch {
		case !f.Abandon(e, d.OnFail != nil || !d.NoEvent):
		case d.OnFail != nil:
			// Collective forwards: the engine reparents the branch
			// instead of surfacing a host event.
			d.OnFail()
		default:
			n.stats.SendFailures++
			n.obs.Event(n.env.Now(), n.node, "nic", "send-failed", traceID,
				fmt.Sprintf("dst=%d msg=%d retries exhausted", f.dst, msgID))
			n.postEvent(p, ev)
		}
	}
	n.wipe(f, false)
	f.timer.Cancel()
	f.timer = sim.Timer{}
	if f.Down() {
		n.stats.PeerDeaths++
		now := n.env.Now()
		n.Tracer.Add("nic: peer dead", n.where(), now, now)
		n.obs.Event(now, n.node, "nic", "peer-dead", 0, fmt.Sprintf("dst=%d", f.dst))
		n.armProbe(f)
	}
	f.window.Broadcast()
}

// armProbe schedules the next liveness probe toward a dead peer.
func (n *NIC) armProbe(f *txFlow) {
	f.probeTimer.Cancel()
	f.probeTimer = n.env.After(n.prof.PeerProbeInterval, f.onProbe)
}

// peerUp carries out a peer's re-admission after liveness evidence (an
// ACK's progress, a probe ACK, a rewind); recovered says it was Dead or
// Probing.
func (n *NIC) peerUp(f *txFlow, recovered bool) {
	if recovered {
		n.stats.PeerRecoveries++
		now := n.env.Now()
		n.Tracer.Add("nic: peer recovered", n.where(), now, now)
		n.obs.Event(now, n.node, "nic", "peer-recovered", 0, fmt.Sprintf("dst=%d", f.dst))
	}
	f.probeTimer.Cancel()
	f.probeTimer = sim.Timer{}
	f.window.Broadcast()
}

// failMessage reports a send failure detected before injection (bad
// descriptor) or a fail-fast rejection. It reports true if that is done
// at once, or runs k(a, b) once the failure event is posted.
func (n *NIC) failMessage(d *SendDesc, k func(a, b uint64), a, b uint64) bool {
	if d.OnFail != nil {
		d.OnFail()
		return true
	}
	// The failure is surfaced to the host, so the journal must not
	// resurrect the message after a firmware reboot.
	ev, post := n.sendEvent(EvSendFailed, d), !d.NoEvent
	if f := n.tx.Get(d.DstNode); f != nil {
		f.Forget(d.MsgID)
	}
	n.retireSend(d.MsgID, d, false)
	if !post {
		return true
	}
	n.stats.SendFailures++
	return n.post(ev, k, a, b)
}

// ------------------------------------------------------------- events

// sendEvent composes the sender-side completion event of a descriptor.
func (n *NIC) sendEvent(t EventType, d *SendDesc) Event {
	return Event{
		Type: t, Port: d.SrcPort, Channel: d.Channel, MsgID: d.MsgID,
		Len: d.Len, Tag: d.Tag, SrcNode: n.node, SrcPort: d.SrcPort,
		Trace: d.Trace,
	}
}

// postEvent is post for the engines that run as processes.
func (n *NIC) postEvent(p *sim.Proc, ev Event) {
	p.Await(func(k func(a, b uint64)) bool { return n.post(ev, k, 0, 0) })
}

// post delivers a sender-side event to its port and runs k(a, b) once
// it is posted, or reports true if the port is gone: nothing to wait.
func (n *NIC) post(ev Event, k func(a, b uint64), a, b uint64) bool {
	if port := n.ports.Get(ev.Port); port != nil {
		n.deliverEvent(port.SendEvQ, ev, k, a, b)
		return false
	}
	return true
}

// delivery is one completion event on its way to the host.
type delivery struct {
	hold
	n      *NIC
	q      *sim.Queue[Event]
	ev     Event
	start  sim.Time
	k      func(a, b uint64)
	ka, kb uint64
}

// deliveries is how many delivery records New readies: one for each
// activity that delivers, one event at a time — the receive MCP and the
// inject, retransmit and collective engines. A fifth would allocate.
const deliveries = 4

// The stages of a delivery (delivery.step).
const (
	dvCharged uint64 = iota // the LANai has set up the event DMA
	dvDone                  // the event has crossed the bus
)

// addDelivery readies one more delivery record.
func (n *NIC) addDelivery() {
	dv := &delivery{n: n}
	dv.init(n.env, dv.step)
	n.idleDvs = append(n.idleDvs, dv)
}

// ModelFP returns the fold of every completion event the NIC handed to
// its host, sender's and receiver's alike, in the order they landed:
// time, node, port, source node and port, type, channel, length, tag
// and message id. The message id tells apart two completions that
// differ in nothing else, so a swapped pair moves the log.
func (n *NIC) ModelFP() uint64 { return n.model }

// deliverEvent charges the completion-path costs and hands the event to
// the host: DMA into the user event queue q, or an interrupt. Then
// k(a, b) runs, as the last act of the event that finished it.
func (n *NIC) deliverEvent(q *sim.Queue[Event], ev Event, k func(a, b uint64), a, b uint64) {
	if len(n.idleDvs) == 0 {
		n.addDelivery()
	}
	dv := n.idleDvs[len(n.idleDvs)-1]
	n.idleDvs = n.idleDvs[:len(n.idleDvs)-1]
	dv.q, dv.ev, dv.start, dv.k, dv.ka, dv.kb = q, ev, n.env.Now(), k, a, b
	dv.use(n.cpu, n.prof.MCPEventDMA, dvCharged)
}

func (dv *delivery) step(stage, _ uint64) {
	n := dv.n
	if stage == dvCharged {
		dv.use(n.Bus, n.prof.EventBusTime, dvDone)
		return
	}
	now, ev := n.env.Now(), &dv.ev
	n.Tracer.AddFlow("nic: completion event DMA", n.where(), ev.Trace, dv.start, now)
	h := sim.Mix(n.model, uint64(now))
	h = sim.Mix(h, uint64(uint16(n.node))|uint64(uint16(ev.Port))<<16|uint64(uint16(ev.SrcNode))<<32|uint64(uint16(ev.SrcPort))<<48)
	h = sim.Mix(h, uint64(ev.Type)|uint64(uint32(ev.Channel))<<32)
	h = sim.Mix(h, uint64(ev.Len))
	h = sim.Mix(h, ev.Tag)
	n.model = sim.Mix(h, ev.MsgID)
	if n.cfg.Completion == Interrupt {
		n.stats.Interrupts++
		if n.InterruptHandler != nil {
			n.InterruptHandler(dv.ev)
		}
	} else {
		dv.q.Post(dv.ev)
	}
	k, a, b := dv.k, dv.ka, dv.kb
	dv.q, dv.k = nil, nil
	n.idleDvs = append(n.idleDvs, dv)
	k(a, b)
}

// hold is Resource.Use for a firmware activity that runs as events: its
// grant (if the resource was busy) and release are one event each, where
// a process's wake-ups were; then the activity resumes at use's stage.
type hold struct {
	env                *sim.Env
	res                *sim.Resource
	resume             func(stage, _ uint64)
	grantFn, releaseFn func(stage, d uint64)
}

func (h *hold) init(env *sim.Env, resume func(stage, _ uint64)) {
	h.env, h.resume = env, resume
	h.grantFn, h.releaseFn = h.grant, h.release
}

func (h *hold) use(r *sim.Resource, d sim.Time, stage uint64) {
	h.res = r
	if r.AcquireFn(1, h.grantFn, stage, uint64(d)) {
		h.grant(stage, uint64(d))
	}
}

func (h *hold) grant(stage, d uint64) {
	h.env.AtArg(h.env.Now()+sim.Time(d), h.releaseFn, stage, 0)
}

func (h *hold) release(stage, _ uint64) {
	h.res.Release(1)
	h.resume(stage, 0)
}
