// Package fabric models system-area-network fabrics: packets, links,
// switches and routing. It provides the generic machinery — a wormhole
// (cut-through) link engine with per-link contention, topology/routing
// tables, and fault injection — used by the concrete topologies in the
// myrinet and mesh subpackages.
//
// A packet's head ripples through its route paying one hop latency per
// switch; each traversed link is occupied for the packet's full
// serialization time starting when the head reaches it, so bandwidth
// contention is modelled per link while latency stays cut-through.
//
// On the host clock a packet costs no garbage and no process: the
// descriptor and its payload buffer come from a per-simulation Pool and
// are shared by reference (see Pool and DESIGN §6, Packet lifetime),
// and injection and transit are a chain of sim.Env.AtArg events over a
// pooled in-flight record (see Network.inject and Network.start).
package fabric

import (
	"fmt"
	"hash/crc32"

	"bcl/internal/hw"
	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// PacketKind discriminates wire packets.
type PacketKind uint8

// Wire packet kinds.
const (
	KindData      PacketKind = iota // message payload fragment
	KindAck                         // cumulative acknowledgement
	KindNack                        // receiver cannot accept (no buffer); retransmit later
	KindRMARead                     // RMA read request (open channel)
	KindRMAWrite                    // RMA write payload fragment (open channel)
	KindProbe                       // peer-health probe (firmware liveness check)
	KindProbeAck                    // probe reply: the peer is reachable again
	KindCollMcast                   // collective: NIC-forwarded multicast fragment
	KindCollComb                    // collective: combine contribution toward the root
	KindResync                      // receiver asks a sender to resynchronize a flow (epoch + expected seq)
	KindVoid                        // a sequence number the sender withdrew: consumed, never delivered
	numKinds                        // count of the kinds above
)

func (k PacketKind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	case KindNack:
		return "NACK"
	case KindRMARead:
		return "RMA-READ"
	case KindRMAWrite:
		return "RMA-WRITE"
	case KindProbe:
		return "PROBE"
	case KindProbeAck:
		return "PROBE-ACK"
	case KindCollMcast:
		return "COLL-MCAST"
	case KindCollComb:
		return "COLL-COMB"
	case KindResync:
		return "RESYNC"
	case KindVoid:
		return "VOID"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// HeaderBytes is the wire header size: route+kind+addressing+sequence.
const HeaderBytes = 24

// CRCBytes is the trailing checksum size.
const CRCBytes = 4

// Packet is one wire packet. Payload carries real bytes; CRC is a real
// CRC-32C (Castagnoli) so that injected corruption is genuinely
// detected (or missed, exactly as often as CRC-32C misses). Any 32-bit
// CRC catches every corruption a Schedule makes (one flipped bit, or one
// byte xored with 0xff, per Corrupt rule); Castagnoli is the polynomial
// hosts compute in hardware (SSE4.2, ARMv8), about twice as fast as
// IEEE's. Neither CRCBytes nor the card's charge for the CRC
// (hw.Profile.MCPPacketProc) depends on it.
type Packet struct {
	Kind    PacketKind
	Src     int // source node id
	Dst     int // destination node id
	SrcPort int
	DstPort int
	Channel int

	// Trace is the causal trace id minted when the message entered the
	// stack (see trace.ID); it survives retransmission, duplication and
	// rail failover so one message's packets can be followed
	// end-to-end. Zero for untraced/control traffic.
	Trace uint64
	// Born is the virtual time the message entered the send path, for
	// end-to-end latency histograms at the receiver.
	Born sim.Time

	// Epoch is the sending NIC's firmware boot epoch, stamped on every
	// packet (data and control). A receiver seeing a higher epoch than
	// it recorded for the source knows the source firmware rebooted and
	// resets its flow state; a sender seeing a higher epoch on an
	// ACK/RESYNC knows the receiver rebooted and rewinds + replays its
	// in-flight messages. Zero means "unreliable mode / epoch-unaware".
	Epoch uint32

	MsgID   uint64 // sender-assigned message id; on a NACK, a message the receiver refuses for good
	Seq     uint64 // per-flow wire sequence number
	FragIdx int    // fragment index within the message
	Frags   int    // total fragments in the message
	Offset  int    // byte offset of this fragment in the message
	MsgLen  int    // total message length
	Tag     uint64 // upper-layer immediate word

	AckSeq  uint64  // for ACK/NACK: cumulative sequence
	Coll    CollHdr // collective header (KindCollMcast/KindCollComb only)
	Payload []byte
	CRC     uint32

	Sent sim.Time // injection timestamp (diagnostics)

	// pool is the free list Release returns this descriptor to (nil for
	// a descriptor built as a literal, which Release leaves to the GC)
	// and free marks a descriptor sitting on it; buf is the pooled
	// buffer behind Payload (nil when Payload is GC-owned).
	pool *Pool
	free bool
	buf  *payload
}

// CollHdr is the collective sub-header carried by KindCollMcast and
// KindCollComb packets. It is a value field so the struct copy in
// Pool.Clone and Packet.CopyOut duplicates it safely.
type CollHdr struct {
	Ctx     int    // collective context id
	Seq     uint64 // per-context (combine) or per-origin (mcast) sequence
	Origin  int    // member index that injected the collective
	Mask    uint64 // combine: member-coverage bits accumulated so far
	Dead    uint64 // combine: members known dead along the way
	Op      uint8  // combine operator (coll.Op)
	DT      uint8  // combine element type (coll.DT)
	Release bool   // combine: root must multicast the result back down
}

// WireSize returns the serialized size in bytes.
func (p *Packet) WireSize() int { return HeaderBytes + len(p.Payload) + CRCBytes }

// castagnoli is the CRC-32C table Seal and Verify checksum with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal computes and stores the payload CRC.
func (p *Packet) Seal() { p.CRC = crc32.Checksum(p.Payload, castagnoli) }

// Verify reports whether the payload matches the stored CRC.
func (p *Packet) Verify() bool { return crc32.Checksum(p.Payload, castagnoli) == p.CRC }

// payload is one pooled payload buffer. Every packet whose Payload
// aliases b holds one of refs; the last Release returns it to pool.
type payload struct {
	b    []byte
	refs int
	pool *Pool
}

func (b *payload) ref() {
	if b.refs <= 0 {
		panic("fabric: reference to a released payload")
	}
	b.refs++
}

func (b *payload) unref() {
	if b.refs <= 0 {
		panic("fabric: payload released more often than referenced")
	}
	if b.refs--; b.refs == 0 {
		b.pool.bufs.Put(b)
	}
}

// Pool recycles packet descriptors and payload buffers for one
// simulation (every endpoint of a Network shares its pool), so a packet
// in steady state allocates nothing. A packet that is never released is
// simply collected by the GC; a second Release of a descriptor, or of a
// payload reference, panics.
type Pool struct {
	pkts sim.FreeList[*Packet]
	bufs sim.FreeList[*payload]
	// bufCap is the capacity new buffers get: the largest payload asked
	// for so far, so that after warm-up every free buffer fits every
	// request.
	bufCap int
}

// desc takes a descriptor off the free list, or makes one; the caller
// overwrites its stale contents.
func (pl *Pool) desc() *Packet {
	if p, ok := pl.pkts.Get(); ok {
		return p
	}
	return &Packet{}
}

// Get returns a zeroed descriptor owning a payload of n bytes (nil when
// n is 0) whose contents are unspecified: the caller fills them.
func (pl *Pool) Get(n int) *Packet {
	p := pl.desc()
	*p = Packet{pool: pl}
	if n > 0 {
		p.buf = pl.getBuf(n)
		p.Payload = p.buf.b[:n]
	}
	return p
}

func (pl *Pool) getBuf(n int) *payload {
	if n > pl.bufCap {
		pl.bufCap = n
	}
	for {
		b, ok := pl.bufs.Get()
		if !ok {
			return &payload{b: make([]byte, pl.bufCap), refs: 1, pool: pl}
		}
		if cap(b.b) >= n {
			b.refs = 1
			return b
		}
		// Allocated before a larger payload was seen: leave it to the GC.
		pl.bufs.Abandon()
	}
}

// Clone returns a descriptor from the pool that copies src's header and
// shares its payload: by reference when the payload is pooled (the
// clone holds its own reference), by plain aliasing when it is
// GC-owned. This is how a packet is retransmitted or duplicated without
// copying bytes.
func (pl *Pool) Clone(src *Packet) *Packet {
	c := pl.desc()
	*c = *src
	c.pool, c.free = pl, false
	if c.buf != nil {
		c.buf.ref()
	}
	return c
}

// InUse reports the descriptors and payload buffers taken from the pool
// and not yet released — both zero when the simulation is quiescent,
// which leak tests assert.
func (pl *Pool) InUse() (descriptors, payloads int) { return pl.pkts.InUse(), pl.bufs.InUse() }

// Release drops the packet's payload reference and returns a pooled
// descriptor to its pool. Whoever takes a packet out of the fabric (the
// receiving NIC, or the fabric itself when it drops one) releases it;
// the packet must not be touched afterwards. Releasing a literal
// &Packet{} is a no-op.
func (p *Packet) Release() {
	if p.buf != nil {
		p.buf.unref()
		p.buf, p.Payload = nil, nil
	}
	pl := p.pool
	if pl == nil {
		return
	}
	if p.free {
		panic("fabric: packet released twice")
	}
	p.free = true
	pl.pkts.Put(p)
}

// CopyOut returns a GC-owned copy of the packet that stays valid after
// p is released: the header is copied; a GC-owned payload is shared, a
// pooled one is copied.
func (p *Packet) CopyOut() *Packet {
	c := *p
	c.pool, c.free, c.buf = nil, false, nil
	if p.buf != nil {
		c.Payload = append([]byte(nil), p.Payload...)
	}
	return &c
}

// Verdict is a fault hook's decision about one packet.
type Verdict uint8

// Fault verdicts.
const (
	Deliver   Verdict = iota // forward the packet normally
	Drop                     // lose the packet in the fabric
	Duplicate                // deliver the packet twice (switch misbehaviour)
	Corrupt                  // a Rule's action: damage the payload, then deliver
)

// Fault is a fault-injection hook. It may mutate the packet (corrupt
// bytes) and returns a verdict: deliver, drop, or duplicate. The fabric
// hands the hook a packet that owns its payload — it copies a payload
// anyone else still references before the call — so corruption reaches
// the wire copy only, never a sender's retained retransmission bytes.
//
// A fault is data: a Schedule (packet rules, outage and gray-failure
// windows, firmware crashes; also listed by `bclbench -list`) compiles
// its rules into one Fault per rail. Fabric.SetFault installs a bare
// hook, for the callers that observe packets rather than inject faults.
type Fault func(env *sim.Env, pkt *Packet) Verdict

// Endpoint is a fabric attachment point for one NIC: an inbound packet
// queue plus the outbound injection path.
type Endpoint struct {
	Node     int
	RX       *sim.Queue[*Packet]
	net      *Network
	pool     *Pool
	injectFn func(pkt *Packet, k func(a, b uint64), a, b uint64) bool

	// model is this node's packet log on this network (Fabric.ModelFP):
	// every packet injected here and delivered here, in order, folded by
	// logPacket. A composite endpoint's rails keep it instead.
	model uint64
}

// What a packet record says happened: the fault verdict at injection,
// or a delivery (of the packet, or of a duplicate's second copy).
const (
	logDelivered = uint64(Corrupt) + 1 + iota
	logDuplicateCopy
)

// logPacket folds one packet record into the endpoint's model log:
// time, source, destination, kind, what happened, fragment, sequence,
// ACK sequence, message id, epoch, payload length and CRC. The rail is
// the log's: each network keeps its own. Six words, each one sim.Mix
// (an xor, a multiply and a rotate), nothing allocated.
func (ep *Endpoint) logPacket(t sim.Time, pkt *Packet, what uint64) {
	h := sim.Mix(ep.model, uint64(t))
	h = sim.Mix(h, uint64(uint16(pkt.Src))|uint64(uint16(pkt.Dst))<<16|uint64(pkt.Kind)<<32|what<<40|uint64(uint16(pkt.FragIdx))<<48)
	h = sim.Mix(h, pkt.Seq^pkt.AckSeq<<32)
	h = sim.Mix(h, pkt.MsgID)
	h = sim.Mix(h, uint64(pkt.Epoch)|uint64(len(pkt.Payload))<<32)
	ep.model = sim.Mix(h, uint64(pkt.CRC))
}

// NewInjectedEndpoint builds an endpoint whose injection path is
// custom (composite fabrics use it to demultiplex across rails) and
// whose RX queue and packet pool are supplied by the caller.
func NewInjectedEndpoint(node int, rx *sim.Queue[*Packet], pool *Pool, inject func(pkt *Packet, k func(a, b uint64), a, b uint64) bool) *Endpoint {
	return &Endpoint{Node: node, RX: rx, pool: pool, injectFn: inject}
}

// Pool returns the packet pool the NIC on this endpoint builds its
// packets from.
func (ep *Endpoint) Pool() *Pool { return ep.pool }

// Inject sends pkt into the fabric, which owns it from here on: it is
// delivered to the destination's RX queue or released. The calling
// process (a NIC firmware engine) is occupied for the packet's
// serialization time on the injection link — this is what limits a
// single sender's bandwidth — after which the packet propagates through
// the route asynchronously. It waits on InjectFn.
func (ep *Endpoint) Inject(p *sim.Proc, pkt *Packet) {
	p.Await(func(k func(a, b uint64)) bool { return ep.InjectFn(pkt, k, 0, 0) })
}

// InjectFn is Inject for event-driven callers: it reports true if the
// injection finished at once, or runs k(a, b) last in the event that
// frees the injection link, where an injecting process would wake.
func (ep *Endpoint) InjectFn(pkt *Packet, k func(a, b uint64), a, b uint64) bool {
	if ep.injectFn != nil {
		return ep.injectFn(pkt, k, a, b)
	}
	return ep.net.inject(ep.Node, pkt, k, a, b)
}

// Fabric is a network connecting numbered nodes.
type Fabric interface {
	// Attach returns the endpoint for a node; each node has one NIC.
	Attach(node int) *Endpoint
	// Nodes returns the number of attachment points.
	Nodes() int
	// SetFault installs a fault-injection hook (nil clears it).
	SetFault(f Fault)
	// Install arms a schedule's rules (replacing the hook when it has
	// any) and windows; it panics on a malformed entry or a crash.
	Install(s Schedule)
	// NodeDown reports whether the node's fabric attachment is inside
	// an outage window at the current virtual time.
	NodeDown(node int) bool
	// Name identifies the fabric type for traces and tables.
	Name() string
	// SetTracer attaches a span tracer: every packet's wire time (and
	// in-fabric drop) becomes a span on a "wire:<name>" row (nil
	// detaches).
	SetTracer(tr *trace.Tracer)
	// Collect publishes the fabric's packet counters into a metrics
	// snapshot (obs.Collector shape).
	Collect(set obs.Set)
	// ModelFP returns the fold of every packet the node injected (with
	// its fault verdict) and every packet delivered to it, in the order
	// the model produced them: one model log per rail, folded in rail
	// order.
	ModelFP(node int) uint64
}

// link is one directed physical channel.
type link struct {
	res *sim.Resource
	bw  hw.Bps
	lat sim.Time // propagation + switch cut-through latency at this hop
}

// Network is the generic routed-fabric engine. Concrete topologies add
// links and routes, then expose it through the Fabric interface.
type Network struct {
	env       *sim.Env
	name      string
	wireRow   string // "wire:"+name, this fabric's trace row
	obsLayer  string // "fabric:"+name, this fabric's metrics layer
	endpoints []*Endpoint
	links     []*link
	routes    [][]int // [src*nodes+dst] -> link ids, injection link first; nil if none, empty for loopback
	fault     Fault
	tr        *trace.Tracer
	pool      *Pool

	// Packets from their injection on: a slab of in-flight records, the
	// free slots in it, and the long-lived callbacks of the injection
	// (serialize) and transit (start) event chains, which carry a slot
	// index in their a word.
	flights        []flight
	slots          sim.FreeList[uint32]
	sendFn, sentFn func(id, tx uint64)
	startFn        func(id, _ uint64)
	hopFn, grantFn func(id, hop uint64)
	releaseFn      func(link, _ uint64)

	windows []Window // outage and gray-failure windows, checked

	delivered   uint64
	dropped     uint64
	duplicated  uint64
	outageDrops uint64
	slowedPkts  uint64

	// obs, when set, receives a per-rail wire_ns transit-time histogram
	// (injection to final-hop delivery) — the raw series behind the
	// health engine's rail-divergence rule. wireNs is that series, looked
	// up by the first delivery and not before: a fabric that carried
	// nothing adds no empty histogram to the registry's snapshots.
	obs    *obs.Obs
	wireNs *obs.Histogram
}

// NewNetwork returns an empty network for n nodes.
func NewNetwork(env *sim.Env, name string, n int) *Network {
	net := &Network{
		env:      env,
		name:     name,
		wireRow:  "wire:" + name,
		obsLayer: "fabric:" + name,
		routes:   make([][]int, n*n),
		pool:     &Pool{},
	}
	net.sendFn, net.sentFn = net.send, net.sent
	net.startFn, net.hopFn, net.grantFn, net.releaseFn = net.start, net.hop, net.grant, net.release
	for i := 0; i < n; i++ {
		net.endpoints = append(net.endpoints, &Endpoint{
			Node: i,
			RX:   sim.NewQueue[*Packet](env, fmt.Sprintf("%s/rx%d", name, i), 0),
			net:  net,
			pool: net.pool,
		})
	}
	return net
}

// AddLink registers a directed link and returns its id.
func (n *Network) AddLink(bw hw.Bps, latency sim.Time) int {
	id := len(n.links)
	n.links = append(n.links, &link{
		res: sim.NewResource(n.env, n.wireRow, 1),
		bw:  bw,
		lat: latency,
	})
	return id
}

// SetRoute fixes the link sequence from src to dst. The first link is
// the injection link (NIC to first switch); the last delivers to the
// destination NIC.
func (n *Network) SetRoute(src, dst int, linkIDs []int) {
	i, ok := n.routeSlot(src, dst)
	if !ok {
		panic(fmt.Sprintf("fabric %s: route %d->%d on %d nodes", n.name, src, dst, len(n.endpoints)))
	}
	if len(linkIDs) == 0 {
		linkIDs = []int{} // loopback: present, unlike a route never set
	}
	n.routes[i] = linkIDs
}

// Route returns the link ids from src to dst (nil if none, or if either
// node is not on the fabric).
func (n *Network) Route(src, dst int) []int {
	i, ok := n.routeSlot(src, dst)
	if !ok {
		return nil
	}
	return n.routes[i]
}

// routeSlot is where routes keeps (src, dst); ok is false if either
// node is not on the fabric.
func (n *Network) routeSlot(src, dst int) (i int, ok bool) {
	nodes := len(n.endpoints)
	return src*nodes + dst, uint(src) < uint(nodes) && uint(dst) < uint(nodes)
}

// Attach implements Fabric.
func (n *Network) Attach(node int) *Endpoint { return n.endpoints[node] }

// Nodes implements Fabric.
func (n *Network) Nodes() int { return len(n.endpoints) }

// Name implements Fabric.
func (n *Network) Name() string { return n.name }

// SetFault implements Fabric.
func (n *Network) SetFault(f Fault) { n.fault = f }

// Install implements Fabric.
func (n *Network) Install(s Schedule) {
	hooks, windows := s.PerRail(len(n.endpoints), 1)
	if hooks[0] != nil {
		n.fault = hooks[0]
	}
	n.windows = append(n.windows, windows[0]...)
}

// ModelFP implements Fabric.
func (n *Network) ModelFP(node int) uint64 { return n.endpoints[node].model }

// SetTracer implements Fabric: wire-time spans land on the
// "wire:<name>" row.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tr = tr }

// Collect implements Fabric, publishing packet counters under the
// "fabric:<name>" layer (node -1: link counters are cluster-wide).
func (n *Network) Collect(set obs.Set) {
	l := n.obsLayer
	set(-1, l, "delivered", n.delivered)
	set(-1, l, "dropped", n.dropped)
	set(-1, l, "duplicated", n.duplicated)
	set(-1, l, "outage_drops", n.outageDrops)
	set(-1, l, "slow_pkts", n.slowedPkts)
}

// CollectGauges publishes per-node RX queue depths (packets delivered
// by the fabric but not yet taken by the NIC's receive MCP).
func (n *Network) CollectGauges(set obs.GaugeSet) {
	l := n.obsLayer
	for _, ep := range n.endpoints {
		set(ep.Node, l, "rx_queued", int64(ep.RX.Len()))
	}
}

// SetObs attaches an observability bundle; routed deliveries then feed
// the cluster-wide "fabric:<name>"/wire_ns transit histogram.
func (n *Network) SetObs(o *obs.Obs) { n.obs, n.wireNs = o, nil }

// wireOutcome is how a packet's wire span ended.
type wireOutcome uint8

const (
	wireDelivered wireOutcome = iota
	wireFaultDrop
	wireOutageDrop
	numWireOutcomes
)

// wireStages interns the stage label of every (kind, outcome) wire
// span, so tracing a packet builds no string.
var wireStages = func() (t [numKinds][numWireOutcomes]string) {
	suffix := [numWireOutcomes]string{"", " dropped (fault)", " dropped (outage)"}
	for k := range t {
		for o, what := range suffix {
			t[k][o] = "wire: " + PacketKind(k).String() + what
		}
	}
	return t
}()

// traceWire records one wire span (delivery or drop) for a packet.
func (n *Network) traceWire(pkt *Packet, how wireOutcome, start, end sim.Time) {
	n.tr.AddFlow(wireStages[pkt.Kind][how], n.wireRow, pkt.Trace, start, end)
}

// NodeDown implements Fabric: true while node's attachment (or the
// whole fabric) is inside an outage window.
func (n *Network) NodeDown(node int) bool {
	now := n.env.Now()
	for _, w := range n.windows {
		if w.Slow == 0 && w.covers(node, now) {
			return true
		}
	}
	return false
}

// slowFactor returns the latency multiplier in effect right now for a
// packet between src and dst (1 when healthy). The largest applicable
// window wins; the factor is sampled once at injection time.
func (n *Network) slowFactor(src, dst int) int64 {
	now := n.env.Now()
	f := int64(1)
	for _, w := range n.windows {
		if int64(w.Slow) > f && (w.covers(src, now) || w.covers(dst, now)) {
			f = int64(w.Slow)
		}
	}
	return f
}

// own gives pkt a payload nobody else references, so a fault hook may
// corrupt it: a pooled buffer someone else also holds (the sender's
// retransmit queue) is copied into a fresh one, and a GC-owned payload,
// whose other holders are invisible, is always copied.
func own(pkt *Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	old := pkt.buf
	if old == nil {
		pkt.Payload = append([]byte(nil), pkt.Payload...)
		return
	}
	if old.refs > 1 {
		pkt.buf = old.pool.getBuf(len(pkt.Payload))
		pkt.Payload = pkt.buf.b[:copy(pkt.buf.b, pkt.Payload)]
		old.unref()
	}
}

// deliver posts pkt, and for a duplicated packet a second descriptor
// sharing its payload, to the destination's RX queue.
func (n *Network) deliver(pkt *Packet, dup bool) {
	ep, now := n.endpoints[pkt.Dst], n.env.Now()
	n.delivered++
	ep.logPacket(now, pkt, logDelivered)
	ep.RX.Post(pkt)
	if dup {
		pl := pkt.pool
		if pl == nil {
			pl = n.pool
		}
		n.delivered++
		ep.logPacket(now, pkt, logDuplicateCopy)
		ep.RX.Post(pl.Clone(pkt))
	}
}

// inject pushes pkt along its route (Endpoint.InjectFn); intra-node
// sends (src == dst, no route) deliver directly. A packet lost to a fault
// or an outage still occupies the injection link: the bits left the NIC.
func (n *Network) inject(src int, pkt *Packet, k func(a, b uint64), a, b uint64) bool {
	pkt.Sent = n.env.Now()
	f := flight{pkt: pkt, t0: pkt.Sent, slow: 1, k: k, ka: a, kb: b}
	v := Deliver
	if n.fault != nil {
		own(pkt)
		v = n.fault(n.env, pkt)
	}
	n.endpoints[src].logPacket(pkt.Sent, pkt, uint64(v))
	switch v {
	case Drop:
		n.dropped++
		f.how, f.route = wireFaultDrop, n.Route(src, pkt.Dst)
		return n.serialize(f)
	case Duplicate:
		f.dup = true
		n.duplicated++
	}
	if f.route = n.Route(src, pkt.Dst); f.route == nil {
		panic(fmt.Sprintf("fabric %s: no route %d->%d", n.name, src, pkt.Dst))
	}
	if len(f.route) == 0 { // loopback: never touches the fabric
		n.deliver(pkt, f.dup)
		return true
	}
	// Outage: a packet leaving a downed attachment is lost at the first
	// hop (the sender still serializes it out).
	if n.NodeDown(src) {
		n.dropped++
		n.outageDrops++
		f.how = wireOutageDrop
		return n.serialize(f)
	}
	// Gray-failure windows multiply wire time without losing anything;
	// the factor is sampled once, at injection.
	if f.slow = sim.Time(n.slowFactor(src, pkt.Dst)); f.slow > 1 {
		n.slowedPkts++
	}
	return n.serialize(f)
}

// serialize occupies the injection link for the packet's wire time,
// the per-NIC bandwidth limit (a lost loopback packet has none).
func (n *Network) serialize(f flight) bool {
	if len(f.route) == 0 {
		n.traceWire(f.pkt, f.how, f.t0, n.env.Now())
		f.pkt.Release()
		return true
	}
	id, ok := n.slots.Get()
	if !ok {
		id = uint32(len(n.flights))
		n.flights = append(n.flights, flight{})
	}
	n.flights[id] = f
	first := n.links[f.route[0]]
	tx := uint64(hw.TransferTime(f.pkt.WireSize(), first.bw) * f.slow)
	if first.res.AcquireFn(1, n.sendFn, uint64(id), tx) {
		n.send(uint64(id), tx)
	}
	return false
}

// send books the end of the injection link's serialization time.
func (n *Network) send(id, tx uint64) {
	n.env.AtArg(n.env.Now()+sim.Time(tx), n.sentFn, id, 0)
}

// sent ends an injection: it frees the link, and the injector goes on.
func (n *Network) sent(id, _ uint64) {
	f := &n.flights[id]
	n.links[f.route[0]].res.Release(1)
	k, a, b := f.k, f.ka, f.kb
	f.k = nil
	if f.how != wireDelivered {
		n.traceWire(f.pkt, f.how, f.t0, n.env.Now())
		f.pkt.Release()
		n.flights[id] = flight{}
		n.slots.Put(uint32(id))
	} else {
		n.env.AtArg(n.env.Now(), n.startFn, id, 0)
	}
	k(a, b)
}

// flight is one packet between its injection and its destination.
type flight struct {
	pkt   *Packet
	route []int
	t0    sim.Time    // injection instant
	slow  sim.Time    // gray-failure factor sampled at injection
	dup   bool        // the fault hook asked for a second delivery
	how   wireOutcome // a packet lost at injection: how

	k      func(a, b uint64) // the injector's continuation (Endpoint.InjectFn)
	ka, kb uint64
}

// A packet's transit past its injection link is a chain of events,
// each scheduled exactly where a per-packet process would have been
// woken:
//
//	start  now                 books the first hop
//	hop    +first-link latency the head reaches the next link: acquire
//	                           it (queueing behind earlier packets, and
//	                           then resuming from one grant event)
//	grant                      book the link's release at +serialization
//	                           and the next hop at +link latency
//	hop    ...                 with no link left: outage check, deliver
//
// No event is merged or dropped: the start event, which only books the
// next, is kept for event_fp alone (Env.Fingerprint, and through it
// every baseline's events and event_fp). What the model did, the
// packets and completions model_fp folds, does not depend on it, so a
// change that merges it away is judged by model_fp, with events and
// event_fp regenerated (ROADMAP item 20).
func (n *Network) start(id, _ uint64) {
	f := &n.flights[id]
	n.env.AtArg(n.env.Now()+n.links[f.route[0]].lat*f.slow, n.hopFn, id, 1)
}

func (n *Network) hop(id, hop uint64) {
	f := &n.flights[id]
	if int(hop) == len(f.route) {
		n.arrive(uint32(id))
		return
	}
	if n.links[f.route[hop]].res.AcquireFn(1, n.grantFn, id, hop) {
		n.grant(id, hop)
	}
}

func (n *Network) grant(id, hop uint64) {
	f := &n.flights[id]
	link := f.route[hop]
	l := n.links[link]
	now := n.env.Now()
	// Hold the link for the tail to pass, but let the head proceed after
	// the hop latency.
	n.env.AtArg(now+hw.TransferTime(f.pkt.WireSize(), l.bw)*f.slow, n.releaseFn, uint64(link), 0)
	n.env.AtArg(now+l.lat*f.slow, n.hopFn, id, hop+1)
}

func (n *Network) release(link, _ uint64) { n.links[link].res.Release(1) }

// arrive ends a transit: the head is through the last link.
func (n *Network) arrive(id uint32) {
	f := n.flights[id]
	n.flights[id] = flight{}
	n.slots.Put(id)
	pkt, now := f.pkt, n.env.Now()
	// Outage: a packet arriving at a downed attachment is lost on the
	// final hop.
	if n.NodeDown(pkt.Dst) {
		n.dropped++
		n.outageDrops++
		n.traceWire(pkt, wireOutageDrop, f.t0, now)
		pkt.Release()
		return
	}
	// With equal link bandwidths the tail follows the head continuously,
	// so after the last hop latency the whole packet has arrived (its
	// serialization was paid once, at injection).
	n.traceWire(pkt, wireDelivered, f.t0, now)
	if n.obs != nil {
		if n.wireNs == nil {
			n.wireNs = n.obs.Reg.Histogram(-1, n.obsLayer, "wire_ns")
		}
		n.wireNs.Observe(int64(now - f.t0))
	}
	n.deliver(pkt, f.dup)
}
