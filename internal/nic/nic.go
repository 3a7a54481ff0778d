// Package nic models the system-area-network interface card: a
// Myrinet-like adapter with a LANai-class control processor, local
// SRAM, host-DMA engines and a link port, running the MCP (Message
// Control Program) firmware implemented in mcp.go.
//
// One NIC implementation serves every communication architecture in
// the repository; Config selects the behavioural axes that distinguish
// them:
//
//   - Translate: descriptors carry host-translated physical segments
//     (semi-user-level and kernel-level — the kernel translated on the
//     send path) or virtual addresses the NIC must translate itself
//     through its small on-board cache (user-level, as in U-Net/VMMC).
//   - Completion: events are DMAed to user-space event queues that the
//     process polls (semi-user and user-level) or raised as host
//     interrupts (kernel-level).
//   - Reliable: the firmware runs the ACK/timeout go-back-N protocol
//     with CRC checking and retransmission (BCL, GM) or fire-and-forget
//     (the BIP-like comparator, which omits flow control and error
//     correction).
package nic

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/nic/gbn"
	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// TranslateMode says who resolves virtual addresses for DMA.
type TranslateMode uint8

// Translation modes.
const (
	HostTranslated TranslateMode = iota // descriptors carry physical segments
	NICTranslated                       // NIC resolves via its on-board cache
)

// CompletionMode says how the host learns about message events.
type CompletionMode uint8

// Completion modes.
const (
	UserEventQueue CompletionMode = iota // DMA events into polled user-space queues
	Interrupt                            // raise a host interrupt per event
)

// Config selects the firmware behaviour for one NIC.
type Config struct {
	Translate  TranslateMode
	Completion CompletionMode
	Reliable   bool
	Window     int // go-back-N window (packets); 0 means default 32
	MaxRetries int // timeouts before a message is failed; 0 means default 10

	// QoS enables weighted-round-robin arbitration of the send DMA
	// across per-endpoint rings, at wire-fragment granularity: each
	// endpoint gets up to its weight's worth of fragments per arbiter
	// round, so a bandwidth-hog endpoint cannot starve a
	// latency-sensitive one behind its queued backlog. When false the
	// card drains descriptors in strict cross-ring arrival order, one
	// whole message at a time — the single-tenant behaviour.
	QoS bool

	// AdaptiveRTO replaces the fixed retransmit-timeout base with a
	// Jacobson-style estimate (srtt + 4*rttvar) fed by per-peer RTT
	// samples (Karn's rule: retransmitted packets never contribute).
	// The estimator also detects gray failures — a flow whose smoothed
	// RTT blows past four times its baseline is steered onto the
	// alternate rail via the Steer hook when one is wired.
	AdaptiveRTO bool
}

// DescKind discriminates send descriptors.
type DescKind uint8

// Send descriptor kinds.
const (
	DescData      DescKind = iota // ordinary message to a channel
	DescRMAWrite                  // one-sided write into an open channel
	DescRMARead                   // one-sided read request from an open channel
	DescCollMcast                 // collective: inject a tree multicast
	DescCollComb                  // collective: contribute to a combine tree
)

// SendDesc is a send request descriptor as the host writes it into the
// NIC's send request queue.
type SendDesc struct {
	Kind    DescKind
	MsgID   uint64
	SrcPort int
	DstNode int
	DstPort int
	Channel int
	Len     int
	Tag     uint64
	Offset  int // RMA: byte offset within the remote open buffer

	// Host-translated mode: physical scatter/gather list. A buffer that
	// is physically contiguous — nearly every one — has a one-entry
	// list, and Seg is where that entry lives: the kernel translates
	// into Seg[:0] and Segs aliases it, so the list is part of the
	// descriptor and not an allocation of its own.
	Segs []mem.Segment
	Seg  [1]mem.Segment
	// NIC-translated mode: virtual buffer, resolved on the card.
	VA    mem.VAddr
	Space *mem.AddrSpace

	// ReplyChannel receives the data of an RMA read at the initiator.
	ReplyChannel int
	// NoEvent suppresses the sender completion event (internal
	// firmware-generated traffic such as RMA read replies).
	NoEvent bool

	// Coll is the collective header for DescCollMcast/DescCollComb
	// descriptors: context id, sequence, op/datatype and release flag.
	Coll fabric.CollHdr
	// OnFail, when set, is invoked (instead of posting EvSendFailed)
	// when the message is abandoned by fail-fast or retry exhaustion.
	// The collective engine uses it to reparent a tree branch around a
	// dead member. It runs in firmware context and must not block.
	OnFail func()

	// Trace is the causal trace id minted at the library send call (see
	// trace.ID); the firmware stamps it onto every packet of the message
	// so one message's spans link across host, NIC and fabric rows.
	Trace uint64
	// Born is when the message entered the stack (library send time);
	// the receiving NIC uses it for the end-to-end latency histogram.
	Born sim.Time

	// owner is the NIC whose free list lent the descriptor (GetSendDesc),
	// nil for one a caller built itself and nil again once retired.
	// shared marks a descriptor a rewind or a reboot replay has posted a
	// second time: two passes of the send pipeline may then hold it at
	// once, so it is retired like any other but never handed out again.
	owner  *NIC
	shared bool
}

// RecvDesc describes a posted receive buffer (or an open-channel
// registration) on the NIC.
type RecvDesc struct {
	Len   int
	Segs  []mem.Segment
	Seg   [1]mem.Segment // inline storage for a one-entry Segs, as in SendDesc
	VA    mem.VAddr
	Space *mem.AddrSpace

	pooled bool // lent by a NIC's free list (GetRecvDesc) and not yet back on it
}

// EventType discriminates completion events.
type EventType uint8

// Completion event types.
const (
	EvRecvDone EventType = iota
	EvSendDone
	EvSendFailed
)

func (t EventType) String() string {
	switch t {
	case EvRecvDone:
		return "RECV"
	case EvSendDone:
		return "SEND"
	case EvSendFailed:
		return "SEND-FAILED"
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Event is a completion record the MCP DMAs into a user-space event
// queue (or hands to the interrupt handler in kernel-level mode).
type Event struct {
	Type    EventType
	Port    int
	Channel int
	MsgID   uint64
	Len     int
	Tag     uint64
	SrcNode int
	SrcPort int
	VA      mem.VAddr // receive buffer base (for the library's benefit)
	Trace   uint64    // causal trace id of the message, 0 if untraced

	// Collective event fields (Channel == CollChannel only).
	CollKind   uint8  // CollEvMcast or CollEvResult
	CollOrigin int    // member index that injected the collective
	CollDead   uint64 // members found dead while the collective ran
}

// CollHdr aliases the wire collective header so library callers need
// not import the fabric package.
type CollHdr = fabric.CollHdr

// CollChannel is the reserved channel id collective completion events
// carry; the library demultiplexes them away from point-to-point
// traffic on it.
const CollChannel = -2

// Collective event kinds (Event.CollKind).
const (
	CollEvMcast  uint8 = 1 // a tree-multicast payload landed
	CollEvResult uint8 = 2 // a combine result (barrier/reduce) landed
)

// Port is the NIC-resident state of one BCL-style communication port:
// its event queues (conceptually rings in pinned user memory) and
// channel tables.
type Port struct {
	ID      int
	SendEvQ *sim.Queue[Event]
	RecvEvQ *sim.Queue[Event]

	nic    *NIC
	normal sim.Table[*RecvDesc]  // posted normal-channel buffers, by channel
	open   sim.Table[*RecvDesc]  // registered open-channel (RMA) buffers, by channel
	system *sim.Queue[*RecvDesc] // pre-posted system-channel pool (FIFO)
}

// TakeRecv is receive matching for the intra-node delivery path, which
// moves a local message without the firmware seeing it: it consumes the
// posting a message of msgLen bytes on the channel lands in — the next
// system-pool buffer on channel 0, the armed buffer on a normal one —
// exactly as an arriving message does (the journal forgets the posting,
// the descriptor goes back to the free list), so local and remote
// messages consume the same postings. The buffer is returned by value,
// without its DMA list. posted is false if there is nothing to take; a
// posting too short for the message is returned for its Len but stays
// posted, a system buffer at the back of its pool.
func (p *Port) TakeRecv(channel, msgLen int) (buf RecvDesc, posted bool) {
	var d *RecvDesc
	if channel == 0 {
		d, posted = p.system.TryRecv()
	} else if d = p.normal.Get(channel); d != nil {
		posted = true
	}
	if !posted {
		return RecvDesc{}, false
	}
	buf = RecvDesc{Len: d.Len, VA: d.VA, Space: d.Space}
	switch {
	case msgLen <= d.Len:
		p.normal.Set(channel, nil) // (channel 0 has no entry: its buffer left the pool above)
		p.nic.consumed(p, channel, d)
	case channel == 0:
		p.system.Post(d)
	}
	return buf, true
}

// PeerHealth is the firmware's liveness belief about one destination
// (see the state machine in package gbn).
type PeerHealth = gbn.Health

// Peer health states.
const (
	PeerUp      = gbn.Up
	PeerSuspect = gbn.Suspect
	PeerDead    = gbn.Dead
	PeerProbing = gbn.Probing
)

// Stats aggregates NIC counters for tables and assertions.
type Stats struct {
	MsgsSent       uint64
	MsgsReceived   uint64
	PacketsSent    uint64
	PacketsRecv    uint64
	Retransmits    uint64
	CRCDrops       uint64
	SeqDrops       uint64
	NoBufferDrops  uint64
	NACKs          uint64
	Interrupts     uint64
	TLBHits        uint64
	TLBMisses      uint64
	BytesSent      uint64
	BytesReceived  uint64
	SendFailures   uint64 // EvSendFailed events posted (any cause)
	FastFails      uint64 // sends failed fast against a Dead/Probing peer
	QoSFrags       uint64 // fragments granted by the WRR endpoint arbiter
	Backoffs       uint64 // retransmit timer arms beyond the base timeout
	Probes         uint64 // liveness probes sent
	PeerDeaths     uint64 // Up/Suspect -> Dead transitions
	PeerRecoveries uint64 // Dead/Probing -> Up transitions

	// Firmware survivability.
	FwCrashes     uint64 // firmware crashes injected
	NICReboots    uint64 // watchdog-driven reboots completed
	DeadDrops     uint64 // RX packets discarded while the firmware was dead
	EpochResets   uint64 // receiver flow resets after a sender reboot
	ResyncsSent   uint64 // RESYNC packets sent from a rebooted receiver
	ResyncRewinds uint64 // sender flows rewound+replayed after a peer reboot
	DupMsgDrops   uint64 // replayed messages swallowed by the done-ring
	RTTSamples    uint64 // Karn-clean RTT samples folded into the estimator
	RTOAdapted    uint64 // retransmit timers armed from the adaptive base
	GrayFailovers uint64 // flows steered onto the alternate rail (gray RTT)

	// Collective offload engine.
	CollMcasts       uint64 // multicast descriptors injected by hosts
	CollCombines     uint64 // combine contributions (host + network)
	CollForwards     uint64 // tree packets this NIC forwarded onward
	CollDeliveries   uint64 // collective events DMAed to user space
	CollDups         uint64 // duplicate/subset contributions dropped
	CollOverlapDrops uint64 // partially-overlapping contributions dropped
	CollReparents    uint64 // dead members routed around
	CollAdoptions    uint64 // orphaned subtree members adopted
	CollRetries      uint64 // release-mode re-contributions fired
}

// NIC is one adapter instance.
type NIC struct {
	env  *sim.Env
	prof *hw.Profile
	cfg  Config
	node int
	row  string // "nic<node>", this NIC's trace row
	ep   *fabric.Endpoint
	pool *fabric.Pool // ep's packet pool: every packet this NIC builds comes from it
	hmem *mem.Memory
	gbn  gbn.Config // what its flows' go-back-N cores share

	// Shared device resources.
	Bus    *sim.Resource // PCI bus (host side shares it for PIO)
	cpu    *sim.Resource // LANai control processor
	sram   *sim.Resource // NIC buffer memory, in bytes
	fetchQ *sim.Queue[fetchJob]
	retxQ  *sim.Queue[*txFlow]
	collQ  *sim.Queue[collJob]
	ports  sim.Table[*Port]   // by port id
	tx     sim.Table[*txFlow] // by destination node
	rx     sim.Table[*rxFlow] // by source node
	colls  map[int]*CollCtx
	nextID uint64

	// Virtualized per-endpoint send rings. Each registered port owns a
	// ring; descriptors from unregistered sources (raw NIC callers,
	// firmware-generated replies whose port closed) land in a control
	// ring with id ctrlRing. ringOrder holds the rings sorted by id, the
	// deterministic order every scan takes; sendWork wakes the send
	// engine when any ring gains a descriptor.
	rings     sim.Table[*sendRing] // by port id; the control ring is ctrl
	ctrl      *sendRing
	ringOrder []*sendRing
	rrPos     int // WRR arbiter scan position into ringOrder
	sendWork  *sim.Cond
	arriveSeq uint64 // card-global post order, stamps queuedSend.arrival

	// Descriptor free lists (GetSendDesc, GetRecvDesc).
	sendDescs sim.FreeList[*SendDesc]
	recvDescs sim.FreeList[*RecvDesc]

	// InterruptHandler is invoked (in scheduler context) for each
	// event when Config.Completion == Interrupt. The kernel model
	// installs it; it must not block — it should schedule work.
	InterruptHandler func(Event)

	// Tracer, when set, records firmware stage spans (send processing,
	// injection, receive processing, completion DMA) for the timeline
	// figures. A nil tracer records nothing.
	Tracer *trace.Tracer

	// obs, when set (SetObs: the cluster wires it), receives
	// flight-recorder events for fault-path transitions and the
	// end-to-end message latency histogram; nil records nothing.
	// msgLatency is that histogram, looked up by the first message
	// delivered and not before: a NIC that received nothing adds no empty
	// series to the registry's snapshots. collLatency is the collective
	// engine's, looked up the same way.
	obs                     *obs.Obs
	msgLatency, collLatency *obs.Histogram

	// Journal, when set (the kernel wires it via AttachNIC), receives
	// what the card does to its control-plane state on its own, so a
	// firmware reboot can be replayed — the "NIC as part of the OS"
	// discipline. What the host programs, the kernel journals as it
	// programs it; the card adds only its own actions (consumption,
	// retirement, the done-ring, fabricated RMA-read replies), at no
	// extra virtual time. A nil Journal records nothing.
	Journal Journal

	// Steer, when set, receives gray-failure rail-steering requests
	// from the adaptive-RTO estimator (the hetero dual-rail fabric
	// implements it). A nil Steer disables failover steering.
	Steer RailSteer

	// Firmware survivability state (see survive.go).
	fwDead    bool     // firmware crashed and not yet rebooted
	bootEpoch uint32   // increments on every reboot; stamped on all TX packets
	crashedAt sim.Time // virtual instant of the last crash
	lastBeat  sim.Time // last heartbeat the firmware wrote to its status word

	tlb *nicTLB

	// The MCP engines that run as events: the receive MCP (recv.go) and
	// the send MCP's fetch and inject engines (mcp.go), a record each;
	// the idle records of packets on their way through transmit and of
	// completion events on their way to the host (deliverEvent); and the
	// bus hold the collective engine's payload DMAs wait on.
	rxm     rxMCP
	txf     txFetch
	txi     txInject
	idleTms []*transmission
	idleDvs []*delivery
	collBus hold

	// model is the node's completion log (ModelFP): every completion
	// event that reached the host, in order, folded by delivery.step.
	model uint64

	// Scratch the firmware reuses from one packet to the next: the
	// retransmit engine's current round, and the assembly records of
	// messages the receive MCP completed.
	retxRound []*fabric.Packet
	asms      sim.FreeList[*rxAssembly]

	stats Stats
}

// New builds a NIC for the given node attached to the fabric endpoint.
func New(env *sim.Env, prof *hw.Profile, cfg Config, node int, ep *fabric.Endpoint, hostMem *mem.Memory) *NIC {
	if cfg.Window == 0 {
		cfg.Window = 32
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10
	}
	n := &NIC{
		env:    env,
		prof:   prof,
		cfg:    cfg,
		node:   node,
		row:    fmt.Sprintf("nic%d", node),
		ep:     ep,
		pool:   ep.Pool(),
		hmem:   hostMem,
		Bus:    sim.NewResource(env, fmt.Sprintf("pci%d", node), 1),
		cpu:    sim.NewResource(env, fmt.Sprintf("lanai%d", node), 1),
		sram:   sim.NewResource(env, fmt.Sprintf("sram%d", node), prof.NICMemBytes),
		fetchQ: sim.NewQueue[fetchJob](env, fmt.Sprintf("nic%d/fetchq", node), 2),
		retxQ:  sim.NewQueue[*txFlow](env, fmt.Sprintf("nic%d/retxq", node), 0),
		collQ:  sim.NewQueue[collJob](env, fmt.Sprintf("nic%d/collq", node), 0),
		colls:  make(map[int]*CollCtx),
		tlb:    newNICTLB(),
		gbn: gbn.Config{
			Node: node, Window: cfg.Window, MaxRetries: cfg.MaxRetries, Adaptive: cfg.AdaptiveRTO,
			RTO: prof.RetransmitTimeout, BackoffMax: prof.RetransmitBackoffMax,
		},

		bootEpoch: 1,
	}
	n.sendWork = sim.NewCond(env)
	for range transmissions {
		n.addTransmission()
	}
	for range deliveries {
		n.addDelivery()
	}
	n.txf.init(env, n.fetchStep)
	n.txi.init(env, n.injectStep)
	n.rxm.init(env, n.rxStep)
	n.collBus.init(env, nil)
	// The event-driven engines start with events booked before the
	// processes' start events, not with calls: later sequence numbers
	// depend on them.
	env.AtArg(env.Now(), n.txf.resume, fxWork, 0)
	env.AtArg(env.Now(), n.txi.resume, ixRecv, 0)
	env.AtArg(env.Now(), n.rxm.resume, rxRecv, 0)
	env.Go(fmt.Sprintf("nic%d/retx-engine", node), n.retxEngine)
	env.Go(fmt.Sprintf("nic%d/coll-engine", node), n.collEngine)
	return n
}

// Stats returns a snapshot of the NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// SetObs attaches an observability bundle: fault-path transitions then
// go to its flight recorder and message latencies to the cluster-wide
// "nic"/msg_latency_ns histogram.
func (n *NIC) SetObs(o *obs.Obs) { n.obs, n.msgLatency, n.collLatency = o, nil, nil }

// GetSendDesc hands out a cleared send descriptor from the card's free
// list. The descriptor is the caller's until it is posted (PostSend);
// from then on it has one owner, the firmware, which puts it back when
// the message is retired — acknowledged, failed or abandoned — and at
// no other point. A caller may still build a SendDesc itself: that one
// is the garbage collector's and the firmware never reuses it.
func (n *NIC) GetSendDesc() *SendDesc {
	d, ok := n.sendDescs.Get()
	if !ok {
		d = new(SendDesc)
	}
	*d = SendDesc{owner: n}
	return d
}

// putSendDesc ends a pooled descriptor's life: retired, it is no longer
// in use, and it goes back on the free list if nothing can still be
// holding it — reusable is false for a failed message, whose trailing
// fragments may be in the send pipeline yet, and a shared descriptor
// may be in a second pass of it. First call wins; descriptors the card
// did not lend are ignored. A descriptor going back to the free list is
// poisoned (a negative Len), not merely stale, so code that reaches one
// through a reference it should have dropped fails loudly, not by luck.
func (n *NIC) putSendDesc(d *SendDesc, reusable bool) {
	if d == nil || d.owner != n {
		return
	}
	if !reusable || d.shared {
		d.owner = nil
		n.sendDescs.Abandon()
		return
	}
	*d = SendDesc{MsgID: ^uint64(0), Len: -1}
	n.sendDescs.Put(d)
}

// GetRecvDesc hands out a cleared receive descriptor from the card's
// free list, for a buffer about to be posted (PostRecv,
// AddSystemBuffer, RegisterOpen). Posted, it belongs to the firmware,
// which puts it back when the message that lands in it is complete and
// the journal has forgotten the posting, or when its port closes.
func (n *NIC) GetRecvDesc() *RecvDesc {
	d, ok := n.recvDescs.Get()
	if !ok {
		d = new(RecvDesc)
	}
	*d = RecvDesc{pooled: true}
	return d
}

func (n *NIC) putRecvDesc(d *RecvDesc) {
	if d == nil || !d.pooled {
		return
	}
	*d = RecvDesc{Len: -1} // poisoned, as putSendDesc does
	n.recvDescs.Put(d)
}

// Drained reports every resource the card holds that a quiescent card
// does not, as one error naming each (nil if there is none): NIC SRAM,
// packet descriptors or payload buffers out of the pool the NICs on a
// fabric share, send descriptors not yet retired, and receive
// descriptors out other than the postings the card's port tables hold.
// Leak tests and soaks end with it.
func (n *NIC) Drained() error {
	var held []string
	if b := n.sram.InUse(); b != 0 {
		held = append(held, fmt.Sprintf("%d B of SRAM", b))
	}
	if d, b := n.pool.InUse(); d != 0 || b != 0 {
		held = append(held, fmt.Sprintf("%d packet descriptors and %d payloads out of the pool", d, b))
	}
	if s := n.sendDescs.InUse(); s != 0 {
		held = append(held, fmt.Sprintf("%d send descriptors unretired", s))
	}
	posted := 0
	for _, pt := range n.ports.All() {
		if pt != nil {
			for _, d := range slices.Concat(pt.normal.All(), pt.open.All()) {
				if d != nil && d.pooled {
					posted++
				}
			}
			posted += pt.system.Len()
		}
	}
	if r := n.recvDescs.InUse(); r != posted {
		held = append(held, fmt.Sprintf("%d receive descriptors out for %d postings held", r, posted))
	}
	if held == nil {
		return nil
	}
	return fmt.Errorf("nic%d not drained: %s", n.node, strings.Join(held, ", "))
}

// consumed ends a posting once the message in it is whole: the journal
// forgets it (channel 0 is the system pool, matched by address), and
// the descriptor is free.
func (n *NIC) consumed(port *Port, channel int, d *RecvDesc) {
	switch {
	case n.Journal == nil:
	case channel == 0:
		n.Journal.SysConsumed(port.ID, d.VA)
	default:
		n.Journal.RecvConsumed(port.ID, channel)
	}
	n.putRecvDesc(d)
}

// Collect publishes every NIC counter into a metrics snapshot under
// layer "nic". Pull-model: the registry calls this at snapshot time,
// so the hot paths pay nothing and the registry values agree with
// Stats by construction.
func (n *NIC) Collect(set obs.Set) {
	s := &n.stats
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"msgs_sent", s.MsgsSent},
		{"msgs_received", s.MsgsReceived},
		{"packets_sent", s.PacketsSent},
		{"packets_recv", s.PacketsRecv},
		{"retransmits", s.Retransmits},
		{"crc_drops", s.CRCDrops},
		{"seq_drops", s.SeqDrops},
		{"no_buffer_drops", s.NoBufferDrops},
		{"nacks", s.NACKs},
		{"interrupts", s.Interrupts},
		{"tlb_hits", s.TLBHits},
		{"tlb_misses", s.TLBMisses},
		{"bytes_sent", s.BytesSent},
		{"bytes_received", s.BytesReceived},
		{"send_failures", s.SendFailures},
		{"fast_fails", s.FastFails},
		{"qos_frags", s.QoSFrags},
		{"backoffs", s.Backoffs},
		{"probes", s.Probes},
		{"peer_deaths", s.PeerDeaths},
		{"peer_recoveries", s.PeerRecoveries},
		{"fw_crashes", s.FwCrashes},
		{"nic_reboots", s.NICReboots},
		{"dead_drops", s.DeadDrops},
		{"epoch_resets", s.EpochResets},
		{"resyncs_sent", s.ResyncsSent},
		{"resync_rewinds", s.ResyncRewinds},
		{"dup_msg_drops", s.DupMsgDrops},
		{"rtt_samples", s.RTTSamples},
		{"rto_adapted", s.RTOAdapted},
		{"gray_failovers", s.GrayFailovers},
		{"coll_mcasts", s.CollMcasts},
		{"coll_combines", s.CollCombines},
		{"coll_forwards", s.CollForwards},
		{"coll_deliveries", s.CollDeliveries},
		{"coll_dups", s.CollDups},
		{"coll_overlap_drops", s.CollOverlapDrops},
		{"coll_reparents", s.CollReparents},
		{"coll_adoptions", s.CollAdoptions},
		{"coll_retries", s.CollRetries},
	} {
		set(n.node, "nic", c.name, c.v)
	}
}

// CollectGauges publishes the NIC's instantaneous state — queue depths
// and in-flight work — under layer "nic". Pull-model like Collect; the
// health engine derives backlog rules from these.
func (n *NIC) CollectGauges(set obs.GaugeSet) {
	depth := 0
	for _, r := range n.ringOrder {
		depth += r.q.Len()
		if r.cur != nil {
			depth++
		}
	}
	set(n.node, "nic", "send_ring_depth", int64(depth))
	inflight, unacked := 0, 0
	for _, f := range n.tx.All() {
		if f != nil {
			inflight += f.Flights().Len()
			unacked += f.Window().Len()
		}
	}
	set(n.node, "nic", "tx_inflight", int64(inflight))
	set(n.node, "nic", "tx_unacked", int64(unacked))
	asm := 0
	for _, f := range n.rx.All() {
		if f != nil {
			asm += len(f.asm)
		}
	}
	set(n.node, "nic", "rx_assemblies", int64(asm))
	set(n.node, "nic", "sram_in_use", int64(n.sram.InUse()))
}

// PeerHealth returns the firmware's liveness belief about a remote
// node (PeerUp if no flow exists yet).
func (n *NIC) PeerHealth(dst int) PeerHealth {
	if f := n.tx.Get(dst); f != nil {
		return f.Health()
	}
	return PeerUp
}

// PeerHealthy reports whether sends to dst are currently admitted
// (Up or Suspect; Dead and Probing peers fail fast).
func (n *NIC) PeerHealthy(dst int) bool {
	h := n.PeerHealth(dst)
	return h == PeerUp || h == PeerSuspect
}

// NextMsgID hands out a card-unique message id.
func (n *NIC) NextMsgID() uint64 {
	n.nextID++
	return n.nextID
}

// RegisterPort creates NIC-side state for a port: event queues, channel
// tables, and a virtualized send ring with weight 1. The host pays the
// setup cost before calling (the BCL kernel module does this from the
// endpoint-allocation ioctl).
func (n *NIC) RegisterPort(id int) *Port {
	if n.ports.Get(id) != nil {
		panic(fmt.Sprintf("nic%d: port %d registered twice", n.node, id))
	}
	p := &Port{
		ID:      id,
		SendEvQ: sim.NewQueue[Event](n.env, fmt.Sprintf("nic%d/p%d/sendev", n.node, id), 0),
		RecvEvQ: sim.NewQueue[Event](n.env, fmt.Sprintf("nic%d/p%d/recvev", n.node, id), 0),
		nic:     n,
		system:  sim.NewQueue[*RecvDesc](n.env, fmt.Sprintf("nic%d/p%d/syspool", n.node, id), 0),
	}
	n.ports.Set(id, p)
	if r := n.rings.Get(id); r != nil {
		// A previous incarnation is still draining; reuse its ring.
		r.closed = false
	} else {
		n.addRing(id, 1)
	}
	return p
}

// ReprogramPort programs port id, registering it if it is not, with
// send-ring WRR weight weight: the wire fragments the endpoint may
// inject per arbiter round when Config.QoS is on (below 1 means 1). A
// reboot keeps the Port and its event queues but wipes its ring, which
// a recovery replay restores here.
func (n *NIC) ReprogramPort(id, weight int) *Port {
	pt := n.ports.Get(id)
	if pt == nil {
		pt = n.RegisterPort(id)
	}
	r := n.rings.Get(id)
	if r == nil {
		r = n.addRing(id, 1)
	}
	r.weight = max(weight, 1)
	r.credits = min(r.credits, r.weight)
	return pt
}

// ClosePort tears down a port's NIC state. The send ring is marked
// closed and removed once the firmware has drained any descriptors the
// process posted before closing. The collective contexts whose local
// member is the port leave the card, as the kernel's journal drops them
// with the port's held sends.
func (n *NIC) ClosePort(id int) {
	if pt := n.ports.Get(id); pt != nil {
		// The postings die with the port; the descriptors are free.
		for _, d := range pt.normal.All() {
			n.putRecvDesc(d)
		}
		for _, d := range pt.open.All() {
			n.putRecvDesc(d)
		}
		for d, ok := pt.system.TryRecv(); ok; d, ok = pt.system.TryRecv() {
			n.putRecvDesc(d)
		}
		pt.normal, pt.open = sim.Table[*RecvDesc]{}, sim.Table[*RecvDesc]{}
		n.ports.Set(id, nil)
	}
	for _, cid := range sortedKeys(n.colls) {
		if ctx := n.colls[cid]; ctx.Ports[ctx.Me] == id {
			// The collective engine may be inside a job on ctx, and keep
			// SRAM or a retry timer in it when that job ends: it frees
			// them once the jobs queued before this one are done.
			delete(n.colls, cid)
			n.collQ.Post(collJob{kind: collJobDrop, ctx: ctx})
		}
	}
	if r := n.rings.Get(id); r != nil {
		r.closed = true
		if !r.hasWork() {
			n.removeRing(r)
		}
	}
}

// LookupPort returns the NIC state for a port, if registered.
func (n *NIC) LookupPort(id int) (*Port, bool) {
	p := n.ports.Get(id)
	return p, p != nil
}

// ctrlRing is the ring id descriptors from unregistered source ports
// fall into: a control ring owned by the firmware itself. It sorts
// before every real endpoint, but carries arrival stamps like any
// other ring so FIFO arbitration stays globally ordered.
const ctrlRing = -1

// sendRing is one virtualized endpoint's send request ring plus its
// arbiter state. Rings are served by the send engine under either
// strict cross-ring arrival order (QoS off) or fragment-granular
// weighted round-robin (QoS on).
type sendRing struct {
	port    int
	weight  int // WRR: fragments per arbiter round
	credits int // WRR: fragments left in the current round
	q       sim.Ring[queuedSend]
	cur     *SendDesc // message currently being fragmented
	fragIdx int       // next fragment of cur to fetch
	frags   int       // total fragments of cur
	closed  bool      // port closed; drain remaining work, then remove
}

// queuedSend is a posted descriptor waiting in a send ring, with the
// card-global post order stamp the FIFO arbiter replays across rings.
// The stamp is the queue's and not the descriptor's, because a replay
// queues a descriptor a second time.
type queuedSend struct {
	d       *SendDesc
	arrival uint64
}

// hasWork reports whether the ring has a message in flight or queued.
func (r *sendRing) hasWork() bool { return r.cur != nil || r.q.Len() > 0 }

// addRing creates a ring and splices it into the sorted scan order.
func (n *NIC) addRing(id, weight int) *sendRing {
	r := &sendRing{port: id, weight: weight, credits: weight}
	if id == ctrlRing {
		n.ctrl = r
	} else {
		n.rings.Set(id, r)
	}
	pos := sort.Search(len(n.ringOrder), func(i int) bool { return n.ringOrder[i].port >= id })
	n.ringOrder = append(n.ringOrder, nil)
	copy(n.ringOrder[pos+1:], n.ringOrder[pos:])
	n.ringOrder[pos] = r
	if n.rrPos > pos {
		n.rrPos++ // keep the WRR scan anchored on the same ring
	}
	return r
}

// removeRing drops a drained ring from the table and scan order.
func (n *NIC) removeRing(r *sendRing) {
	if r == n.ctrl {
		n.ctrl = nil
	} else if n.rings.Get(r.port) == r {
		n.rings.Set(r.port, nil)
	}
	for i, o := range n.ringOrder {
		if o == r {
			n.ringOrder = append(n.ringOrder[:i], n.ringOrder[i+1:]...)
			if n.rrPos > i {
				n.rrPos--
			}
			break
		}
	}
}

// postDesc routes a descriptor to its source endpoint's ring (or the
// control ring for unregistered sources), stamps the card-global
// arrival order, and wakes the send engine. Callable from both process
// and firmware-callback context.
func (n *NIC) postDesc(d *SendDesc) {
	r := n.rings.Get(d.SrcPort)
	if r == nil {
		if r = n.ctrl; r == nil {
			r = n.addRing(ctrlRing, 1)
		}
	}
	n.arriveSeq++
	r.q.Push(queuedSend{d: d, arrival: n.arriveSeq})
	n.sendWork.Broadcast()
}

// PostSend enqueues a send descriptor into the source endpoint's
// virtualized send ring. The caller has already paid the PIO cost of
// filling the descriptor; the card journals nothing of it (the kernel's
// own PostSend command does).
func (n *NIC) PostSend(p *sim.Proc, d *SendDesc) {
	n.postDesc(d)
}

// PostRecv binds a receive buffer to a normal channel. One buffer may
// be outstanding per channel; rebinding while armed is a protocol
// error the NIC rejects.
func (n *NIC) PostRecv(port, channel int, d *RecvDesc) error {
	pt := n.ports.Get(port)
	if pt == nil {
		n.putRecvDesc(d)
		return fmt.Errorf("nic%d: post recv on unregistered port %d", n.node, port)
	}
	if pt.normal.Get(channel) != nil {
		n.putRecvDesc(d)
		return fmt.Errorf("nic%d: port %d channel %d already armed", n.node, port, channel)
	}
	pt.normal.Set(channel, d)
	return nil
}

// AddSystemBuffer appends a buffer to the port's system-channel pool.
func (n *NIC) AddSystemBuffer(port int, d *RecvDesc) error {
	pt := n.ports.Get(port)
	if pt == nil {
		n.putRecvDesc(d)
		return fmt.Errorf("nic%d: system buffer on unregistered port %d", n.node, port)
	}
	pt.system.Post(d)
	return nil
}

// RegisterOpen binds a buffer to an open (RMA) channel.
func (n *NIC) RegisterOpen(port, channel int, d *RecvDesc) error {
	pt := n.ports.Get(port)
	if pt == nil {
		n.putRecvDesc(d)
		return fmt.Errorf("nic%d: open channel on unregistered port %d", n.node, port)
	}
	if old := pt.open.Get(channel); old != d {
		n.putRecvDesc(old) // a rebinding replaces the old registration
	}
	pt.open.Set(channel, d)
	return nil
}

// busDMA occupies the PCI bus for a DMA of bytes (plus engine setup) on
// behalf of h's activity, which resumes at stage once the transfer time
// has elapsed.
func (n *NIC) busDMA(h *hold, bytes int, stage uint64) {
	h.use(n.Bus, n.prof.DMASetup+hw.TransferTime(bytes, n.prof.PCIBandwidth), stage)
}
