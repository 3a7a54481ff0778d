// Package hw defines calibrated hardware timing profiles for the
// simulated cluster. A Profile collects every cost constant the models
// consume: CPU/OS path costs, PCI PIO and DMA characteristics, NIC
// firmware processing times, link and switch parameters, and memory
// copy bandwidth.
//
// The DAWNING3000 profile is calibrated against the constants the
// paper states for the real machine (375 MHz Power3 SMP nodes, 33 MHz
// 64-bit PCI, Myrinet M2M-PCI64A + M2M-OCT-SW8): PIO word write
// 0.24 µs, PIO word read 0.98 µs, send CPU overhead 7.04 µs, receive
// CPU overhead 1.01 µs, NIC reliable-protocol cost 5.65 µs, 160 MB/s
// physical link. Ablation benchmarks derive modified profiles from it.
package hw

import "bcl/internal/sim"

// Bps is a bandwidth in bytes per second.
type Bps int64

// Common bandwidth units.
const (
	MBps Bps = 1000 * 1000
	GBps Bps = 1000 * 1000 * 1000
)

// TransferTime returns the virtual time needed to move n bytes at
// bandwidth b, rounded up to a whole nanosecond.
func TransferTime(n int, b Bps) sim.Time {
	if n <= 0 {
		return 0
	}
	if b <= 0 {
		panic("hw: non-positive bandwidth")
	}
	return (int64(n)*sim.Second + int64(b) - 1) / int64(b)
}

// Profile is the complete set of hardware and OS cost constants for
// one node/fabric generation.
type Profile struct {
	// Node shape.
	CPUsPerNode int // 4-way SMP on DAWNING-3000
	PageSize    int // bytes

	// Host CPU / OS kernel path costs.
	UserCompose   sim.Time // user library composes a send request
	UserPostRecv  sim.Time // user library prepares a receive posting
	TrapEnter     sim.Time // user -> kernel crossing
	TrapExit      sim.Time // kernel -> user crossing
	IoctlDispatch sim.Time // syscall demux to the BCL kernel module
	SecurityCheck sim.Time // validate PID, buffer bounds, target
	TranslateHit  sim.Time // pin-down page-table hit, per lookup
	TranslateMiss sim.Time // page-table walk on miss, per page
	PinPage       sim.Time // pin one page (on miss)
	UnpinPage     sim.Time // unpin one page
	// PinTableCapacity bounds the kernel's pin-down page table, in
	// page entries; beyond it the LRU translation is evicted and its
	// frame unpinned (the table is host-resident, but pinned memory is
	// still a finite resource).
	PinTableCapacity int
	CompletionPoll   sim.Time // user polls a completion queue slot
	EventDecode      sim.Time // user decodes a completion event
	SendComplete     sim.Time // user handles the send-done event (paper: 0.82 µs)
	InterruptEnter   sim.Time // interrupt dispatch (kernel-level path)
	InterruptHandle  sim.Time // handler body incl. wakeup
	ContextSwitch    sim.Time // scheduler switch to the woken process
	SyscallCopy      Bps      // kernel<->user copy bandwidth (kernel-level path)
	KernelProtoProc  sim.Time // kernel protocol processing per datagram (kernel-level path)

	// PCI bus.
	PIOWriteWord sim.Time // programmed-IO write of one 32-bit word to NIC
	PIOReadWord  sim.Time // programmed-IO read of one 32-bit word from NIC
	DMASetup     sim.Time // host<->NIC DMA engine programming
	PCIBandwidth Bps      // sustained DMA bandwidth over the bus

	// NIC / firmware (MCP).
	SendDescWords    int      // descriptor words PIO-filled per send request
	RecvDescWords    int      // descriptor words per receive posting
	MCPDescFetch     sim.Time // NIC reads+parses a send descriptor from its queue
	MCPSendProc      sim.Time // per-message send processing incl. reliable proto
	MCPPacketProc    sim.Time // per-packet processing (CRC, header) on source, whatever the polynomial: the host computes CRC-32C, which it has in hardware
	MCPRecvProc      sim.Time // per-packet processing on destination
	MCPChannelLookup sim.Time // per-message channel-state resolution at destination
	MCPEventDMA      sim.Time // firmware cost of composing a completion event
	EventBusTime     sim.Time // bus occupancy DMAing the event record to host
	MCPAckProc       sim.Time // processing an ACK/NACK
	MCPCollProc      sim.Time // collective engine per-packet handling
	MCPCombineProc   sim.Time // combine arithmetic per contribution
	MaxPacket        int      // payload bytes per wire packet
	NICMemBytes      int      // NIC SRAM capacity
	// RetransmitTimeout is the go-back-N retransmit timer's base, first
	// round. The adaptive RTO is floored at a quarter of it, and
	// release-mode combine re-contributions start at eight times it.
	RetransmitTimeout sim.Time
	// RetransmitBackoffMax caps the exponentially backed-off retransmit
	// timer.
	RetransmitBackoffMax sim.Time
	PeerProbeInterval    sim.Time // paces liveness probes to a Dead peer
	NICTranslateLook     sim.Time // NIC-resident translation cache lookup (user-level arch)
	NICTranslateMiss     sim.Time // NIC cache miss: fetch mapping from host

	// Firmware survivability (only consulted when the kernel watchdog /
	// gray-failure steering are enabled).
	MCPHeartbeatInterval sim.Time // firmware refreshes its status word
	WatchdogInterval     sim.Time // kernel polls the heartbeat register
	MCPRebootTime        sim.Time // firmware image reload after a crash
	// GraySteerHold is how long a gray-degraded flow (smoothed RTT over
	// four times its best) is steered onto the alternate rail before
	// re-probing the primary.
	GraySteerHold sim.Time

	// Link / switch.
	LinkBandwidth Bps      // per-channel physical bandwidth
	SwitchLatency sim.Time // cut-through latency per switch hop
	WireLatency   sim.Time // cable propagation per link

	// Host memory.
	MemcpyBandwidth Bps      // effective per-copy memory bandwidth (DRAM-limited)
	MemcpyOverhead  sim.Time // fixed per-copy cost
	ShmChunk        int      // pipelining chunk for the intra-node path
	ShmPost         sim.Time // sender-side queue bookkeeping per message
	ShmPoll         sim.Time // receiver-side notice cost per message
}

// DAWNING3000 returns the calibrated profile for the paper's testbed.
func DAWNING3000() *Profile {
	return &Profile{
		CPUsPerNode: 4,
		PageSize:    4096,

		UserCompose:      270,
		UserPostRecv:     500,
		TrapEnter:        700,
		TrapExit:         700,
		IoctlDispatch:    500,
		SecurityCheck:    900,
		TranslateHit:     370,
		TranslateMiss:    2500,
		PinPage:          3000,
		UnpinPage:        1500,
		PinTableCapacity: 8192, // 32 MB of pinned pages per node
		CompletionPoll:   610,
		EventDecode:      400,
		SendComplete:     820,
		InterruptEnter:   2500,
		InterruptHandle:  6000,
		ContextSwitch:    4000,
		SyscallCopy:      180 * MBps,
		KernelProtoProc:  12000,

		PIOWriteWord: 240,
		PIOReadWord:  980,
		DMASetup:     700,
		PCIBandwidth: 264 * MBps,

		SendDescWords:        15,
		RecvDescWords:        8,
		MCPDescFetch:         700,
		MCPSendProc:          5650,
		MCPPacketProc:        2450,
		MCPRecvProc:          1500,
		MCPChannelLookup:     700,
		MCPEventDMA:          1000,
		EventBusTime:         400,
		MCPAckProc:           600,
		MCPCollProc:          1800,
		MCPCombineProc:       900,
		MaxPacket:            4096,
		NICMemBytes:          1 << 20, // 1 MB LANai SRAM
		RetransmitTimeout:    400 * sim.Microsecond,
		RetransmitBackoffMax: 6400 * sim.Microsecond, // 4 doublings of the base
		PeerProbeInterval:    1600 * sim.Microsecond, // 4x the base
		NICTranslateLook:     500,
		NICTranslateMiss:     9000,

		MCPHeartbeatInterval: 200 * sim.Microsecond,
		WatchdogInterval:     500 * sim.Microsecond,
		MCPRebootTime:        2 * sim.Millisecond,
		GraySteerHold:        10 * sim.Millisecond,

		LinkBandwidth: 160 * MBps,
		SwitchLatency: 300,
		WireLatency:   200,

		MemcpyBandwidth: 400 * MBps,
		MemcpyOverhead:  350,
		ShmChunk:        8192,
		ShmPost:         400,
		ShmPoll:         300,
	}
}

// Clone returns a deep copy; profiles are plain data so assignment
// suffices, but Clone documents intent at call sites that mutate.
func (p *Profile) Clone() *Profile {
	q := *p
	return &q
}

// ScaleCPU returns a derived profile whose host-CPU-bound costs are
// multiplied by factor (factor < 1 models a faster CPU). Used by the
// "a faster CPU will reduce these overheads" ablation.
func (p *Profile) ScaleCPU(factor float64) *Profile {
	q := p.Clone()
	s := func(t sim.Time) sim.Time { return sim.Time(float64(t) * factor) }
	q.UserCompose = s(p.UserCompose)
	q.UserPostRecv = s(p.UserPostRecv)
	q.TrapEnter = s(p.TrapEnter)
	q.TrapExit = s(p.TrapExit)
	q.IoctlDispatch = s(p.IoctlDispatch)
	q.SecurityCheck = s(p.SecurityCheck)
	q.TranslateHit = s(p.TranslateHit)
	q.TranslateMiss = s(p.TranslateMiss)
	q.CompletionPoll = s(p.CompletionPoll)
	q.EventDecode = s(p.EventDecode)
	q.SendComplete = s(p.SendComplete)
	q.ContextSwitch = s(p.ContextSwitch)
	return q
}

// ScalePIO returns a derived profile whose PCI programmed-IO costs are
// multiplied by factor. Used by the "a good motherboard can improve
// the I/O performance heavily" ablation.
func (p *Profile) ScalePIO(factor float64) *Profile {
	q := p.Clone()
	q.PIOWriteWord = sim.Time(float64(p.PIOWriteWord) * factor)
	q.PIOReadWord = sim.Time(float64(p.PIOReadWord) * factor)
	return q
}

// PIOFill returns the cost of PIO-writing n descriptor words.
func (p *Profile) PIOFill(words int) sim.Time {
	return sim.Time(words) * p.PIOWriteWord
}

// Packets returns how many wire packets a payload of n bytes needs
// (at least one, so zero-length messages still travel).
func (p *Profile) Packets(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + p.MaxPacket - 1) / p.MaxPacket
}
