package nic

import (
	"fmt"

	"bcl/internal/mem"
	"bcl/internal/nic/gbn"
	"bcl/internal/sim"
)

// This file is the firmware survivability layer: the MCP crash/reboot
// lifecycle, the boot-epoch resync protocol that preserves exactly-once
// delivery across a reboot, and the Jacobson-style adaptive-RTO / gray
// failure estimator.
//
// The design follows the "NIC as part of the OS" discipline: every
// piece of control-plane state the firmware holds in SRAM (port tables,
// receive postings, collective contexts, unacknowledged sends) entered
// it through a kernel command, which journals it in host memory — at
// zero extra virtual time — for replay into a freshly rebooted
// firmware. What cannot be replayed from the host (go-back-N window
// positions, partially assembled messages) is instead
// re-derived by the epoch protocol: the rebooted NIC stamps a bumped
// boot epoch on every packet, peers detect the jump, rewind their flows
// to sequence zero and replay their own in-flight messages, and the
// receiver's done-ring swallows anything that was already delivered.

// Journal receives the changes the card makes to its control-plane
// state on its own; what the host programs, the kernel journals itself.
// The kernel implements it (oskernel.NICShadow); all methods are
// bookkeeping only and must not block or consume virtual time.
type Journal interface {
	// SendPosted records a send the card fabricated itself (an RMA-read
	// reply), once per message.
	SendPosted(d *SendDesc)
	// SendRetired marks a send complete (acked, failed, or abandoned):
	// the journal must not replay it after a reboot.
	SendRetired(msgID uint64)
	// RecvConsumed marks a normal-channel posting consumed by a fully
	// assembled message (partial assemblies keep the posting journaled
	// so a reboot re-arms it and the sender's rewind refills it).
	RecvConsumed(port, channel int)
	// SysConsumed marks the system-pool buffer at va consumed.
	SysConsumed(port int, va mem.VAddr)
	// MsgDone mirrors the receiver's done-ring: msgID from src has been
	// delivered to the host exactly once.
	MsgDone(src int, msgID uint64)
}

// RailSteer is the gray-failure steering hook: while prefer is set,
// packets src->dst should ride the alternate rail. The hetero dual-rail
// fabric implements it.
type RailSteer interface {
	PreferAlternate(src, dst int, prefer bool)
}

// ------------------------------------------------------ crash lifecycle

// CrashFirmware kills the MCP at the current instant: engines stop
// consuming work, incoming packets fall on the floor, and every SRAM
// timer dies with the firmware. Host-visible structures (the Port
// identities and their event queues, which library pumps block on)
// survive — they live in pinned host memory. Idempotent while dead.
func (n *NIC) CrashFirmware() {
	if n.fwDead {
		return
	}
	n.fwDead = true
	n.crashedAt = n.env.Now()
	n.stats.FwCrashes++
	now := n.crashedAt
	n.Tracer.Add("nic: firmware crash", n.where(), now, now)
	n.obs.Event(now, n.node, "nic", "nic-crash", 0, fmt.Sprintf("epoch=%d", n.bootEpoch))
	for _, f := range n.tx.All() {
		if f == nil {
			continue
		}
		f.timer.Cancel()
		f.timer = sim.Timer{}
		f.probeTimer.Cancel()
		f.probeTimer = sim.Timer{}
		f.grayTimer.Cancel()
		f.grayTimer = sim.Timer{}
		if f.SteerOff() {
			// The steering preference is firmware state; the fabric-side
			// entry would otherwise outlive the estimator that set it.
			if n.Steer != nil {
				n.Steer.PreferAlternate(n.node, f.dst, false)
			}
		}
	}
	for _, id := range sortedKeys(n.colls) {
		n.colls[id].disarm()
	}
}

// CrashAt schedules a firmware crash at virtual time t (the fault
// injector the chaos harness drives).
func (n *NIC) CrashAt(t sim.Time) {
	n.env.At(t, func() { n.CrashFirmware() })
}

// FirmwareDead reports whether the MCP is currently crashed.
func (n *NIC) FirmwareDead() bool { return n.fwDead }

// LastHeartbeat returns the last instant the firmware refreshed its
// status word; the kernel watchdog reads it over PIO.
func (n *NIC) LastHeartbeat() sim.Time { return n.lastBeat }

// StartHeartbeat spawns the firmware heartbeat process: while alive the
// MCP refreshes its status word every MCPHeartbeatInterval; a crashed
// firmware stops, which is what the kernel watchdog detects.
func (n *NIC) StartHeartbeat() {
	n.lastBeat = n.env.Now()
	n.env.Go(fmt.Sprintf("nic%d/heartbeat", n.node), func(p *sim.Proc) {
		for {
			p.Sleep(n.prof.MCPHeartbeatInterval)
			if !n.fwDead {
				n.lastBeat = p.Now()
			}
		}
	})
}

// BeginReboot wipes every SRAM-resident structure, as the hardware
// reset does: flows, windows, assemblies, collective contexts, send
// rings, channel tables and the translation cache. The kernel calls it
// after the firmware image reload, then replays its journal, then
// FinishReboot.
func (n *NIC) BeginReboot() {
	for _, f := range n.tx.All() {
		if f == nil {
			continue
		}
		f.timer.Cancel()
		f.probeTimer.Cancel()
		f.grayTimer.Cancel()
		n.wipe(f, false)
		// Window waiters blocked on the dead flow re-check flow identity
		// after waking and bail out (their epoch died with the SRAM).
		f.window.Broadcast()
	}
	n.tx = sim.Table[*txFlow]{}
	n.rx = sim.Table[*rxFlow]{}
	for _, id := range sortedKeys(n.colls) {
		n.freeColl(n.colls[id])
	}
	clear(n.colls)
	n.rings, n.ctrl = sim.Table[*sendRing]{}, nil
	n.ringOrder = nil
	n.rrPos = 0
	for _, pt := range n.ports.All() {
		if pt == nil {
			continue
		}
		pt.normal = sim.Table[*RecvDesc]{}
		pt.open = sim.Table[*RecvDesc]{}
		for {
			if _, ok := pt.system.TryRecv(); !ok {
				break
			}
		}
	}
	n.tlb = newNICTLB()
	// nextID survives: message ids are allocated by the host library
	// (NextMsgID from trap context), so a reboot must not reuse ids the
	// receivers' done-rings still remember.
}

// FinishReboot brings the replayed firmware back online under a bumped
// boot epoch. Peers discover the new epoch from our packets (or our
// RESYNC requests) and rewind their flows.
func (n *NIC) FinishReboot() {
	n.bootEpoch++
	n.fwDead = false
	n.stats.NICReboots++
	now := n.env.Now()
	n.lastBeat = now
	if n.crashedAt > 0 {
		n.obs.Observe(n.node, "nic", "recovery_latency_ns", int64(now-n.crashedAt))
	}
	n.Tracer.Add("nic: firmware reboot", n.where(), n.crashedAt, now)
	n.obs.Event(now, n.node, "nic", "nic-reboot", 0,
		fmt.Sprintf("epoch=%d recovery=%dus", n.bootEpoch, (now-n.crashedAt)/sim.Microsecond))
	n.sendWork.Broadcast()
}

// ------------------------------------------------------- kernel replay

// RestoreRxDone reloads the done-ring for one source flow from the
// kernel journal, so replayed sends from a peer are still swallowed
// after our own reboot wiped the in-SRAM ring.
func (n *NIC) RestoreRxDone(src int, ids []uint64) {
	n.flowFrom(src).Restore(ids)
}

// RepostSend queues a descriptor for a second pass of the send pipeline:
// a rewind, or the kernel's replay of a journaled, unretired send after
// a reboot. It is the same descriptor — a message has one, whatever
// happens to it — so a stale reference from the first pass reads the
// right message; that is also why it is marked shared and will not be
// reused once retired.
func (n *NIC) RepostSend(d *SendDesc) {
	d.shared = true
	n.postDesc(d)
}

// retireSend marks a message complete for the kernel journal and ends
// the life of its descriptor d (nil for a held collective contribution
// whose job is still running, which then retires d itself); every
// completion path funnels through here once the flow's core has let
// the message go. sent says the message completed normally — its last
// fragment acknowledged or, fire-and-forget, injected — so no fragment
// of it is left in the pipeline and the descriptor can go round again;
// a failed message's trailing fragments may still be on their way down.
func (n *NIC) retireSend(msgID uint64, d *SendDesc, sent bool) {
	if n.Journal != nil {
		n.Journal.SendRetired(msgID)
	}
	n.putSendDesc(d, sent)
}

// markDone records a completed message in the receiver's done-ring and
// mirrors it into the kernel journal.
func (n *NIC) markDone(f *rxFlow, msgID uint64) {
	f.Record(msgID)
	if n.Journal != nil {
		n.Journal.MsgDone(f.src, msgID)
	}
}

// ------------------------------------------------------ epoch protocol

// noteEpoch carries out what the peer boot epoch stamped on a control
// packet (ACK, NACK, probe-ACK) decides at the sender, and reports
// whether the packet must be discarded: it is stale (pre-reboot), or it
// rewound the flow and its sequence numbers belong to the dead epoch.
func (n *NIC) noteEpoch(f *txFlow, epoch uint32) bool {
	switch f.Epoch(epoch) {
	case gbn.Fresh:
		return false
	case gbn.Rewind:
		n.resyncFlow(f)
	}
	return true
}

// resyncFlow rewinds a sender flow after its peer's firmware rebooted:
// the peer's receive window restarted at sequence zero, so every
// unacknowledged packet is void. In-flight data/RMA-write messages are
// replayed from fragment zero through the normal send pipeline (the
// receiver's done-ring and fragment bitmap keep delivery exactly-once);
// retained collective forwards re-inject their pristine packets via the
// collective engine.
func (n *NIC) resyncFlow(f *txFlow) {
	n.stats.ResyncRewinds++
	now := n.env.Now()
	n.Tracer.Add("nic: epoch resync", n.where(), now, now)
	n.obs.Event(now, n.node, "nic", "resync-rewind", 0,
		fmt.Sprintf("dst=%d epoch=%d msgs=%d", f.dst, f.PeerEpoch(), f.Flights().Len()))
	f.timer.Cancel()
	f.timer = sim.Timer{}
	resend := n.wipe(f, true)
	n.peerUp(f, f.Rewind())
	for i := 0; i < f.Flights().Len(); i++ {
		n.RepostSend(f.Flights().At(i).Msg)
	}
	for _, e := range resend {
		n.collQ.Post(collJob{
			kind: collJobResend, desc: e.Msg, pkt: e.P.pkt,
			sram: e.P.sram, epoch: n.bootEpoch,
		})
	}
}

// --------------------------------------------- adaptive RTO / gray RTT

// rtt counts an RTT sample the core took and carries out a gray trip:
// a flow whose smoothed RTT blew past four times its baseline is
// degraded but alive (no retry exhaustion, just a collapsing tail), so
// it prefers the alternate rail for GraySteerHold, then restores and
// re-learns.
func (n *NIC) rtt(f *txFlow, note gbn.Note) {
	if note&gbn.Sampled != 0 {
		n.stats.RTTSamples++
	}
	if note&gbn.GrayTrip == 0 {
		return
	}
	n.stats.GrayFailovers++
	now := n.env.Now()
	n.Tracer.Add("nic: gray failover", n.where(), now, now)
	srtt, best := f.RTT()
	n.obs.Event(now, n.node, "nic", "gray-failover", 0,
		fmt.Sprintf("dst=%d srtt=%dus base=%dus", f.dst, srtt/sim.Microsecond, best/sim.Microsecond))
	n.Steer.PreferAlternate(n.node, f.dst, true)
	f.grayTimer = n.env.After(n.prof.GraySteerHold, f.onGray)
}

// grayRestore ends a steering hold: back to the primary rail.
func (n *NIC) grayRestore(f *txFlow) {
	f.grayTimer = sim.Timer{}
	f.GrayOver()
	n.Steer.PreferAlternate(n.node, f.dst, false)
	n.obs.Event(n.env.Now(), n.node, "nic", "gray-restore", 0,
		fmt.Sprintf("dst=%d", f.dst))
}
