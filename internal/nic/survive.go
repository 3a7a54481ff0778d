package nic

import (
	"fmt"

	"bcl/internal/fabric"
	"bcl/internal/mem"
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
		if f.grayOn {
			// The steering preference is firmware state; the fabric-side
			// entry would otherwise outlive the estimator that set it.
			f.grayOn = false
			if n.Steer != nil {
				n.Steer.PreferAlternate(n.node, f.dst, false)
			}
		}
	}
	for _, id := range sortedKeys(n.colls) {
		ctx := n.colls[id]
		for _, seq := range sortedKeys(ctx.own) {
			oc := ctx.own[seq]
			oc.timer.Cancel()
			oc.timer = sim.Timer{}
		}
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
		n.wipeUnacked(f)
		// Window waiters blocked on the dead flow re-check flow identity
		// after waking and bail out (their epoch died with the SRAM).
		n.wakeWindow(f)
	}
	n.tx = sim.Table[*txFlow]{}
	n.rx = sim.Table[*rxFlow]{}
	for _, id := range sortedKeys(n.colls) {
		ctx := n.colls[id]
		for _, seq := range sortedKeys(ctx.combs) {
			if st := ctx.combs[seq]; st.sram > 0 {
				n.sram.Release(st.sram)
			}
		}
		for _, seq := range sortedKeys(ctx.own) {
			oc := ctx.own[seq]
			oc.timer.Cancel()
			if oc.sram > 0 {
				n.sram.Release(oc.sram)
			}
		}
	}
	n.colls = make(map[int]*CollCtx)
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
	n.tlb = newNICTLB(n.cfg.TLBEntries)
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
	f := n.flowFrom(src)
	for _, id := range ids {
		if !f.isDone(id) {
			f.recordDone(id)
		}
	}
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

// retireSend marks a message complete for both the flow's rewind set
// and the kernel journal, and ends the life of its descriptor d (nil
// for a collective, which is retired by id alone). f may be nil (or the
// message untracked); every completion path funnels through here so
// completion is first-wins. sent says the message completed normally —
// its last fragment acknowledged or, fire-and-forget, injected — so no
// fragment of it is left in the pipeline and the descriptor can go
// round again; a failed message's trailing fragments may still be on
// their way down.
func (n *NIC) retireSend(f *txFlow, msgID uint64, d *SendDesc, sent bool) {
	if f != nil {
		if i := f.inflightIdx(msgID); i >= 0 {
			f.inflight.Remove(i)
		}
	}
	if n.Journal != nil {
		n.Journal.SendRetired(msgID)
	}
	n.putSendDesc(d, sent)
}

// markDone records a completed message in the receiver's done-ring and
// mirrors it into the kernel journal.
func (n *NIC) markDone(f *rxFlow, msgID uint64) {
	f.recordDone(msgID)
	if n.Journal != nil {
		n.Journal.MsgDone(f.src, msgID)
	}
}

// ------------------------------------------------------ epoch protocol

// noteEpoch processes the peer boot epoch stamped on a control packet
// (ACK/NACK/probe-ACK) at the sender. Returns true when the packet must
// be discarded: either it is stale (pre-reboot), or it just triggered a
// rewind and its sequence numbers belong to the dead epoch.
func (n *NIC) noteEpoch(f *txFlow, epoch uint32) bool {
	if epoch == 0 || epoch == f.peerEpoch {
		return false
	}
	if f.peerEpoch == 0 {
		f.peerEpoch = epoch
		return false
	}
	if epoch < f.peerEpoch {
		return true // stale control packet from before the peer's reboot
	}
	f.peerEpoch = epoch
	n.resyncFlow(f)
	return true
}

// rxEpochAdmit processes the sender boot epoch stamped on an in-order
// delivery packet at the receiver. Returns false when the packet is
// stale and must be dropped; a newer epoch resets the flow's numbering
// (the sender rebooted and restarted from sequence zero).
func (n *NIC) rxEpochAdmit(pkt *fabric.Packet, f *rxFlow) bool {
	if pkt.Epoch == 0 || pkt.Epoch == f.srcEpoch {
		return true
	}
	if pkt.Epoch < f.srcEpoch {
		n.stats.SeqDrops++
		return false
	}
	if f.srcEpoch != 0 {
		// In-progress assemblies and the done-ring survive the reset:
		// the rebooted sender's journal replay re-delivers partially
		// assembled messages from fragment zero (the bitmap dedups) and
		// the done-ring swallows completed ones.
		f.expect = 0
		n.stats.EpochResets++
		n.obs.Event(n.env.Now(), n.node, "nic", "epoch-reset", pkt.Trace,
			fmt.Sprintf("src=%d epoch %d -> %d", f.src, f.srcEpoch, pkt.Epoch))
	}
	f.srcEpoch = pkt.Epoch
	return true
}

// resyncRequest is the RESYNC asking a sender to rewind, or nil if
// none is due. After OUR reboot the expected sequence restarted at
// zero, but a sender that never crashed keeps (re)transmitting from its
// old window, which now looks like a permanent gap. Only a rebooted
// receiver ever sends RESYNC (bootEpoch > 1), so runs without firmware
// faults stay packet-for-packet identical to before this protocol
// existed.
func (n *NIC) resyncRequest(f *rxFlow) *fabric.Packet {
	if n.bootEpoch <= 1 || f.srcEpoch == 0 {
		return nil
	}
	now := n.env.Now()
	if f.lastResync != 0 && now-f.lastResync < n.prof.RetransmitTimeout/2 {
		return nil
	}
	f.lastResync = now
	n.stats.ResyncsSent++
	n.obs.Event(now, n.node, "nic", "resync", 0,
		fmt.Sprintf("src=%d expect=%d epoch=%d", f.src, f.expect, n.bootEpoch))
	return n.control(fabric.KindResync, f.src, f.expect, n.bootEpoch)
}

// handleResync services a peer's rewind request at the sender.
func (n *NIC) handleResync(pkt *fabric.Packet) {
	f := n.flowTo(pkt.Src)
	if pkt.Epoch != 0 && pkt.Epoch < f.peerEpoch {
		return // stale: the peer rebooted again since sending this
	}
	if pkt.Epoch != 0 && pkt.Epoch > f.peerEpoch {
		f.peerEpoch = pkt.Epoch
		n.resyncFlow(f)
		return
	}
	// Same epoch: only rewind when our window has genuinely run past
	// the receiver (a duplicate RESYNC after a completed rewind, or a
	// lost-RESYNC retry, lands here harmlessly).
	if f.unacked.Len() > 0 && f.unacked.At(0).pkt.Seq > pkt.AckSeq {
		n.resyncFlow(f)
	}
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
		fmt.Sprintf("dst=%d epoch=%d msgs=%d", f.dst, f.peerEpoch, f.inflight.Len()))
	f.timer.Cancel()
	f.timer = sim.Timer{}
	f.retries = 0
	var resend []pending
	for f.unacked.Len() > 0 {
		pd := f.unacked.Pop()
		if pd.desc.Kind == DescCollMcast || pd.desc.Kind == DescCollComb {
			resend = append(resend, pd) // packet and SRAM ride along to the coll engine
			continue
		}
		if pd.sram > 0 {
			n.sram.Release(pd.sram)
		}
		pd.pkt.Release()
	}
	f.nextSeq = 0
	// Re-admit the peer before reposting, or the replay would fail fast
	// against the Dead belief its own crash produced.
	n.markPeerUp(f)
	for i := 0; i < f.inflight.Len(); i++ {
		n.RepostSend(*f.inflight.At(i))
	}
	for _, pd := range resend {
		n.collQ.Post(collJob{
			kind: collJobResend, desc: pd.desc, pkt: pd.pkt,
			sram: pd.sram, epoch: n.bootEpoch,
		})
	}
}

// --------------------------------------------- adaptive RTO / gray RTT

// rttSample folds one Karn-clean RTT sample into the flow's Jacobson
// estimator and checks the gray-failure trip wire.
func (n *NIC) rttSample(f *txFlow, s sim.Time) {
	if s <= 0 {
		return
	}
	n.stats.RTTSamples++
	if f.baseRTT == 0 || (s < f.baseRTT && !f.grayOn) {
		// Best observed RTT is the gray baseline; frozen while steered
		// so the (possibly faster) alternate rail cannot redefine the
		// primary's baseline.
		f.baseRTT = s
	}
	if f.srtt == 0 {
		f.srtt = s
		f.rttvar = s / 2
	} else {
		diff := s - f.srtt
		if diff < 0 {
			diff = -diff
		}
		f.rttvar += (diff - f.rttvar) / 4
		f.srtt += (s - f.srtt) / 8
	}
	n.grayCheck(f)
}

// grayCheck trips gray-failure steering: a flow whose smoothed RTT
// blows past four times its baseline is degraded-but-alive (no retry
// exhaustion, just a collapsing tail), so prefer the alternate rail for
// GraySteerHold, then restore and re-learn.
func (n *NIC) grayCheck(f *txFlow) {
	if n.Steer == nil || f.grayOn || f.baseRTT == 0 {
		return
	}
	if f.srtt <= 4*f.baseRTT {
		return
	}
	f.grayOn = true
	n.stats.GrayFailovers++
	now := n.env.Now()
	n.Tracer.Add("nic: gray failover", n.where(), now, now)
	n.obs.Event(now, n.node, "nic", "gray-failover", 0,
		fmt.Sprintf("dst=%d srtt=%dus base=%dus", f.dst,
			f.srtt/sim.Microsecond, f.baseRTT/sim.Microsecond))
	n.Steer.PreferAlternate(n.node, f.dst, true)
	f.grayTimer = n.env.After(n.prof.GraySteerHold, f.onGray)
}

// grayRestore ends a steering hold: back to the primary rail.
func (n *NIC) grayRestore(f *txFlow) {
	f.grayTimer = sim.Timer{}
	f.grayOn = false
	f.srtt, f.rttvar = 0, 0 // re-learn on the restored primary
	n.Steer.PreferAlternate(n.node, f.dst, false)
	n.obs.Event(n.env.Now(), n.node, "nic", "gray-restore", 0,
		fmt.Sprintf("dst=%d", f.dst))
}
