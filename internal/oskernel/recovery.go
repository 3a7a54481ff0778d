// NIC survivability: the kernel-resident shadow of the firmware's
// control-plane state, the watchdog that detects a dead MCP, and the
// recovery path that reboots and reprograms the card.
//
// Under the semi-user-level architecture every piece of state the MCP
// holds in SRAM arrived through a kernel trap (port creation, receive
// posting, collective registration, send submission), so the kernel is
// naturally positioned to journal it in host memory as it flows past.
// The journal is pure bookkeeping — it consumes no virtual time on the
// fast path — and is replayed into a freshly rebooted firmware at
// ordinary PIO cost. This is the "NIC as part of the OS" discipline
// carried to its conclusion: firmware SRAM is a cache of kernel state,
// and a firmware crash is a cache wipe, not a state loss.
package oskernel

import (
	"fmt"
	"sort"

	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// sysEntry is one journaled system-pool buffer (FIFO, like the pool).
type sysEntry struct {
	va   mem.VAddr
	desc *nic.RecvDesc
}

// portShadow mirrors one port's NIC-resident tables.
type portShadow struct {
	weight int
	normal map[int]*nic.RecvDesc // channel -> armed posting
	opens  map[int]*nic.RecvDesc // channel -> RMA open buffer
	sys    []sysEntry            // system pool, in posting order
}

// sendEntry is one journaled send. Entries stay in arrival order so the
// replay preserves the card-global submission order; retired entries
// are tombstoned and compacted lazily.
type sendEntry struct {
	desc *nic.SendDesc
	done bool
}

// shadowDoneRing mirrors the NIC's receive-side done-ring depth; it
// must be at least as deep as the firmware's ring or a replayed sender
// could slip a duplicate past a rebooted receiver.
const shadowDoneRing = 128

// NICShadow is the kernel's journal of NIC control-plane state. It
// implements nic.Journal; all methods are host-memory bookkeeping with
// zero virtual-time cost (the writes overlap the PIO the caller is
// already paying).
type NICShadow struct {
	ports     map[int]*portShadow
	colls     map[int]*nic.CollSpec
	sends     []*sendEntry
	sendIdx   map[uint64]*sendEntry
	doneCount int
	rxDone    map[int][]uint64 // src node -> delivered msg ids (FIFO ring)
}

func newNICShadow() *NICShadow {
	return &NICShadow{
		ports:   make(map[int]*portShadow),
		colls:   make(map[int]*nic.CollSpec),
		sendIdx: make(map[uint64]*sendEntry),
		rxDone:  make(map[int][]uint64),
	}
}

func (s *NICShadow) port(id int) *portShadow {
	ps, ok := s.ports[id]
	if !ok {
		ps = &portShadow{
			weight: 1,
			normal: make(map[int]*nic.RecvDesc),
			opens:  make(map[int]*nic.RecvDesc),
		}
		s.ports[id] = ps
	}
	return ps
}

// SendPosted implements nic.Journal. Idempotent per MsgID: a rewind
// replay re-posts the same descriptor and must not duplicate the
// journal entry.
func (s *NICShadow) SendPosted(d *nic.SendDesc) {
	if e, ok := s.sendIdx[d.MsgID]; ok {
		e.desc = d
		return
	}
	e := &sendEntry{desc: d}
	s.sends = append(s.sends, e)
	s.sendIdx[d.MsgID] = e
}

// SendRetired implements nic.Journal.
func (s *NICShadow) SendRetired(msgID uint64) {
	e, ok := s.sendIdx[msgID]
	if !ok || e.done {
		return
	}
	e.done = true
	s.doneCount++
	if s.doneCount > 64 && s.doneCount > len(s.sends)/2 {
		live := s.sends[:0]
		for _, e := range s.sends {
			if e.done {
				delete(s.sendIdx, e.desc.MsgID)
				continue
			}
			live = append(live, e)
		}
		s.sends = live
		s.doneCount = 0
	}
}

// RecvConsumed implements nic.Journal.
func (s *NICShadow) RecvConsumed(port, channel int) {
	if ps, ok := s.ports[port]; ok {
		delete(ps.normal, channel)
	}
}

// SysConsumed implements nic.Journal. The pool drains FIFO, but the
// entry is matched by address so an out-of-order intra-node consumption
// cannot strand the wrong buffer in the journal.
func (s *NICShadow) SysConsumed(port int, va mem.VAddr) {
	ps, ok := s.ports[port]
	if !ok {
		return
	}
	for i, e := range ps.sys {
		if e.va == va {
			ps.sys = append(ps.sys[:i], ps.sys[i+1:]...)
			return
		}
	}
}

// MsgDone implements nic.Journal: mirror of the receive-side done-ring.
func (s *NICShadow) MsgDone(src int, msgID uint64) {
	ring := append(s.rxDone[src], msgID)
	if len(ring) > shadowDoneRing {
		ring = ring[1:]
	}
	s.rxDone[src] = ring
}

// closePort drops a port's journal records, including any still-queued
// sends from its ring: after ClosePort nothing of the endpoint may be
// resurrected by a later replay.
func (s *NICShadow) closePort(id int) {
	delete(s.ports, id)
	for _, e := range s.sends {
		if !e.done && e.desc.SrcPort == id {
			e.done = true
			s.doneCount++
		}
	}
}

// Pending reports the number of live journal records (for tests and
// the Collect gauge): ports, postings, collective contexts and
// unretired sends.
func (s *NICShadow) Pending() (ports, recvs, colls, sends int) {
	if s == nil {
		return
	}
	for _, ps := range s.ports {
		recvs += len(ps.normal) + len(ps.opens) + len(ps.sys)
	}
	return len(s.ports), recvs, len(s.colls), len(s.sends) - s.doneCount
}

// ---------------------------------------------------------------------
// Kernel integration.

// AttachNIC wires the kernel's journal into the node's NIC: from here
// on every trap that programs the card also updates the shadow, and the
// watchdog (if started) can reprogram the card after a firmware crash.
func (k *Kernel) AttachNIC(n *nic.NIC) {
	k.shadow = newNICShadow()
	k.snic = n
	n.Journal = k.shadow
}

// Shadow returns the NIC journal (nil before AttachNIC).
func (k *Kernel) Shadow() *NICShadow { return k.shadow }

// ShadowPort journals a port registration (and weight changes).
func (k *Kernel) ShadowPort(id, weight int) {
	if k.shadow == nil {
		return
	}
	if weight < 1 {
		weight = 1
	}
	k.shadow.port(id).weight = weight
}

// ShadowClosePort drops a closed port's journal records.
func (k *Kernel) ShadowClosePort(id int) {
	if k.shadow != nil {
		k.shadow.closePort(id)
	}
}

// ShadowPostRecv journals a normal-channel receive posting.
func (k *Kernel) ShadowPostRecv(port, channel int, d *nic.RecvDesc) {
	if k.shadow != nil {
		k.shadow.port(port).normal[channel] = d
	}
}

// ShadowSysBuf journals a system-pool buffer.
func (k *Kernel) ShadowSysBuf(port int, va mem.VAddr, d *nic.RecvDesc) {
	if k.shadow != nil {
		ps := k.shadow.port(port)
		ps.sys = append(ps.sys, sysEntry{va: va, desc: d})
	}
}

// ShadowOpen journals an RMA open-channel binding.
func (k *Kernel) ShadowOpen(port, channel int, d *nic.RecvDesc) {
	if k.shadow != nil {
		k.shadow.port(port).opens[channel] = d
	}
}

// ShadowColl journals a collective context registration.
func (k *Kernel) ShadowColl(s *nic.CollSpec) {
	if k.shadow != nil {
		k.shadow.colls[s.ID] = s
	}
}

// ShadowCloseColl drops a closed collective context.
func (k *Kernel) ShadowCloseColl(id int) {
	if k.shadow != nil {
		delete(k.shadow.colls, id)
	}
}

// ShadowRecvConsumed marks a posting consumed on the host side (the
// intra-node path delivers through Port.TakeRecv without the firmware
// seeing it, so the library must keep the journal honest itself).
func (k *Kernel) ShadowRecvConsumed(port, channel int) {
	if k.shadow != nil {
		k.shadow.RecvConsumed(port, channel)
	}
}

// ShadowSysConsumed is the system-pool analogue of ShadowRecvConsumed.
func (k *Kernel) ShadowSysConsumed(port int, va mem.VAddr) {
	if k.shadow != nil {
		k.shadow.SysConsumed(port, va)
	}
}

// StartWatchdog attaches the NIC (if not already attached), starts the
// firmware heartbeat, and spawns the kernel watchdog process. The
// watchdog polls the MCP's status word over PIO every WatchdogInterval;
// a heartbeat older than watchdog-interval + heartbeat-interval means
// the firmware is dead, and the kernel reboots and reprograms it from
// the journal.
func (k *Kernel) StartWatchdog(n *nic.NIC) {
	if k.shadow == nil || k.snic != n {
		k.AttachNIC(n)
	}
	hb := k.prof.MCPHeartbeatInterval
	if hb <= 0 {
		hb = 200 * sim.Microsecond
	}
	wd := k.prof.WatchdogInterval
	if wd <= 0 {
		wd = 500 * sim.Microsecond
	}
	n.StartHeartbeat()
	k.env.Go(fmt.Sprintf("kernel%d/watchdog", k.node), func(p *sim.Proc) {
		for {
			p.Sleep(wd)
			p.Sleep(k.prof.PIOReadWord) // read the MCP status word
			if p.Now()-n.LastHeartbeat() > wd+hb && n.FirmwareDead() {
				k.recoverNIC(p, n)
			}
		}
	})
}

// recoverNIC reboots a dead firmware and reprograms it: reload the MCP
// image (MCPRebootTime), wipe SRAM (BeginReboot), replay the journal,
// then bring the card back online under a bumped boot epoch
// (FinishReboot). Peers heal their flows through the epoch protocol.
func (k *Kernel) recoverNIC(p *sim.Proc, n *nic.NIC) {
	k.stats.WatchdogTrips++
	start := p.Now()
	n.Tracer.Add("kernel: watchdog trip", k.row, start, start)
	reboot := k.prof.MCPRebootTime
	if reboot <= 0 {
		reboot = 2 * sim.Millisecond
	}
	p.Sleep(reboot) // firmware image reload + self-test
	n.BeginReboot()
	k.replayNIC(p, n)
	n.FinishReboot()
	k.stats.NICRecoveries++
	n.Tracer.Add("kernel: NIC recovery", k.row, start, p.Now())
}

// replayNIC reprograms a wiped firmware from the journal at ordinary
// PIO cost, in a fixed deterministic order: port tables first (rings
// must exist before sends), then receive postings (buffers must be
// armed before replayed peers' traffic lands), then collective
// contexts, then the receive done-ring, then unretired sends in their
// original submission order.
func (k *Kernel) replayNIC(p *sim.Proc, n *nic.NIC) {
	s := k.shadow
	if s == nil {
		return
	}
	start := p.Now()
	records := uint64(0)
	portIDs := make([]int, 0, len(s.ports))
	for id := range s.ports {
		portIDs = append(portIDs, id)
	}
	sort.Ints(portIDs)
	for _, id := range portIDs {
		p.Sleep(k.prof.PIOFill(8))
		n.ReprogramPort(id, s.ports[id].weight)
		records++
	}
	for _, id := range portIDs {
		ps := s.ports[id]
		chans := make([]int, 0, len(ps.opens))
		for c := range ps.opens {
			chans = append(chans, c)
		}
		sort.Ints(chans)
		for _, c := range chans {
			p.Sleep(k.prof.PIOFill(k.prof.RecvDescWords))
			n.RegisterOpen(id, c, ps.opens[c])
			records++
		}
		chans = chans[:0]
		for c := range ps.normal {
			chans = append(chans, c)
		}
		sort.Ints(chans)
		for _, c := range chans {
			p.Sleep(k.prof.PIOFill(k.prof.RecvDescWords))
			n.PostRecv(id, c, ps.normal[c])
			records++
		}
		for _, e := range ps.sys {
			p.Sleep(k.prof.PIOFill(k.prof.RecvDescWords))
			n.AddSystemBuffer(id, e.desc)
			records++
		}
	}
	collIDs := make([]int, 0, len(s.colls))
	for id := range s.colls {
		collIDs = append(collIDs, id)
	}
	sort.Ints(collIDs)
	for _, id := range collIDs {
		spec := s.colls[id]
		p.Sleep(k.prof.PIOFill(k.prof.RecvDescWords + 2*len(spec.Nodes)))
		n.RegisterCollCtx(spec)
		records++
	}
	srcs := make([]int, 0, len(s.rxDone))
	for src := range s.rxDone {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	for _, src := range srcs {
		ids := s.rxDone[src]
		p.Sleep(k.prof.PIOFill(2 * len(ids)))
		n.RestoreRxDone(src, ids)
		records++
	}
	for _, e := range s.sends {
		if e.done {
			continue
		}
		p.Sleep(k.prof.PIOFill(k.prof.SendDescWords))
		n.RepostSend(e.desc)
		records++
	}
	k.stats.ReplayedRecords += records
	n.Tracer.Add("kernel: replay NIC state", k.row, start, p.Now())
}
