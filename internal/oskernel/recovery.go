// NIC survivability: the kernel-resident shadow of the firmware's
// control-plane state, the watchdog that detects a dead MCP, and the
// recovery path that reboots and reprograms the card.
//
// Under the semi-user-level architecture every piece of state the MCP
// holds in SRAM arrived through a kernel command (commands.go: port
// creation, receive posting, collective registration, send submission),
// and each command journals what it programmed in host memory. The
// journal is pure bookkeeping — it consumes no virtual time on the fast
// path — and is replayed into a freshly rebooted firmware through the
// commands' own card halves, at the PIO cost of the original
// programming. This is the "NIC as part of the OS" discipline carried to
// its conclusion: firmware SRAM is a cache of kernel state, and a
// firmware crash is a cache wipe, not a state loss.
package oskernel

import (
	"fmt"
	"maps"
	"slices"

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
	normal sim.Table[*nic.RecvDesc] // channel -> armed posting
	opens  sim.Table[*nic.RecvDesc] // channel -> RMA open buffer
	sys    sim.Ring[sysEntry]       // the system pool, in posting order
}

// sendEntry is one journaled send, held by value: the id is the
// journal's own copy, so nothing here reads a descriptor after the NIC
// has retired and recycled it.
type sendEntry struct {
	id   uint64
	desc *nic.SendDesc
}

// NICShadow is the kernel's journal of NIC control-plane state. The
// kernel's commands write what they programmed; the card reports, as
// nic.Journal, what it does on its own. All of it is host-memory
// bookkeeping with zero virtual-time cost (the writes overlap the PIO
// the command is already paying). Like the card's own tables it is
// arrays: ports, channels and source nodes index tables directly, and
// the sends are a queue in posting order that is searched from the
// front, where the send about to retire nearly always is.
type NICShadow struct {
	ports sim.Table[*portShadow]
	colls map[int]*nic.CollSpec
	// The unretired sends in posting order: the card-global submission
	// order a replay preserves.
	sends  sim.Ring[sendEntry]
	rxDone sim.Table[*sim.Ring[uint64]] // by source node: the last nic.DoneRing ids delivered
}

func newNICShadow() *NICShadow {
	return &NICShadow{colls: make(map[int]*nic.CollSpec)}
}

func (s *NICShadow) port(id int) *portShadow {
	ps := s.ports.Get(id)
	if ps == nil {
		ps = &portShadow{weight: 1}
		s.ports.Set(id, ps)
	}
	return ps
}

// findSend returns the position of an unretired send in the queue, -1
// if there is none.
func (s *NICShadow) findSend(msgID uint64) int {
	for i := 0; i < s.sends.Len(); i++ {
		if s.sends.At(i).id == msgID {
			return i
		}
	}
	return -1
}

// SendPosted journals a send entering the card, once per message: from
// the kernel's PostSend, or from the card for an RMA-read reply it
// fabricated (nic.Journal). A rewind or a replay reposts the message
// without journaling it again.
func (s *NICShadow) SendPosted(d *nic.SendDesc) {
	s.sends.Push(sendEntry{id: d.MsgID, desc: d})
}

// SendRetired implements nic.Journal.
func (s *NICShadow) SendRetired(msgID uint64) {
	if i := s.findSend(msgID); i >= 0 {
		s.sends.Remove(i)
	}
}

// RecvConsumed implements nic.Journal.
func (s *NICShadow) RecvConsumed(port, channel int) {
	if ps := s.ports.Get(port); ps != nil {
		ps.normal.Set(channel, nil)
	}
}

// SysConsumed implements nic.Journal. The pool drains FIFO, so the
// entry is nearly always the front one, but it is matched by address so
// an out-of-order intra-node consumption cannot strand the wrong buffer
// in the journal.
func (s *NICShadow) SysConsumed(port int, va mem.VAddr) {
	ps := s.ports.Get(port)
	if ps == nil {
		return
	}
	for i := 0; i < ps.sys.Len(); i++ {
		if ps.sys.At(i).va == va {
			ps.sys.Remove(i)
			return
		}
	}
}

// MsgDone implements nic.Journal: mirror of the receive-side done-ring.
func (s *NICShadow) MsgDone(src int, msgID uint64) {
	l := s.rxDone.Get(src)
	if l == nil {
		l = &sim.Ring[uint64]{}
		s.rxDone.Set(src, l)
	}
	l.PushLast(msgID, nic.DoneRing)
}

// closePort drops a port's journal records, including any still-queued
// sends from its ring and the collective contexts whose local member it
// is: after ClosePort nothing of the endpoint may be resurrected by a
// later replay.
func (s *NICShadow) closePort(id int) {
	s.ports.Set(id, nil)
	for cid, c := range s.colls {
		if c.Ports[c.Me] == id {
			delete(s.colls, cid)
		}
	}
	for i := s.sends.Len() - 1; i >= 0; i-- {
		if s.sends.At(i).desc.SrcPort == id {
			s.sends.Remove(i) // the older entries keep their positions
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
	for _, ps := range s.ports.All() {
		if ps != nil {
			recvs += ps.normal.Len() + ps.opens.Len() + ps.sys.Len()
		}
	}
	return s.ports.Len(), recvs, len(s.colls), s.sends.Len()
}

// ---------------------------------------------------------------------
// Kernel integration.

// AttachNIC wires the kernel's journal into the node's NIC: from here
// on every kernel command that programs the card also journals it, and
// the watchdog (if started) can reprogram the card after a firmware
// crash.
func (k *Kernel) AttachNIC(n *nic.NIC) {
	k.shadow = newNICShadow()
	k.snic = n
	n.Journal = k.shadow
}

// StartWatchdog starts the attached NIC's firmware heartbeat and spawns
// the kernel watchdog process. The watchdog polls the MCP's status word
// over PIO every WatchdogInterval; a heartbeat older than
// watchdog-interval + heartbeat-interval means the firmware is dead, and
// the kernel reboots and reprograms it from the journal.
func (k *Kernel) StartWatchdog() {
	n := k.snic
	hb, wd := k.prof.MCPHeartbeatInterval, k.prof.WatchdogInterval
	n.StartHeartbeat()
	k.env.Go(fmt.Sprintf("kernel%d/watchdog", k.node), func(p *sim.Proc) {
		for {
			p.Sleep(wd)
			p.Sleep(k.prof.PIOReadWord) // read the MCP status word
			if p.Now()-n.LastHeartbeat() > wd+hb && n.FirmwareDead() {
				k.recoverNIC(p)
			}
		}
	})
}

// recoverNIC reboots a dead firmware and reprograms it: reload the MCP
// image (MCPRebootTime), wipe SRAM (BeginReboot), replay the journal,
// then bring the card back online under a bumped boot epoch
// (FinishReboot). Peers heal their flows through the epoch protocol.
func (k *Kernel) recoverNIC(p *sim.Proc) {
	n := k.snic
	k.stats.WatchdogTrips++
	start := p.Now()
	n.Tracer.Add("kernel: watchdog trip", k.row, start, start)
	p.Sleep(k.prof.MCPRebootTime) // firmware image reload + self-test
	n.BeginReboot()
	k.replayNIC(p)
	n.FinishReboot()
	k.stats.NICRecoveries++
	n.Tracer.Add("kernel: NIC recovery", k.row, start, p.Now())
}

// replayNIC reprograms a wiped firmware from the journal through the
// commands' card halves, in a fixed deterministic order: port tables
// first (rings must exist before sends), then receive postings (buffers
// must be armed before replayed peers' traffic lands), then collective
// contexts, then the receive done-ring, then unretired sends in their
// original submission order. Each queue is replayed as it stood when
// its turn came: a send or buffer posted while the replay sleeps went
// to the card already.
func (k *Kernel) replayNIC(p *sim.Proc) {
	s := k.shadow
	start := p.Now()
	records := uint64(0)
	for id, ps := range s.ports.All() {
		if ps != nil {
			k.programPort(p, id, ps.weight)
			records++
		}
	}
	for id, ps := range s.ports.All() {
		if ps == nil {
			continue
		}
		for c, d := range ps.opens.All() {
			if d != nil {
				k.programOpen(p, id, c, d)
				records++
			}
		}
		for c, d := range ps.normal.All() {
			if d != nil {
				k.programRecv(p, id, c, d)
				records++
			}
		}
		for _, e := range ps.sys.AppendTo(nil) {
			k.programSysBuf(p, id, e.desc)
			records++
		}
	}
	for _, id := range slices.Sorted(maps.Keys(s.colls)) {
		k.programColl(p, s.colls[id])
		records++
	}
	for src, l := range s.rxDone.All() {
		if l != nil {
			k.restoreDone(p, src, l.AppendTo(nil)) // oldest first
			records++
		}
	}
	for _, e := range s.sends.AppendTo(nil) {
		k.programSend(p, e.desc, true)
		records++
	}
	k.stats.ReplayedRecords += records
	k.snic.Tracer.Add("kernel: replay NIC state", k.row, start, p.Now())
}
