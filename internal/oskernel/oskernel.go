// Package oskernel models the host operating system kernel as the
// semi-user-level architecture uses it: protected-mode crossings
// (traps) with realistic costs, an ioctl-style dispatch into the BCL
// kernel module, security checks that really reject bad requests, the
// pin-down buffer page table for virtual-to-physical translation, and
// interrupt dispatch for the kernel-level comparator.
//
// The BCL kernel module's NIC commands live here too (commands.go), and
// the bcl package composes its trap bodies from them; the kernel-level
// comparator's socket layer lives in klc. The comparators (ulc, amii,
// bip, klc) program the card directly, as the designs they model do, so
// their traffic is not journaled.
package oskernel

import (
	"errors"
	"fmt"

	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

// Security errors returned by kernel checks.
var (
	ErrBadPID    = errors.New("oskernel: request from unregistered process")
	ErrBadBuffer = errors.New("oskernel: buffer not mapped in caller's address space")
	ErrBadTarget = errors.New("oskernel: invalid destination")
	ErrNotOwner  = errors.New("oskernel: resource owned by another process")
)

// Stats counts protection-domain crossings and kernel work, feeding
// Table 1.
type Stats struct {
	Traps           uint64
	Ioctls          uint64
	Interrupts      uint64
	SecurityRejects uint64
	PagesPinned     uint64
	PagesUnpinned   uint64
	PinEvictions    uint64
	ContextSwitches uint64
	WatchdogTrips   uint64
	NICRecoveries   uint64
	ReplayedRecords uint64
}

// Process is a kernel-visible process: an id bound to an address
// space.
type Process struct {
	PID   int
	Space *mem.AddrSpace
}

// Kernel is one node's operating system instance.
type Kernel struct {
	env   *sim.Env
	prof  *hw.Profile
	node  int
	row   string // "kernel<node>", this kernel's trace row
	mem   *mem.Memory
	pins  *mem.PinTable
	procs sim.Table[*Process] // by PID
	eps   sim.Table[int]      // NIC endpoint (port id) -> owning PID
	next  int
	stats Stats

	// The card the NIC commands program (commands.go) and the journal of
	// what they programmed, replayed after a firmware crash (recovery.go).
	shadow *NICShadow
	snic   *nic.NIC
}

// New boots a kernel over the node's physical memory.
func New(env *sim.Env, prof *hw.Profile, node int, m *mem.Memory) *Kernel {
	return &Kernel{
		env:  env,
		prof: prof,
		node: node,
		row:  fmt.Sprintf("kernel%d", node),
		mem:  m,
		pins: mem.NewPinTable(prof.PinTableCapacity),
		next: 100,
	}
}

// Stats returns a snapshot of kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Collect publishes the kernel counters into a metrics snapshot under
// layer "kernel" (pull-model; see obs.Collector).
func (k *Kernel) Collect(set obs.Set) {
	set(k.node, "kernel", "traps", k.stats.Traps)
	set(k.node, "kernel", "ioctls", k.stats.Ioctls)
	set(k.node, "kernel", "interrupts", k.stats.Interrupts)
	set(k.node, "kernel", "security_rejects", k.stats.SecurityRejects)
	set(k.node, "kernel", "pages_pinned", k.stats.PagesPinned)
	set(k.node, "kernel", "pages_unpinned", k.stats.PagesUnpinned)
	set(k.node, "kernel", "pin_evictions", k.stats.PinEvictions)
	set(k.node, "kernel", "context_switches", k.stats.ContextSwitches)
	set(k.node, "kernel", "watchdog_trips", k.stats.WatchdogTrips)
	set(k.node, "kernel", "nic_recoveries", k.stats.NICRecoveries)
	set(k.node, "kernel", "replayed_records", k.stats.ReplayedRecords)
}

// CollectGauges publishes the kernel's instantaneous state under layer
// "kernel": live processes, bound endpoints, pinned pages, and the
// recovery journal's outstanding records.
func (k *Kernel) CollectGauges(set obs.GaugeSet) {
	set(k.node, "kernel", "procs", int64(k.procs.Len()))
	set(k.node, "kernel", "endpoints_bound", int64(k.eps.Len()))
	set(k.node, "kernel", "pinned_pages", int64(k.pins.Len()))
	ports, recvs, colls, sends := k.shadow.Pending() // (all 0 before AttachNIC)
	set(k.node, "kernel", "journal_records", int64(ports+recvs+colls+sends))
}

// Spawn creates a process with a fresh address space.
func (k *Kernel) Spawn() *Process {
	k.next++
	p := &Process{PID: k.next, Space: mem.NewAddrSpace(k.mem)}
	k.procs.Set(p.PID, p)
	return p
}

// Exit tears a process down, dropping its pinned pages and closing any
// NIC endpoints it still owns, as the port-teardown ioctl does.
func (k *Kernel) Exit(p *Process) {
	k.stats.PagesUnpinned += uint64(k.pins.Invalidate(p.PID))
	for port, pid := range k.eps.All() {
		if pid == p.PID {
			k.ClosePort(port)
		}
	}
	k.procs.Set(p.PID, nil)
}

// BindEndpoint records a NIC endpoint (virtualized port: send ring +
// landing rings) as owned by pid. The BCL kernel module calls it from
// the port-creation ioctl; from then on send-path requests naming the
// endpoint are admitted only from that process.
func (k *Kernel) BindEndpoint(pid, port int) error {
	if k.procs.Get(pid) == nil {
		k.stats.SecurityRejects++
		return fmt.Errorf("%w: pid %d", ErrBadPID, pid)
	}
	if owner := k.eps.Get(port); owner != 0 {
		k.stats.SecurityRejects++
		return fmt.Errorf("%w: endpoint %d owned by pid %d", ErrNotOwner, port, owner)
	}
	k.eps.Set(port, pid)
	return nil
}

// EndpointOwner returns the owning PID of an endpoint (0 = unbound).
func (k *Kernel) EndpointOwner(port int) int { return k.eps.Get(port) }

// CheckEndpointOwner rejects a request naming an endpoint the calling
// process does not own — the cross-endpoint half of the send-path
// security check. The cost is part of the SecurityCheck charge paid by
// CheckRequest; this only validates and counts.
func (k *Kernel) CheckEndpointOwner(pid, port int) error {
	owner := k.eps.Get(port)
	if owner == 0 {
		k.stats.SecurityRejects++
		return fmt.Errorf("%w: endpoint %d not bound", ErrBadTarget, port)
	}
	if owner != pid {
		k.stats.SecurityRejects++
		return fmt.Errorf("%w: endpoint %d owned by pid %d, caller pid %d", ErrNotOwner, port, owner, pid)
	}
	return nil
}

// Trap performs a user-to-kernel crossing: it charges the entry cost
// and ioctl dispatch, runs body in kernel context, and charges the
// exit cost. body returns the syscall result.
func (k *Kernel) Trap(p *sim.Proc, body func() error) error {
	k.stats.Traps++
	k.stats.Ioctls++
	p.Sleep(k.prof.TrapEnter + k.prof.IoctlDispatch)
	err := body()
	p.Sleep(k.prof.TrapExit)
	return err
}

// CheckRequest performs the BCL kernel module's parameter validation:
// the calling PID must be registered, the buffer must lie entirely in
// the caller's address space, and the destination must exist. It
// charges the check cost and counts rejects.
func (k *Kernel) CheckRequest(p *sim.Proc, pid int, va mem.VAddr, n int, dstNode, clusterNodes int) error {
	p.Sleep(k.prof.SecurityCheck)
	proc := k.procs.Get(pid)
	if proc == nil {
		k.stats.SecurityRejects++
		return fmt.Errorf("%w: pid %d", ErrBadPID, pid)
	}
	if n > 0 || va != 0 {
		if !proc.Space.Mapped(va, n) {
			k.stats.SecurityRejects++
			return fmt.Errorf("%w: va %#x+%d", ErrBadBuffer, int64(va), n)
		}
	}
	if dstNode < 0 || dstNode >= clusterNodes {
		k.stats.SecurityRejects++
		return fmt.Errorf("%w: node %d", ErrBadTarget, dstNode)
	}
	return nil
}

// TranslateAndPin walks the pin-down page table for every page of
// [va, va+n), charging hit or miss+pin costs, and appends the physical
// scatter/gather list (adjacent frames merged) to segs, which it
// returns. A caller that passes the descriptor's own inline segment
// (nic.SendDesc.Seg[:0]) pays no allocation for a physically contiguous
// buffer; nil gets a fresh list.
func (k *Kernel) TranslateAndPin(p *sim.Proc, pid int, space *mem.AddrSpace, va mem.VAddr, n int, segs []mem.Segment) ([]mem.Segment, error) {
	pageSize := int64(k.mem.PageSize())
	end := int64(va) + int64(n)
	if n <= 0 {
		end = int64(va) + 1
	}
	first := len(segs)
	for addr := int64(va); addr < end; {
		vpage := addr / pageSize
		off := addr % pageSize
		base, hit, evicted, err := k.pins.Lookup(pid, space, vpage)
		if err != nil {
			return nil, err
		}
		if hit {
			p.Sleep(k.prof.TranslateHit)
		} else {
			p.Sleep(k.prof.TranslateMiss + k.prof.PinPage)
			k.stats.PagesPinned++
			if evicted {
				// A full table pushed out its LRU translation: the
				// kernel unpins that frame before pinning ours.
				p.Sleep(k.prof.UnpinPage)
				k.stats.PinEvictions++
				k.stats.PagesUnpinned++
			}
		}
		chunk := pageSize - off
		if chunk > end-addr {
			chunk = end - addr
		}
		pa := base + mem.PAddr(off)
		if len(segs) > first && segs[len(segs)-1].Phys+mem.PAddr(segs[len(segs)-1].Len) == pa {
			segs[len(segs)-1].Len += int(chunk)
		} else {
			segs = append(segs, mem.Segment{Phys: pa, Len: int(chunk)})
		}
		addr += chunk
	}
	if n <= 0 {
		segs[first].Len = 0
	}
	return segs, nil
}

// PIOFillCost returns the PIO time for a descriptor of the given
// scatter/gather length: the base descriptor words plus two words
// (address + length) per segment beyond the first.
func (k *Kernel) PIOFillCost(baseWords, nSegs int) sim.Time {
	return k.prof.PIOFill(baseWords + 2*max(nSegs-1, 0))
}

// Interrupt dispatches a device interrupt: entry cost, handler body,
// then a context switch to whatever process the handler woke. The
// handler runs in a fresh kernel process context.
func (k *Kernel) Interrupt(name string, handler func(p *sim.Proc)) {
	k.stats.Interrupts++
	k.env.Go(name, func(p *sim.Proc) {
		p.Sleep(k.prof.InterruptEnter)
		handler(p)
		p.Sleep(k.prof.InterruptHandle)
	})
}

// WakeProcess charges the scheduler cost of switching a blocked
// process back onto a CPU (used by the kernel-level receive path).
func (k *Kernel) WakeProcess(p *sim.Proc) {
	k.stats.ContextSwitches++
	p.Sleep(k.prof.ContextSwitch)
}

// CopyToUser models copy_to_user: a kernel/user crossing copy at the
// syscall-copy bandwidth (used by the kernel-level comparator).
func (k *Kernel) CopyToUser(p *sim.Proc, space *mem.AddrSpace, va mem.VAddr, data []byte) error {
	p.Sleep(hw.TransferTime(len(data), k.prof.SyscallCopy))
	return space.Write(va, data)
}

// CopyFromUser models copy_from_user.
func (k *Kernel) CopyFromUser(p *sim.Proc, space *mem.AddrSpace, va mem.VAddr, n int) ([]byte, error) {
	p.Sleep(hw.TransferTime(n, k.prof.SyscallCopy))
	return space.Read(va, n)
}
