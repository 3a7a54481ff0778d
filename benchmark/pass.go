package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// batch is one RunFor slice of a timed region.
type batch struct {
	HostNS int64  `json:"host_ns"`
	Events uint64 `json:"events"`
	Ops    uint64 `json:"ops"`
}

// counted names the registry counters the model work counts are built
// from; a pass keeps their deltas over its timed regions.
var counted = []struct{ layer, name string }{
	{"kernel", "traps"}, {"kernel", "interrupts"}, {"kernel", "pages_pinned"},
	{"nic", "packets_sent"}, {"nic", "retransmits"}, {"nic", "nacks"},
	{"nic", "no_buffer_drops"}, {"nic", "seq_drops"}, {"nic", "send_failures"},
	{"nic", "peer_deaths"},
	{"fabric:", "delivered"}, {"fabric:", "dropped"},
	{"bcl", "sent"}, {"bcl", "bytes_sent"},
	{"svc", "invs_sent"}, {"svc", "dedup_replays"},
	{"obs", "rec_dropped"},
}

// pass is one measured execution of a workload: the sums over its
// timed regions (one for the 2-node and MPI workloads, one per epoch
// for the service tier) and the host time spent outside them.
type pass struct {
	batches []batch
	hostNS  int64 // timed regions only
	setupNS int64 // everything else: build, boot, warm-up, quiesce checks

	events, ops, failed uint64
	unfinished          uint64 // ops the pass owed when the simulation went idle
	bytes               uint64
	virt                sim.Time
	mallocs, allocBytes uint64
	lat                 []sim.Time
	model               uint64 // see close

	counts               map[string]uint64 // "layer/name" → delta
	poolHits, poolMisses uint64
	cpuBusy, busBusy     sim.Time
	pciBusy, pciWait     sim.Time
	nodeVirt             sim.Time // Σ nodes × virtual time: what the busy times are a share of

	svc       svcTotals
	spans     uint64 // recorded by the repo tracer, evicted ones included
	spansLost uint64
	spanFrom  int           // index in the tracer of the last region's first span
	tracer    *trace.Tracer // traced pass B only: the uncapped tracer it attached

	deadline  time.Time // host time after which timed work stops; zero: never
	truncated bool      // the deadline cut the fixed work short

	// Traced pass A: profile the timed regions only.
	profileCPU bool
	profileMem bool
	profiles   [][]byte           // raw pprof CPU profiles, one per region
	allocsBy   map[string]float64 // objects allocated per layer
}

// svcTotals sums the per-epoch quiesce checks.
type svcTotals struct {
	issued, backlog, hits, misses, retrans, aborts, txns uint64
}

func (s *svcTotals) add(ck svcCheck) {
	s.issued += ck.issued
	s.backlog += ck.backlog
	s.hits += ck.hits
	s.misses += ck.misses
	s.retrans += ck.retrans
	s.aborts += ck.aborts
	s.txns += ck.txns
}

// mark is everything read at a timed region's edge.
type mark struct {
	mallocs, allocBytes uint64
	snap                *obs.Snapshot
	steps, hits, misses uint64
	now                 sim.Time
	ops, failed, bytes  uint64
	cpuBusy, busBusy    sim.Time
	pciBusy, pciWait    sim.Time
}

// takeMark reads the world's counters. The allocator reading sits on
// the timed side of the harness's own snapshot work: last when a
// region opens, first when it closes.
func takeMark(w *world, opening bool) mark {
	var m mark
	var ms runtime.MemStats
	if !opening {
		runtime.ReadMemStats(&ms)
	}
	env := w.c.Env
	m.snap = w.c.Obs.Snapshot(env.Now())
	m.steps, m.now = env.Steps(), env.Now()
	m.hits, m.misses = env.PoolStats()
	m.ops, m.failed, m.bytes = w.t.ops, w.t.failed, w.t.bytes
	for _, n := range w.c.Nodes {
		_, _, busy := n.CPUs.Stats()
		m.cpuBusy += busy
		_, _, busy = n.MemBus.Stats()
		m.busBusy += busy
		_, wait, busy := n.NIC.Bus.Stats()
		m.pciBusy += busy
		m.pciWait += wait
	}
	if opening {
		runtime.ReadMemStats(&ms)
	}
	m.mallocs, m.allocBytes = ms.Mallocs, ms.TotalAlloc
	return m
}

// timed advances the world in fixed virtual-time slices until done
// reports true, recording host time, events and ops per slice. It
// stops early if the simulation goes idle (a process gave up, so the
// rest of the work will never happen) or the deadline passes.
func (ps *pass) timed(w *world, slice sim.Time, done func() bool) {
	env := w.c.Env
	var allocs0 map[string]float64
	if ps.profileMem {
		allocs0 = allocsByLayer()
	}
	var spans0, lost0 uint64
	if w.tr != nil {
		ps.spanFrom = len(w.tr.Spans)
		spans0, lost0 = uint64(len(w.tr.Spans))+w.tr.Dropped(), w.tr.Dropped()
	}
	a := takeMark(w, true)
	var prof bytes.Buffer
	if ps.profileCPU {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench: cpu profile:", err)
		}
	}
	for !done() {
		if !ps.deadline.IsZero() && time.Now().After(ps.deadline) {
			ps.truncated = true
			break
		}
		steps, ops := env.Steps(), w.t.ops
		t0 := time.Now()
		env.RunUntil(env.Now() + slice)
		ns := time.Since(t0).Nanoseconds()
		if w.sync != nil {
			w.sync()
		}
		b := batch{HostNS: ns, Events: env.Steps() - steps, Ops: w.t.ops - ops}
		ps.batches = append(ps.batches, b)
		ps.hostNS += ns
		if b.Events == 0 {
			break
		}
	}
	if ps.profileCPU {
		pprof.StopCPUProfile()
		ps.profiles = append(ps.profiles, prof.Bytes())
	}
	b := takeMark(w, false)
	if w.tr != nil {
		ps.spans += uint64(len(w.tr.Spans)) + w.tr.Dropped() - spans0
		ps.spansLost += w.tr.Dropped() - lost0
	}
	if ps.profileMem {
		if ps.allocsBy == nil {
			ps.allocsBy = make(map[string]float64)
		}
		for l, n := range allocsByLayer() {
			ps.allocsBy[l] += n - allocs0[l]
		}
	}

	ps.events += b.steps - a.steps
	ps.virt += b.now - a.now
	ps.mallocs += b.mallocs - a.mallocs
	ps.allocBytes += b.allocBytes - a.allocBytes
	ps.poolHits += b.hits - a.hits
	ps.poolMisses += b.misses - a.misses
	ps.cpuBusy += b.cpuBusy - a.cpuBusy
	ps.busBusy += b.busBusy - a.busBusy
	ps.pciBusy += b.pciBusy - a.pciBusy
	ps.pciWait += b.pciWait - a.pciWait
	ps.nodeVirt += sim.Time(len(w.c.Nodes)) * (b.now - a.now)
	if ps.counts == nil {
		ps.counts = make(map[string]uint64)
	}
	for _, c := range counted {
		ps.counts[c.layer+"/"+c.name] += b.snap.SumCounterPrefix(c.layer, c.name) - a.snap.SumCounterPrefix(c.layer, c.name)
	}
}

// close folds a finished world into the pass: what its tally gained
// since before (the tally as the timed region opened), and the model
// digest. The digest is FNV-64a over the digest so far, every op
// latency of the region and the world's final registry snapshot: two
// commits that agree on it simulated the same thing.
func (ps *pass) close(w *world, before tally) {
	lat := w.t.lat[len(before.lat):]
	ps.ops += w.t.ops - before.ops
	ps.failed += w.t.failed - before.failed
	ps.bytes += w.t.bytes - before.bytes
	ps.lat = append(ps.lat, lat...)

	h := fnv.New64a() // a hash.Hash never fails a write
	binary.Write(h, binary.LittleEndian, ps.model)
	binary.Write(h, binary.LittleEndian, lat)
	if js, err := w.c.Obs.Snapshot(w.c.Env.Now()).JSON(); err == nil {
		h.Write(js)
	}
	ps.model = h.Sum64()
	w.c.Env.Close()
}
