package main

import (
	"bytes"
	"encoding/binary"
	"math"

	"bcl"
	"bcl/internal/cluster"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// tally is a workload's own account of what it verified. Simulated
// processes update it; the harness reads it between RunFor slices (one
// process goroutine runs at a time and hands back over a channel, so
// there is no concurrent access).
type tally struct {
	ops    uint64     // verified ops
	failed uint64     // ops whose check failed
	bytes  uint64     // verified payload bytes
	lat    []sim.Time // op latency samples in completion order
}

// world is one built simulation: the cluster the harness advances and
// reads counters from, and the workload's tally.
type world struct {
	c  *cluster.Cluster
	t  *tally
	tr *trace.Tracer // the repo tracer attached to every layer, if any
	// sync, when set, refreshes the tally from state the workload does
	// not own (the svc drivers' counters).
	sync func()
}

// payload returns n seed-derived bytes; stream separates independent
// users of one seed.
func payload(seed, stream uint64, n int) []byte {
	b := make([]byte, n)
	sim.NewRand(sim.Splitmix64(seed) ^ sim.Splitmix64(stream+0x9e37)).Fill(b)
	return b
}

// ---------------------------------------------------------------- eager

// eagerWorld is the paper's latency case: two nodes bounce a 0-byte
// message over the system channel. The round counter rides in the tag;
// an op is one round trip whose echo carried the right counter, and it
// contributes two one-way latency samples (send call to poll return).
// Each side returns the consumed system buffer and reaps its send
// completion after it has replied, off the one-way critical path.
func eagerWorld(tr *trace.Tracer) *world {
	m := bcl.NewMachine(bcl.MachineConfig{Nodes: 2})
	m.TraceAll(tr)
	t := &tally{}
	var sentAt [2]sim.Time
	m.Start(2, []int{0, 1}, func(ctx *bcl.Ctx) {
		p, pt, me := ctx.P, ctx.Port, ctx.Rank
		pt.SetTracer(tr)
		peer := ctx.Peers[1-me]
		bufSize := pt.Node().Prof.MaxPacket
		va := ctx.Alloc(64)
		send := func(tag uint64) bool {
			sentAt[me] = p.Now()
			_, err := pt.Send(p, peer, bcl.SystemChannel, va, 0, tag)
			return err == nil
		}
		// recv takes the peer's message and, after reply() has put the
		// answer on the wire, recycles the buffer and the send event.
		recv := func(reply func(tag uint64) bool) (tag uint64, ok bool) {
			ev := pt.WaitRecv(p)
			t.lat = append(t.lat, p.Now()-sentAt[1-me])
			ok = ev.Len == 0 && reply(ev.Tag)
			ok = pt.ReturnSystemBuffer(p, ev.VA, bufSize) == nil && ok
			return ev.Tag, pt.WaitSend(p).Type == bcl.EvSendDone && ok
		}
		if me == 1 {
			for {
				if _, ok := recv(send); !ok {
					t.failed++
					return
				}
			}
		}
		round := uint64(1)
		if !send(round) {
			t.failed++
			return
		}
		for {
			echo, ok := recv(func(uint64) bool { return send(round + 1) })
			if !ok || echo != round {
				t.failed++
				return
			}
			t.ops++
			round++
		}
	})
	return &world{c: m.Cluster, t: t, tr: tr}
}

// ----------------------------------------------------------------- bulk

const (
	bulkSize   = 128 << 10
	bulkWindow = 8
)

// bulkWorld is the paper's bandwidth case: 128 KB rendezvous messages,
// eight outstanding. The receiver pre-posts one buffer per slot and
// grants the sender a slot with a 0-byte credit on the system channel
// each time it (re)posts, so no message ever meets an unposted channel.
// An op is one message whose bytes the receiver compared against the
// slot's seed-derived pattern and whose header names the message the
// sender put in that slot; its latency runs from the Send call to the
// receiver's poll return.
func bulkWorld(seed uint64, tr *trace.Tracer) *world {
	m := bcl.NewMachine(bcl.MachineConfig{Nodes: 2})
	m.TraceAll(tr)
	t := &tally{}
	var pattern [bulkWindow][]byte
	for s := range pattern {
		pattern[s] = payload(seed, uint64(s), bulkSize)
	}
	var sentAt [bulkWindow]sim.Time
	var inSlot [bulkWindow]uint64 // message number the sender last put in the slot
	m.Start(2, []int{0, 1}, func(ctx *bcl.Ctx) {
		p, pt := ctx.P, ctx.Port
		pt.SetTracer(tr)
		peer := ctx.Peers[1-ctx.Rank]
		sysBuf := pt.Node().Prof.MaxPacket
		var buf [bulkWindow]bcl.VAddr
		for s := range buf {
			buf[s] = ctx.Alloc(bulkSize)
		}
		if ctx.Rank == 0 {
			var hdr [8]byte
			for s := range buf {
				if ctx.Write(buf[s], pattern[s]) != nil {
					t.failed++
					return
				}
			}
			for n := uint64(1); ; n++ {
				credit := pt.WaitRecv(p)
				s := int(credit.Tag)
				binary.LittleEndian.PutUint64(hdr[:], n)
				ok := pt.ReturnSystemBuffer(p, credit.VA, sysBuf) == nil &&
					ctx.Write(buf[s], hdr[:]) == nil
				inSlot[s], sentAt[s] = n, p.Now()
				_, err := pt.Send(p, peer, s+1, buf[s], bulkSize, n)
				if _, bad := pt.DrainSendEvents(p); !ok || err != nil || bad > 0 {
					t.failed++
					return
				}
			}
		}
		grant := func(s int) bool {
			if pt.PostRecv(p, s+1, buf[s], bulkSize) != nil {
				return false
			}
			_, err := pt.Send(p, peer, bcl.SystemChannel, buf[s], 0, uint64(s))
			_, bad := pt.DrainSendEvents(p)
			return err == nil && bad == 0
		}
		for s := range buf {
			if !grant(s) {
				t.failed++
				return
			}
		}
		for {
			ev := pt.WaitRecv(p)
			s := ev.Channel - 1
			t.lat = append(t.lat, p.Now()-sentAt[s])
			got, err := ctx.Read(buf[s], bulkSize)
			if err == nil && ev.Len == bulkSize && ev.Tag == inSlot[s] &&
				binary.LittleEndian.Uint64(got) == inSlot[s] &&
				bytes.Equal(got[8:], pattern[s][8:]) {
				t.ops++
				t.bytes += bulkSize
			} else {
				t.failed++
			}
			if !grant(s) {
				t.failed++
				return
			}
		}
	})
	return &world{c: m.Cluster, t: t, tr: tr}
}

// ----------------------------------------------------------------- halo

const (
	haloRanks = 70
	haloBytes = 512
	haloSum   = 128 // float64 elements in the 1 KB Allreduce
)

// haloWorld is the full 70-node machine: every iteration each rank
// passes a 512 B halo around the ring and all ranks sum a 1 KB vector
// of ones. An op is one iteration that every rank finished with the
// left neighbour's halo intact and every element of the sum equal to
// the rank count; its latency is the slowest rank's iteration time.
func haloWorld(seed uint64, tr *trace.Tracer) *world {
	m := bcl.NewMachine(bcl.MachineConfig{Nodes: haloRanks})
	m.TraceAll(tr)
	t := &tally{}
	placement := make([]int, haloRanks)
	halo := make([][]byte, haloRanks)
	for r := range placement {
		placement[r] = r
		halo[r] = payload(seed, uint64(r), haloBytes)
	}
	ones := make([]byte, haloSum*8)
	for i := 0; i < haloSum; i++ {
		binary.LittleEndian.PutUint64(ones[i*8:], math.Float64bits(1))
	}
	type iter struct {
		ranks   int
		slowest sim.Time
		bad     bool
	}
	var iters []iter
	m.StartMPI(haloRanks, placement, func(p *bcl.Proc, comm *bcl.MPIComm) {
		me, n := comm.Rank(), comm.Size()
		right, left := (me+1)%n, (me+n-1)%n
		comm.Device().Port().SetTracer(tr)
		sp := comm.Device().Port().Process().Space
		out, in := sp.Alloc(haloBytes), sp.Alloc(haloBytes)
		contrib, sum := sp.Alloc(len(ones)), sp.Alloc(len(ones))
		mine := append([]byte(nil), halo[me]...)
		bad := sp.Write(contrib, ones) != nil
		for it := 0; ; it++ {
			start := p.Now()
			binary.LittleEndian.PutUint64(mine, uint64(it))
			if sp.Write(out, mine) != nil {
				bad = true
			}
			if _, err := comm.Sendrecv(p, out, haloBytes, right, 1, in, haloBytes, left, 1); err != nil {
				bad = true
			}
			got, err := sp.Read(in, haloBytes)
			if err != nil || binary.LittleEndian.Uint64(got) != uint64(it) ||
				!bytes.Equal(got[8:], halo[left][8:]) {
				bad = true
			}
			if comm.Allreduce(p, contrib, sum, haloSum, bcl.MPIFloat64, bcl.MPISum) != nil {
				bad = true
			}
			res, err := sp.Read(sum, len(ones))
			for i := 0; err == nil && i < haloSum; i++ {
				if math.Float64frombits(binary.LittleEndian.Uint64(res[i*8:])) != float64(n) {
					bad = true
				}
			}
			if err != nil {
				bad = true
			}

			if it == len(iters) {
				iters = append(iters, iter{})
			}
			rec := &iters[it]
			rec.ranks++
			rec.bad = rec.bad || bad
			if d := p.Now() - start; d > rec.slowest {
				rec.slowest = d
			}
			if rec.ranks == n {
				t.lat = append(t.lat, rec.slowest)
				if rec.bad {
					t.failed++
				} else {
					t.ops++
					t.bytes += uint64(n) * (haloBytes + haloSum*8)
				}
			}
			if bad {
				return
			}
		}
	})
	return &world{c: m.Cluster, t: t, tr: tr}
}
