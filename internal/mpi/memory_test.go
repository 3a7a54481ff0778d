package mpi

import (
	"encoding/binary"
	"testing"

	"bcl/internal/mem"
	"bcl/internal/oskernel"
	"bcl/internal/sim"
)

// mappedSince tells how many pages the space has mapped since probe, an
// earlier sp.Alloc(1): Alloc is a bump allocator, and the second probe
// it takes here is one page itself.
func mappedSince(sp *mem.AddrSpace, probe mem.VAddr) int {
	page := mem.VAddr(sp.Mem().PageSize())
	return int((sp.Alloc(1) - probe - page) / page)
}

// spread places one rank on each of n nodes.
func spread(n int) []int {
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	return slots
}

// TestCollectivesMapNoPages: once warm, the host collective algorithms
// and the rendezvous path map no page and pin none. They used to map
// two pages per Reduce/Allreduce, one per Barrier and one per
// rendezvous header, and every one of those was a pin-down miss.
func TestCollectivesMapNoPages(t *testing.T) {
	const (
		ranks  = 4
		warmup = 3
		rounds = 50
		big    = 64 * 1024 // rendezvous
		count  = 16
	)
	c, comms := job(t, ranks, spread(ranks))
	finished := 0
	for _, comm := range comms {
		c.Env.Go("rank", func(p *sim.Proc) {
			me, sp := comm.Rank(), comm.space()
			k := comm.dev.Port().Node().Kernel
			small, vec, res := sp.Alloc(256), sp.Alloc(count*8), sp.Alloc(count*8)
			out, in := sp.Alloc(big), sp.Alloc(big)
			round := func() {
				err := comm.Barrier(p)
				if err == nil {
					err = comm.Bcast(p, small, 256, 1)
				}
				if err == nil {
					err = comm.Reduce(p, vec, res, count, Float64, Sum, 2)
				}
				if err == nil {
					err = comm.Allreduce(p, vec, res, count, Float64, Sum)
				}
				if err == nil {
					_, err = comm.Sendrecv(p, out, big, (me+1)%ranks, 9, in, big, (me+ranks-1)%ranks, 9)
				}
				if err != nil {
					t.Errorf("rank %d: %v", me, err)
				}
			}
			for i := 0; i < warmup; i++ {
				round()
			}
			probe, pins, pinned := sp.Alloc(1), pinTableLen(k), k.Stats().PagesPinned
			for i := 0; i < rounds; i++ {
				round()
			}
			if mapped := mappedSince(sp, probe); mapped != 0 {
				t.Errorf("rank %d: %d rounds mapped %d pages", me, rounds, mapped)
			}
			if got := pinTableLen(k); got != pins {
				t.Errorf("rank %d: pin-down table grew %d -> %d entries", me, pins, got)
			}
			if got := k.Stats().PagesPinned; got != pinned {
				t.Errorf("rank %d: %d pin-down misses in %d warm rounds", me, got-pinned, rounds)
			}
			finished++
		})
	}
	c.Env.RunUntil(10 * sim.Second)
	if finished != ranks {
		t.Fatalf("%d of %d ranks finished", finished, ranks)
	}
}

// TestHaloIterationAllocationBudget holds the per-message path to what
// it allocates: nothing. One iteration is the host benchmark's
// mpi_halo70 op on 8 ranks: a 512 B ring exchange and a 1 KB host
// Allreduce, 8 + 14 eager messages, some matched by a posted receive
// and some queued unexpected. It was 138 objects while each message
// built a send descriptor, a journal entry, two completion events, a
// receive descriptor and a pending receive.
func TestHaloIterationAllocationBudget(t *testing.T) {
	const (
		ranks  = 8
		budget = 0
	)
	c, comms := job(t, ranks, spread(ranks))
	defer c.Env.Close()
	kicks := make([]*sim.Queue[int], ranks)
	done := 0
	for i, comm := range comms {
		kicks[i] = sim.NewQueue[int](c.Env, "kick", 0)
		c.Env.Go("rank", func(p *sim.Proc) {
			me, sp := comm.Rank(), comm.space()
			out, in := sp.Alloc(512), sp.Alloc(512)
			vec, sum := sp.Alloc(1024), sp.Alloc(1024)
			for {
				kicks[me].Recv(p)
				_, err := comm.Sendrecv(p, out, 512, (me+1)%ranks, 1, in, 512, (me+ranks-1)%ranks, 1)
				if err == nil {
					err = comm.Allreduce(p, vec, sum, 128, Float64, Sum)
				}
				if err != nil {
					t.Errorf("rank %d: %v", me, err)
				}
				done++
			}
		})
	}
	one := func() {
		for _, k := range kicks {
			k.Post(1)
		}
		c.Env.RunUntil(c.Env.Now() + 2*sim.Millisecond)
	}
	for i := 0; i < 40; i++ { // scratch mapped, pages pinned, free lists, queues and done-rings grown
		one()
	}
	allocs := testing.AllocsPerRun(50, one)
	t.Logf("one 8-rank halo iteration allocates %.1f objects (%.1f per rank)", allocs, allocs/ranks)
	if done != (40+51)*ranks {
		t.Fatalf("%d rank iterations finished, want %d", done, (40+51)*ranks)
	}
	if allocs > budget {
		t.Fatalf("one 8-rank halo iteration allocates %.1f objects, budget %d", allocs, budget)
	}
}

// TestSendrecvAllocatesNothing: a 512 B exchange whose receives are
// posted before the messages land — Sendrecv's rank order sees to that
// — allocates no heap object in steady state, from the MPI call down
// to the firmware and back.
func TestSendrecvAllocatesNothing(t *testing.T) {
	c, comms := job(t, 2, spread(2))
	defer c.Env.Close()
	kicks := []*sim.Queue[int]{sim.NewQueue[int](c.Env, "kick", 0), sim.NewQueue[int](c.Env, "kick", 0)}
	done := 0
	for _, comm := range comms {
		c.Env.Go("rank", func(p *sim.Proc) {
			me, sp := comm.Rank(), comm.space()
			out, in := sp.Alloc(512), sp.Alloc(512)
			for {
				kicks[me].Recv(p)
				if st, err := comm.Sendrecv(p, out, 512, 1-me, 3, in, 512, 1-me, 3); err != nil || st.Len != 512 {
					t.Errorf("rank %d: %+v, %v", me, st, err)
				}
				done++
			}
		})
	}
	one := func() {
		kicks[0].Post(1)
		kicks[1].Post(1)
		c.Env.RunUntil(c.Env.Now() + sim.Millisecond)
	}
	for i := 0; i < 300; i++ {
		one()
	}
	unexpected := comms[0].dev.UnexpectedMsgs + comms[1].dev.UnexpectedMsgs
	if allocs := testing.AllocsPerRun(200, one); allocs != 0 {
		t.Fatalf("a steady 512 B Sendrecv exchange allocates %.2f objects, want 0", allocs)
	}
	if done != 2*(300+201) {
		t.Fatalf("%d Sendrecvs finished, want %d", done, 2*(300+201))
	}
	if got := comms[0].dev.UnexpectedMsgs + comms[1].dev.UnexpectedMsgs; got != unexpected {
		t.Fatalf("%d messages found no posted receive", got-unexpected)
	}
}

// The reduction scratch grows on demand: a vector larger than what is
// mapped remaps it (whole pages, at least doubling), a smaller one
// afterwards reuses it, and every result is right across the change of
// buffers — including a rendezvous-sized reduction, whose partials
// arrive by RMA into the scratch.
func TestReductionScratchGrows(t *testing.T) {
	const ranks = 3
	counts := []int{16, 1024, 16, 700, 3000}       // 128 B, 8 KB, ..., 24 KB
	wantMapped := []int{2 * 1, 2 * 2, 0, 0, 2 * 6} // pages for acc + tmp
	c, comms := job(t, ranks, spread(ranks))
	finished := 0
	for _, comm := range comms {
		c.Env.Go("rank", func(p *sim.Proc) {
			me, sp := comm.Rank(), comm.space()
			send, recv := sp.Alloc(3000*8), sp.Alloc(3000*8)
			for i, count := range counts {
				vec := make([]byte, count*8)
				for e := 0; e < count; e++ {
					binary.LittleEndian.PutUint64(vec[e*8:], uint64(int64((me+1)*(e+i))))
				}
				sp.Write(send, vec)
				before := sp.Alloc(1)
				if err := comm.Allreduce(p, send, recv, count, Int64, Sum); err != nil {
					t.Errorf("rank %d: %v", me, err)
					return
				}
				if mapped := mappedSince(sp, before); mapped != wantMapped[i] {
					t.Errorf("rank %d: Allreduce of %d elements mapped %d pages, want %d", me, count, mapped, wantMapped[i])
				}
				got, _ := sp.Read(recv, count*8)
				for e := 0; e < count; e++ {
					if v, want := int64(binary.LittleEndian.Uint64(got[e*8:])), int64((1+2+3)*(e+i)); v != want {
						t.Errorf("rank %d: round %d element %d = %d, want %d", me, i, e, v, want)
						return
					}
				}
			}
			finished++
		})
	}
	c.Env.RunUntil(10 * sim.Second)
	if finished != ranks {
		t.Fatalf("%d of %d ranks finished", finished, ranks)
	}
}

// pinTableLen reads the entries of k's pin-down table from its gauges.
func pinTableLen(k *oskernel.Kernel) int64 {
	var n int64
	k.CollectGauges(func(_ int, _, name string, v int64) {
		if name == "pinned_pages" {
			n = v
		}
	})
	return n
}
