package bcl

import (
	"fmt"
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/mem"
	"bcl/internal/sim"
)

// TestSoakMixedWorkload is a long randomized full-stack run (skipped
// with -short): 6 ports on 3 nodes — so intra-node shm, inter-node
// NIC, and RMA paths all fire — under 5% random loss, with every
// message audited by checksum. It exists to shake out interactions the
// targeted tests cannot: retransmission overlapping intra-node
// delivery, pool recycling under pressure, RMA interleaved with
// channel traffic.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	tb := newTestbed(t, cluster.Myrinet, 3, []int{0, 0, 1, 1, 2, 2})
	tb.c.Install(fabric.Schedule{Rules: []fabric.Rule{{P: 0.05, Do: fabric.Drop}}})
	const (
		nPorts  = 6
		rounds  = 40
		winSize = 16 * 1024
	)
	// Every port registers an RMA window; known fill pattern per port.
	windows := make([]mem.VAddr, nPorts)
	ready := 0
	for i := 0; i < nPorts; i++ {
		pt := tb.ports[i]
		id := i
		tb.c.Env.Go(fmt.Sprintf("setup%d", id), func(p *sim.Proc) {
			windows[id] = pt.Process().Space.Alloc(winSize)
			if err := pt.RegisterOpen(p, 9, windows[id], winSize); err != nil {
				t.Error(err)
				return
			}
			ready++
		})
	}
	tb.run(t, 10*sim.Millisecond)
	if ready != nPorts {
		t.Fatal("setup incomplete")
	}

	pattern := func(src, round, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(src*37 + round*11 + i)
		}
		return b
	}

	received := make([]int, nPorts)
	expected := make([]int, nPorts)
	// Plan deterministic message rounds (so receivers know their counts).
	type planEntry struct{ dst, size, round int }
	plans := make([][]planEntry, nPorts)
	rng := tb.c.Env.Rand()
	for src := 0; src < nPorts; src++ {
		for r := 0; r < rounds; r++ {
			dst := rng.Intn(nPorts)
			if dst == src {
				dst = (dst + 1) % nPorts
			}
			size := rng.Intn(3000)
			plans[src] = append(plans[src], planEntry{dst: dst, size: size, round: r})
			expected[dst]++
		}
	}

	for src := 0; src < nPorts; src++ {
		pt := tb.ports[src]
		id := src
		tb.c.Env.Go(fmt.Sprintf("soak-tx%d", id), func(p *sim.Proc) {
			va := pt.Process().Space.Alloc(4096)
			for _, pl := range plans[id] {
				pt.Process().Space.Write(va, pattern(id, pl.round, pl.size))
				if _, err := pt.Send(p, tb.ports[pl.dst].Addr(), SystemChannel, va, pl.size,
					uint64(id)<<32|uint64(pl.round)); err != nil {
					t.Error(err)
					return
				}
				pt.WaitSend(p)
				// Interleave an occasional RMA write into the target's
				// window (always at a src-specific offset so writers
				// never collide).
				if pl.round%8 == 0 && pl.size > 16 {
					off := id * 2048
					if _, err := pt.RMAWrite(p, tb.ports[pl.dst].Addr(), 9, off, va, 64); err != nil {
						t.Error(err)
						return
					}
					pt.WaitSend(p)
				}
			}
		})
		tb.c.Env.Go(fmt.Sprintf("soak-rx%d", id), func(p *sim.Proc) {
			for received[id] < expected[id] {
				ev, ok := pt.TryRecv(p)
				if !ok {
					p.Sleep(100 * sim.Microsecond)
					continue
				}
				srcID := int(ev.Tag >> 32)
				round := int(uint32(ev.Tag))
				want := pattern(srcID, round, ev.Len)
				got, err := pt.Process().Space.Read(ev.VA, ev.Len)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("port %d: message (src %d, round %d) corrupted at byte %d", id, srcID, round, j)
						return
					}
				}
				received[id]++
				pt.ReturnSystemBuffer(p, ev.VA, 4096)
			}
		})
	}
	tb.run(t, 30*sim.Second)
	total, want := 0, 0
	for i := 0; i < nPorts; i++ {
		total += received[i]
		want += expected[i]
	}
	if total != want {
		t.Fatalf("soak delivered %d of %d messages", total, want)
	}
	// The fabric really was hostile.
	var retx uint64
	for _, nd := range tb.c.Nodes {
		retx += nd.NIC.Stats().Retransmits
	}
	if retx == 0 {
		t.Error("soak ran without a single retransmission under 5% loss")
	}
	tb.assertDrained(t)
}
