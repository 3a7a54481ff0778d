package mpi

import (
	"fmt"
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/sim"
)

// TestRandomP2POracle drives a randomized all-pairs traffic pattern —
// every rank sends a deterministic pseudo-random set of (dst, tag,
// size) messages and receives with wildcards — and audits the result
// against an oracle: per (src, tag), payload content is a function of
// the pair, so any mismatch or miscount is detected.
func TestRandomP2POracle(t *testing.T) {
	// A device is single-threaded (see the eadi package doc), so the
	// senders and receivers are separate ranks: ranks 0..5 send, ranks
	// 6..11 receive.
	const (
		senders   = 6
		perSender = 8
	)
	c, comms := job(t, 3, []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	rng := c.Env.Rand()

	type msg struct{ dst, tag, size int }
	plans := make([][]msg, senders)
	expect := make([]int, 2*senders) // messages each receiver rank gets
	for s := 0; s < senders; s++ {
		for i := 0; i < perSender; i++ {
			m := msg{
				dst:  senders + rng.Intn(senders),
				tag:  rng.Intn(50),
				size: rng.Intn(6000), // mixes eager and rendezvous
			}
			plans[s] = append(plans[s], m)
			expect[m.dst]++
		}
	}
	fill := func(src, tag, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(src*31 + tag*7 + i)
		}
		return b
	}

	recvCounts := make([]int, 2*senders)
	for r := 0; r < senders; r++ {
		rank := r
		c.Env.Go(fmt.Sprintf("sender%d", rank), func(p *sim.Proc) {
			for _, m := range plans[rank] {
				va := comms[rank].space().Alloc(m.size + 1)
				comms[rank].space().Write(va, fill(rank, m.tag, m.size))
				if err := comms[rank].Send(p, va, m.size, m.dst, m.tag); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	for r := senders; r < 2*senders; r++ {
		rank := r
		c.Env.Go(fmt.Sprintf("receiver%d", rank), func(p *sim.Proc) {
			buf := comms[rank].space().Alloc(8192)
			for i := 0; i < expect[rank]; i++ {
				st, err := comms[rank].Recv(p, buf, 8192, AnySource, AnyTag)
				if err != nil {
					t.Error(err)
					return
				}
				want := fill(st.Source, st.Tag, st.Len)
				got, _ := comms[rank].space().Read(buf, st.Len)
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("rank %d: byte %d of (src %d, tag %d) wrong", rank, j, st.Source, st.Tag)
						return
					}
				}
				recvCounts[rank]++
			}
		})
	}
	c.Env.RunUntil(60 * sim.Second)
	for r := senders; r < 2*senders; r++ {
		if recvCounts[r] != expect[r] {
			t.Fatalf("rank %d received %d of %d", r, recvCounts[r], expect[r])
		}
	}
}

// TestCollectivesUnderPacketLoss runs barrier+bcast with 15%
// packet loss: the firmware reliability layer must make the collectives
// indistinguishable from a clean fabric.
func TestCollectivesUnderPacketLoss(t *testing.T) {
	c, comms := job(t, 4, []int{0, 1, 2, 3})
	c.Install(fabric.Schedule{Rules: []fabric.Rule{{P: 0.15, Do: fabric.Drop}}})
	payload := make([]byte, 9000)
	c.Env.Rand().Fill(payload)
	results := make([][]byte, len(comms))
	for i := range comms {
		r := i
		c.Env.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			if err := comms[r].Barrier(p); err != nil {
				t.Error(err)
				return
			}
			buf := comms[r].space().Alloc(len(payload))
			if r == 2 {
				comms[r].space().Write(buf, payload)
			}
			if err := comms[r].Bcast(p, buf, len(payload), 2); err != nil {
				t.Error(err)
				return
			}
			results[r], _ = comms[r].space().Read(buf, len(payload))
			if err := comms[r].Barrier(p); err != nil {
				t.Error(err)
			}
		})
	}
	c.Env.RunUntil(60 * sim.Second)
	for r := range comms {
		if results[r] == nil {
			t.Fatalf("rank %d never finished under loss", r)
		}
		for j := range results[r] {
			if results[r][j] != payload[j] {
				t.Fatalf("rank %d: bcast byte %d corrupted under loss", r, j)
			}
		}
	}
	var retx uint64
	for _, nd := range c.Nodes {
		retx += nd.NIC.Stats().Retransmits
	}
	if retx == 0 {
		t.Error("suspicious: no retransmissions anywhere under 15% loss")
	}
}
