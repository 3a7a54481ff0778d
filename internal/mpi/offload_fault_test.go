package mpi

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/sim"
)

// TestOffloadReduceFreesSRAM loops offloaded Reduces of the largest
// payload one collective carries on four ranks. A non-root member gives
// a combine's SRAM back once its single upward forward is out: if it
// kept it, the card's 1 MB would run out after 255 Reduces and every
// NIC but the root's would wedge, its sends waiting on SRAM for good.
func TestOffloadReduceFreesSRAM(t *testing.T) {
	const n, iters = 4, 300
	c, comms := collJob(t, n, bcl.DefaultNICConfig())
	done := make([]int, n)
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			size := comms[r].coll.MaxPayload()
			sp := comms[r].space()
			send, recv := sp.Alloc(size), sp.Alloc(size)
			for ; done[r] < iters; done[r]++ {
				if err := comms[r].Reduce(p, send, recv, size/8, Int64, Sum, 0); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	c.Env.RunUntil(c.Env.Now() + 5*sim.Second)
	for r, k := range done {
		if k != iters {
			t.Errorf("rank %d stopped after %d of %d Reduces", r, k, iters)
		}
	}
	assertCardsDrained(t, c)
}

func assertCardsDrained(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	for i, nd := range c.Nodes {
		if err := nd.NIC.Drained(); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// The healing tests below run a binomial tree over eight ranks rooted at
// 0, in which member 1 is interior: its children are 3 and 5, and 3's
// child is 7. Node 1's link goes down for good (a Window), so go-back-N
// exhausts its retries on every flow toward it and declares the peer
// dead. Each test sets up which member finds that out, and when.

// healJob is collJob over eight ranks with a short retry ladder, and the
// instant node 1's link goes down.
func healJob(t *testing.T, downAfter sim.Time) (*cluster.Cluster, []*Comm) {
	cfg := bcl.DefaultNICConfig()
	cfg.MaxRetries = 3
	c, comms := collJob(t, 8, cfg)
	c.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, From: c.Env.Now() + downAfter, To: sim.Time(1 << 62)}}})
	return c, comms
}

// TestOffloadBcastAdoptsAfterFailedForward: the root believes node 1
// healthy and forwards a broadcast to it; the forward's flow is declared
// dead mid-flight, and the root adopts 1's children, so 3, 5 and 7
// still receive.
func TestOffloadBcastAdoptsAfterFailedForward(t *testing.T) {
	c, comms := healJob(t, 0)
	payload := []byte("adopted around a failed forward")
	got := make([][]byte, len(comms))
	for i := range comms {
		r := i
		if r == 1 {
			continue
		}
		c.Env.Go("rank", func(p *sim.Proc) {
			sp := comms[r].space()
			buf := sp.Alloc(len(payload))
			if r == 0 {
				sp.Write(buf, payload)
			}
			if err := comms[r].Bcast(p, buf, len(payload), 0); err != nil {
				t.Error(err)
				return
			}
			got[r], _ = sp.Read(buf, len(payload))
		})
	}
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	for r := range comms {
		if r != 1 && !bytes.Equal(got[r], payload) {
			t.Errorf("rank %d received %q", r, got[r])
		}
	}
	st := c.Nodes[0].NIC.Stats()
	if st.PeerDeaths == 0 || st.CollAdoptions != 2 || st.CollReparents != 1 {
		t.Errorf("root: peer deaths %d, adoptions %d, reparents %d; want >0, 2 and 1",
			st.PeerDeaths, st.CollAdoptions, st.CollReparents)
	}
}

// TestOffloadReleaseAdoptsAfterFailedForward: members 1, 3, 5 and 7
// enter an Allreduce first, so 1 forwards the aggregate of its subtree
// before its link goes down; the rest enter later. The root completes
// with every contribution, believes node 1 healthy, and its release
// toward 1 fails mid-flight: it adopts 3 and 5, and every live member
// gets the full sum.
func TestOffloadReleaseAdoptsAfterFailedForward(t *testing.T) {
	c, comms := healJob(t, sim.Millisecond)
	got := make([]int64, len(comms))
	finished := make([]bool, len(comms))
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			if r%2 == 0 {
				p.Sleep(2 * sim.Millisecond)
			}
			sp := comms[r].space()
			send, recv := sp.Alloc(8), sp.Alloc(8)
			sp.Write(send, binary.LittleEndian.AppendUint64(nil, uint64(1)<<r))
			if err := comms[r].Allreduce(p, send, recv, 1, Int64, Sum); err != nil {
				t.Error(err)
				return
			}
			b, _ := sp.Read(recv, 8)
			got[r], finished[r] = int64(binary.LittleEndian.Uint64(b)), true
		})
	}
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	for r := range comms {
		if r == 1 {
			continue
		}
		if !finished[r] || got[r] != 0xff {
			t.Errorf("rank %d: finished %v, sum %#x; want the fold of all eight, 0xff", r, finished[r], got[r])
		}
	}
	if st := c.Nodes[0].NIC.Stats(); st.PeerDeaths == 0 || st.CollAdoptions != 2 {
		t.Errorf("root: peer deaths %d, adoptions %d; want >0 and 2", st.PeerDeaths, st.CollAdoptions)
	}
}

// TestOffloadReduceSkipsUnhealthyParent: node 1's link goes down, and a
// send from rank 3 to rank 1 fails, so node 3 believes its tree parent
// dead before the Reduce starts. When 3 forwards its aggregate (its own
// and 7's) up, it skips 1 and sends to the grandparent, the root; the
// root's sum covers every member but 1, which the result names dead.
func TestOffloadReduceSkipsUnhealthyParent(t *testing.T) {
	c, comms := healJob(t, 0)
	var sum int64
	finished := make([]bool, len(comms))
	for i := range comms {
		r := i
		if r == 1 {
			continue
		}
		c.Env.Go("rank", func(p *sim.Proc) {
			sp := comms[r].space()
			if r == 3 {
				if err := comms[3].Send(p, writeBytes(comms[3], []byte("x")), 1, 1, 1); err == nil {
					t.Error("a send to the dead rank 1 succeeded")
				}
			} else {
				p.Sleep(100 * sim.Millisecond)
			}
			send, recv := sp.Alloc(8), sp.Alloc(8)
			sp.Write(send, binary.LittleEndian.AppendUint64(nil, uint64(1)<<r))
			if err := comms[r].Reduce(p, send, recv, 1, Int64, Sum, 0); err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				b, _ := sp.Read(recv, 8)
				sum = int64(binary.LittleEndian.Uint64(b))
			}
			finished[r] = true
		})
	}
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	for r := range comms {
		if r != 1 && !finished[r] {
			t.Errorf("rank %d never finished its Reduce", r)
		}
	}
	if sum != 0xff&^0x2 || comms[0].coll.LastDead != 0x2 {
		t.Errorf("root: sum %#x with dead mask %#x; want 0xfd and 0x2", sum, comms[0].coll.LastDead)
	}
	if st := c.Nodes[3].NIC.Stats(); st.CollReparents != 1 || st.PeerDeaths == 0 {
		t.Errorf("node 3: reparents %d, peer deaths %d; want 1 and >0", st.CollReparents, st.PeerDeaths)
	}
}
