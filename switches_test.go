package bcl

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// eagerPingPong bounces a 0-byte system-channel message between two
// nodes rounds times, the message path of the eager_pingpong host
// benchmark: every receive hands its system buffer back.
func eagerPingPong(t *testing.T, m *Machine, rounds int) {
	m.Start(2, []int{0, 1}, func(ctx *Ctx) {
		p, pt := ctx.P, ctx.Port
		peer := ctx.Peers[1-ctx.Rank]
		va := ctx.Alloc(64)
		bufSize := pt.Node().Prof.MaxPacket
		send := func(tag uint64) {
			if _, err := pt.Send(p, peer, SystemChannel, va, 0, tag); err != nil {
				t.Error(err)
			}
		}
		recv := func() {
			ev := pt.WaitRecv(p)
			if ev.Type != EvRecvDone || pt.ReturnSystemBuffer(p, ev.VA, bufSize) != nil {
				t.Errorf("receive %+v", ev)
			}
		}
		for r := 0; r < rounds; r++ {
			if ctx.Rank == 0 {
				send(uint64(r))
				recv()
			} else {
				recv()
				send(uint64(r))
			}
			if ev := pt.WaitSend(p); ev.Type != EvSendDone {
				t.Errorf("send event %+v", ev)
			}
		}
	})
}

// bulkStream moves msgs 128 KB messages from node 0 to node 1 with
// window outstanding, the message path of the bulk_stream host
// benchmark: the receiver posts a buffer per slot and grants it to the
// sender with a 0-byte system-channel credit, and checks every byte.
func bulkStream(t *testing.T, m *Machine, msgs, window int) {
	const size = 128 << 10
	want := bytes.Repeat([]byte{0xa5}, size)
	m.Start(2, []int{0, 1}, func(ctx *Ctx) {
		p, pt := ctx.P, ctx.Port
		peer := ctx.Peers[1-ctx.Rank]
		sysBuf := pt.Node().Prof.MaxPacket
		bufs := make([]VAddr, window)
		for s := range bufs {
			bufs[s] = ctx.Alloc(size)
		}
		if ctx.Rank == 0 {
			for s := range bufs {
				if err := ctx.Write(bufs[s], want); err != nil {
					t.Error(err)
				}
			}
			for n := 0; n < msgs; n++ {
				credit := pt.WaitRecv(p)
				s := int(credit.Tag)
				if pt.ReturnSystemBuffer(p, credit.VA, sysBuf) != nil {
					t.Errorf("credit %+v", credit)
				}
				if _, err := pt.Send(p, peer, s+1, bufs[s], size, uint64(n)); err != nil {
					t.Error(err)
				}
				if _, bad := pt.DrainSendEvents(p); bad > 0 {
					t.Errorf("%d sends failed", bad)
				}
			}
			return
		}
		grant := func(s int) {
			if err := pt.PostRecv(p, s+1, bufs[s], size); err != nil {
				t.Error(err)
			}
			if _, err := pt.Send(p, peer, SystemChannel, bufs[s], 0, uint64(s)); err != nil {
				t.Error(err)
			}
			if _, bad := pt.DrainSendEvents(p); bad > 0 {
				t.Errorf("%d credits failed", bad)
			}
		}
		for s := range bufs {
			grant(s)
		}
		for n := 0; n < msgs; n++ {
			ev := pt.WaitRecv(p)
			s := ev.Channel - 1
			if got, err := ctx.Read(bufs[s], size); err != nil || ev.Len != size || !bytes.Equal(got, want) {
				t.Errorf("message %d: %+v, %v", n, ev, err)
			}
			if n+window < msgs {
				grant(s)
			}
		}
	})
}

// mpiHalo runs iters iterations of the mpi_halo70 host benchmark's
// pattern with one rank on each node of the machine: a 512 B Sendrecv
// around the ring and a 1 KB Allreduce, every byte checked.
func mpiHalo(t *testing.T, m *Machine, iters int) {
	const halo, doubles = 512, 128
	ranks := m.Nodes()
	placement := make([]int, ranks)
	for i := range placement {
		placement[i] = i
	}
	ones := make([]byte, doubles*8)
	for i := 0; i < doubles; i++ {
		binary.LittleEndian.PutUint64(ones[i*8:], math.Float64bits(1))
	}
	m.StartMPI(ranks, placement, func(p *Proc, comm *MPIComm) {
		me := comm.Rank()
		right, left := (me+1)%ranks, (me+ranks-1)%ranks
		sp := comm.Device().Port().Process().Space
		out, in := sp.Alloc(halo), sp.Alloc(halo)
		contrib, sum := sp.Alloc(len(ones)), sp.Alloc(len(ones))
		if err := sp.Write(contrib, ones); err != nil {
			t.Error(err)
			return
		}
		msg := make([]byte, halo)
		for it := 0; it < iters; it++ {
			for j := range msg {
				msg[j] = byte(me + it + j)
			}
			if err := sp.Write(out, msg); err != nil {
				t.Error(err)
				return
			}
			if _, err := comm.Sendrecv(p, out, halo, right, it, in, halo, left, it); err != nil {
				t.Error(err)
				return
			}
			if got, err := sp.Read(in, halo); err != nil || got[0] != byte(left+it) || got[halo-1] != byte(left+it+halo-1) {
				t.Errorf("rank %d iteration %d: halo %v, %v", me, it, got[:4], err)
				return
			}
			if err := comm.Allreduce(p, contrib, sum, doubles, MPIFloat64, MPISum); err != nil {
				t.Error(err)
				return
			}
			res, err := sp.Read(sum, len(ones))
			for i := 0; err == nil && i < doubles; i++ {
				if v := math.Float64frombits(binary.LittleEndian.Uint64(res[i*8:])); v != float64(ranks) {
					t.Errorf("rank %d iteration %d: element %d = %v, want %d", me, it, i, v, ranks)
					return
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// TestSwitchesPerEventBudget holds the coroutine switches (Env.Switches)
// per message of the eager and the bulk message path on two nodes, and
// per iteration of an 8-rank MPI halo exchange, to a budget. They are
// counts, so unlike a host rate they repeat exactly, and per message
// they do not move with the number of events a message takes (ROADMAP
// item 20). Turning a process the message path wakes into event
// continuations lowers them; lower the budget with it.
//
// The eager and bulk budgets are their counts. The MPI row, whose
// switches are mostly its ranks', is held to its count while the send
// MCP's engines were processes (338.4 since).
func TestSwitchesPerEventBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nodes  int
		ops    int
		run    func(t *testing.T, m *Machine, ops int)
		budget float64 // switches per op
	}{
		{"eager", 2, 2000, eagerPingPong, 4.009},
		{"bulk", 2, 64, func(t *testing.T, m *Machine, msgs int) { bulkStream(t, m, msgs, 8) }, 9.469},
		{"mpi", 8, 50, mpiHalo, 537.24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(MachineConfig{Nodes: tc.nodes})
			tc.run(t, m, tc.ops)
			m.Run()
			env := m.Cluster.Env
			got := float64(env.Switches()) / float64(tc.ops)
			t.Logf("%d switches over %d ops and %d events: %.3f per op (budget %.3f), %.4f per event",
				env.Switches(), tc.ops, env.Steps(), got, tc.budget, float64(env.Switches())/float64(env.Steps()))
			if got > tc.budget {
				t.Errorf("%.3f switches per op, budget %.3f", got, tc.budget)
			}
		})
	}
}
