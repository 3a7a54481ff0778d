package bcl

import (
	"bytes"
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

// TestSwitchesPerEventBudget holds the coroutine switches per executed
// event (Env.Switches()/Env.Steps()) of the eager and the bulk message
// path on two nodes to their value today (ROADMAP item 8). Both are
// counts, so unlike a host rate they repeat exactly. Turning a process
// the message path wakes (the send or inject engine, say) into event
// continuations lowers them; lower the budget with it.
func TestSwitchesPerEventBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(t *testing.T, m *Machine)
		budget float64
	}{
		{"eager", func(t *testing.T, m *Machine) { eagerPingPong(t, m, 2000) }, 0.2184},
		{"bulk", func(t *testing.T, m *Machine) { bulkStream(t, m, 64, 8) }, 0.2146},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(MachineConfig{Nodes: 2})
			tc.run(t, m)
			m.Run()
			env := m.Cluster.Env
			got := float64(env.Switches()) / float64(env.Steps())
			t.Logf("%d switches over %d events: %.4f per event (budget %.4f)", env.Switches(), env.Steps(), got, tc.budget)
			if got > tc.budget {
				t.Errorf("%.4f switches per event, budget %.4f", got, tc.budget)
			}
		})
	}
}
