package bcl

import (
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// BenchmarkPortSend is the library layer's host cost: one warm 0-byte
// inter-node Port.Send and its WaitSend per op, the whole two-node world
// included (the send trap, both NICs' firmware, the fabric, and the
// receiver taking the message and returning its pool buffer). The
// free lists, queues and done-rings are warmed before the timer starts;
// a warm send allocates nothing.
func BenchmarkPortSend(b *testing.B) {
	c := cluster.New(cluster.Config{Nodes: 2, Fabric: cluster.Myrinet, NIC: DefaultNICConfig()})
	ports, err := NewSystem(c).Boot([]int{0, 1}, Options{SystemBuffers: 64}, 10*sim.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	tx, rx := ports[0], ports[1]
	c.Env.Go("rx", func(p *sim.Proc) {
		for {
			ev := rx.WaitRecv(p)
			if err := rx.ReturnSystemBuffer(p, ev.VA, c.Nodes[1].Prof.MaxPacket); err != nil {
				b.Error(err)
				return
			}
		}
	})
	const warm = 300
	done := false
	b.ReportAllocs()
	c.Env.Go("tx", func(p *sim.Proc) {
		va := tx.Process().Space.Alloc(8)
		for i := 0; i < warm+b.N; i++ {
			if i == warm {
				b.ResetTimer()
			}
			if _, err := tx.Send(p, rx.Addr(), SystemChannel, va, 0, 0); err != nil {
				b.Error(err)
				break
			}
			if tx.WaitSend(p).Type != nic.EvSendDone {
				b.Error("send failed")
				break
			}
		}
		b.StopTimer()
		done = true
	})
	for !done && !b.Failed() {
		c.Env.RunUntil(c.Env.Now() + sim.Second)
	}
}
