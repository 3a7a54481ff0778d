package fabric_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/fabric/mesh"
	"bcl/internal/hw"
	"bcl/internal/sim"
)

// transitScenario drives a 3x3 mesh hard enough that packets queue on
// links: nodes 0, 1 and 2 stream mixed-size packets to node 8 (all three
// routes share r2->r5, r5->r8 and r8->n8), node 6 joins them on the last
// two links, node 8 answers node 0 with ACKs against the flow, node 1's
// attachment is gray-slow for a window in the middle, and every seventh
// data packet is duplicated. It logs (time, src, dst, kind, seq) for
// every RX delivery, then the final clock and the events executed.
func transitScenario() string {
	env := sim.NewEnv(3)
	f := mesh.New(env, hw.DAWNING3000(), 9)
	f.Install(fabric.Schedule{
		Rules:   []fabric.Rule{{Every: 7, Do: fabric.Duplicate}},
		Windows: []fabric.Window{{Node: 1, From: 40 * sim.Microsecond, To: 120 * sim.Microsecond, Slow: 3}},
	})

	var log strings.Builder
	for node := 0; node < 9; node++ {
		rx := f.Attach(node).RX
		env.Go(fmt.Sprintf("rx%d", node), func(p *sim.Proc) {
			for {
				pkt := rx.Recv(p)
				fmt.Fprintf(&log, "%d %d %d %s %d\n", p.Now(), pkt.Src, pkt.Dst, pkt.Kind, pkt.Seq)
			}
		})
	}
	send := func(src, dst int, kind fabric.PacketKind, count int, size func(i int) int, gap sim.Time) {
		tx := f.Attach(src)
		env.Go(fmt.Sprintf("tx%d", src), func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				pkt := &fabric.Packet{Kind: kind, Src: src, Dst: dst, Seq: uint64(i), Payload: make([]byte, size(i))}
				pkt.Seal()
				tx.Inject(p, pkt)
				p.Sleep(gap)
			}
		})
	}
	send(0, 8, fabric.KindData, 24, func(i int) int { return 4096 }, 0)
	send(1, 8, fabric.KindData, 24, func(i int) int { return 64 + 509*(i%9) }, 0)
	send(2, 8, fabric.KindRMAWrite, 24, func(i int) int { return 2048 }, 3*sim.Microsecond)
	send(6, 8, fabric.KindData, 16, func(i int) int { return 4096 - 257*(i%5) }, sim.Microsecond)
	send(8, 0, fabric.KindAck, 40, func(i int) int { return 0 }, 5*sim.Microsecond)

	env.Run()
	fmt.Fprintf(&log, "end %d steps %d\n", env.Now(), env.Steps())
	env.Close()
	return log.String()
}

// TestGoldenTransitOrder compares the scenario's delivery log with the
// one the per-packet-process fabric produced (testdata/transit_order.golden
// was generated on the commit before transit became an event chain). Any
// difference means a hop books its events in a different order or
// number, which every baseline and model digest would feel.
func TestGoldenTransitOrder(t *testing.T) {
	want, err := os.ReadFile("testdata/transit_order.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := transitScenario(); got != string(want) {
		t.Fatalf("transit order changed.\n--- got\n%s--- want\n%s", got, want)
	}
}
