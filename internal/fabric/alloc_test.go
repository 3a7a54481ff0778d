package fabric_test

import (
	"testing"

	"bcl/internal/fabric"
	"bcl/internal/fabric/myrinet"
	"bcl/internal/hw"
	"bcl/internal/sim"
)

// TestPacketTransitAllocatesNothing holds the fabric to its steady
// state: a pooled 64 B packet crossing one Myrinet switch, injection to
// release at the receiver, allocates nothing — no process, no closure,
// no descriptor, no payload.
func TestPacketTransitAllocatesNothing(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	fab := myrinet.New(env, hw.DAWNING3000(), 2)
	tx, rx := fab.Attach(0), fab.Attach(1)
	kick := sim.NewQueue[int](env, "kick", 0)
	env.Go("tx", func(p *sim.Proc) {
		for {
			kick.Recv(p)
			pkt := tx.Pool().Get(64)
			pkt.Kind, pkt.Src, pkt.Dst = fabric.KindData, 0, 1
			tx.Inject(p, pkt)
		}
	})
	got := 0
	env.Go("rx", func(p *sim.Proc) {
		for {
			rx.RX.Recv(p).Release()
			got++
		}
	})
	one := func() {
		kick.Post(1)
		env.Run()
	}
	for i := 0; i < 8; i++ { // warm the event, flight and packet pools
		one()
	}
	if avg := testing.AllocsPerRun(200, one); avg != 0 {
		t.Fatalf("one packet across a switch allocates %.2f objects, want 0", avg)
	}
	if got != 8+201 {
		t.Fatalf("delivered %d packets, want %d", got, 8+201)
	}
	if d, b := tx.Pool().InUse(); d != 0 || b != 0 {
		t.Fatalf("pool not balanced after drain: %d descriptors, %d payloads out", d, b)
	}
}

// BenchmarkFabricPacket is the benchmark's fabric.probe_packet_ns: one
// 64 B packet across one Myrinet switch, injection to RX queue, the
// packet a caller-built literal (the one allocation per op).
func BenchmarkFabricPacket(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	fab := myrinet.New(env, hw.DAWNING3000(), 2)
	tx, rx := fab.Attach(0), fab.Attach(1)
	payload := make([]byte, 64)
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			tx.Inject(p, &fabric.Packet{Kind: fabric.KindData, Src: 0, Dst: 1, Payload: payload})
		}
	})
	env.Go("rx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			rx.RX.Recv(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
