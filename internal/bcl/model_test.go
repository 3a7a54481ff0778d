package bcl

import (
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/hw"
	"bcl/internal/sim"
)

// modelPingPong runs 32 0-byte eager round trips between two nodes
// built on prof and returns the cluster. With noise, a third process
// books a zero-delay no-op event every 700 ns while they run: more
// events and another event fingerprint, the same model.
func modelPingPong(t *testing.T, prof *hw.Profile, noise bool) *cluster.Cluster {
	t.Helper()
	tb := bootTestbed(t, cluster.Config{Nodes: 2, Fabric: cluster.Myrinet, Profile: prof, NIC: DefaultNICConfig()}, []int{0, 1}, Options{SystemBuffers: 64})
	a, b := tb.ports[0], tb.ports[1]
	const rounds = 32
	done, trips := false, 0
	serve := func(pt *Port, peer Addr, first bool) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			va := pt.Process().Space.Alloc(8)
			for i := 0; i < rounds; i++ {
				if first {
					done = i == rounds-1
					if _, err := pt.Send(p, peer, SystemChannel, va, 0, 0); err != nil {
						t.Error(err)
					}
				}
				ev := pt.WaitRecv(p)
				if err := pt.ReturnSystemBuffer(p, ev.VA, tb.c.Nodes[0].Prof.MaxPacket); err != nil {
					t.Error(err)
				}
				if !first {
					if _, err := pt.Send(p, peer, SystemChannel, va, 0, 0); err != nil {
						t.Error(err)
					}
				}
				pt.WaitSend(p)
				if first {
					trips++
				}
			}
		}
	}
	tb.c.Env.Go("ping", serve(a, b.Addr(), true))
	tb.c.Env.Go("pong", serve(b, a.Addr(), false))
	if noise {
		tb.c.Env.Go("noise", func(p *sim.Proc) {
			for !done {
				tb.c.Env.At(p.Now(), func() {})
				p.Sleep(700)
			}
		})
	}
	tb.run(t, 50*sim.Millisecond)
	if trips != rounds {
		t.Fatalf("%d round trips finished, want %d", trips, rounds)
	}
	return tb.c
}

// TestModelFingerprintIgnoresScheduling: events that do nothing move
// the event count and fingerprint, never the model fingerprint; one NIC
// stage 1 ns longer moves the model fingerprint.
func TestModelFingerprintIgnoresScheduling(t *testing.T) {
	base := modelPingPong(t, hw.DAWNING3000(), false)
	noisy := modelPingPong(t, hw.DAWNING3000(), true)
	if base.Env.Steps() == noisy.Env.Steps() || base.Env.Fingerprint() == noisy.Env.Fingerprint() {
		t.Fatalf("the no-op events moved neither events (%d) nor event_fp (%016x)", base.Env.Steps(), base.Env.Fingerprint())
	}
	if b, n := base.ModelFingerprint(), noisy.ModelFingerprint(); b != n {
		t.Fatalf("the no-op events moved model_fp: %016x -> %016x", b, n)
	}
	for i, nd := range base.Nodes {
		if nd.NIC.ModelFP() == 0 || base.Fabric.ModelFP(i) == 0 {
			t.Fatalf("node %d logged no completion or no packet", i)
		}
	}

	slow := hw.DAWNING3000()
	slow.MCPEventDMA++
	if b, s := base.ModelFingerprint(), modelPingPong(t, slow, false).ModelFingerprint(); b == s {
		t.Fatalf("a completion event DMA 1 ns longer left model_fp at %016x", b)
	}
}
