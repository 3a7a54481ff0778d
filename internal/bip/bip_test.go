package bip

import (
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/sim"
	"bcl/internal/ulc"
)

func setup(t *testing.T) (*cluster.Cluster, *Port, *Port) {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: 2, NIC: NICConfig(), Profile: Profile()})
	sys := NewSystem(c)
	var a, b *Port
	c.Env.Go("setup", func(p *sim.Proc) {
		var err error
		a, err = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn(), 32)
		if err != nil {
			t.Error(err)
		}
		b, err = sys.Open(p, c.Nodes[1], c.Nodes[1].Kernel.Spawn(), 32)
		if err != nil {
			t.Error(err)
		}
	})
	c.Env.RunUntil(10 * sim.Millisecond)
	if a == nil || b == nil {
		t.Fatal("setup failed")
	}
	return c, a, b
}

func TestVeryLowLatency(t *testing.T) {
	c, a, b := setup(t)
	const iters = 4
	var warm sim.Time
	sendAt := make([]sim.Time, iters)
	ch := b.CreateChannel()
	c.Env.Go("b", func(p *sim.Proc) {
		rva := b.Process().Space.Alloc(64)
		b.Register(p, rva, 64)
		b.PostRecv(p, ch, rva, 64)
		for i := 0; i < iters; i++ {
			b.WaitRecv(p)
			warm = p.Now() - sendAt[i]
			if i < iters-1 {
				b.PostRecv(p, ch, rva, 64)
			}
		}
	})
	c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(64)
		a.Register(p, va, 64)
		p.Sleep(50 * sim.Microsecond)
		for i := 0; i < iters; i++ {
			sendAt[i] = p.Now()
			if _, err := a.Send(p, b.Addr(), ch, va, 8, 0); err != nil {
				t.Error(err)
			}
			a.WaitSend(p)
			p.Sleep(100 * sim.Microsecond)
		}
	})
	c.Env.RunUntil(sim.Second)
	// BIP: "a very low latency" — clearly under user-level GM (~15 µs)
	// and far under BCL (18.3 µs).
	if warm < 8*sim.Microsecond || warm > 14*sim.Microsecond {
		t.Fatalf("BIP one-way = %.2f µs, want ~9-13 µs", float64(warm)/1000)
	}
}

func TestNoErrorCorrection(t *testing.T) {
	c, a, b := setup(t)
	c.Install(fabric.Schedule{Rules: []fabric.Rule{{Every: 1, Do: fabric.Corrupt}}})
	delivered := false
	c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(64)
		a.Register(p, va, 64)
		a.Process().Space.Write(va, []byte("doomed"))
		a.Send(p, b.Addr(), ulc.SystemChannel, va, 6, 0)
	})
	c.Env.Go("b", func(p *sim.Proc) {
		np, _ := c.Nodes[b.Addr().Node].NIC.LookupPort(b.Addr().Port)
		if _, ok := np.RecvEvQ.RecvTimeout(p, 10*sim.Millisecond); ok {
			delivered = true
		}
	})
	c.Env.RunUntil(sim.Second)
	if delivered {
		t.Fatal("BIP delivered a corrupted packet; it has no error correction, the CRC drop must be final")
	}
	if st := c.Nodes[0].NIC.Stats(); st.Retransmits != 0 {
		t.Fatalf("BIP retransmitted %d times; it must not", st.Retransmits)
	}
}

func TestBandwidthBelowBCL(t *testing.T) {
	c, a, b := setup(t)
	const n = 128 * 1024
	const msgs = 6
	payload := make([]byte, n)
	c.Env.Rand().Fill(payload)
	var start, end sim.Time
	c.Env.Go("b", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			va := b.Process().Space.Alloc(n)
			b.Register(p, va, n)
			if err := b.PostRecv(p, i+1, va, n); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < msgs; i++ {
			b.WaitRecv(p)
		}
		end = p.Now()
	})
	c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(n)
		a.Register(p, va, n)
		a.Process().Space.Write(va, payload)
		p.Sleep(500 * sim.Microsecond)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			a.Send(p, b.Addr(), i+1, va, n, 0)
		}
		for i := 0; i < msgs; i++ {
			a.WaitSend(p)
		}
	})
	c.Env.RunUntil(5 * sim.Second)
	if end == 0 {
		t.Fatal("stream did not finish")
	}
	mbps := float64(msgs*n) / (float64(end-start) / float64(sim.Second)) / 1e6
	// Real BIP peaked around 126 MB/s — below BCL's 146.
	if mbps < 110 || mbps > 140 {
		t.Fatalf("BIP bandwidth = %.1f MB/s, want ~120-135", mbps)
	}
}
