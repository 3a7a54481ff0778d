package eadi

import (
	"bytes"
	"testing"

	"bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/mem"
	"bcl/internal/sim"
)

// world builds one EADI device per slot (slot value = node index) on a
// cluster seeded with seed.
func world(t *testing.T, seed uint64, nodes int, slots []int) (*cluster.Cluster, []*Device) {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: nodes, Seed: seed, NIC: bcl.DefaultNICConfig()})
	ports, err := bcl.NewSystem(c).Boot(slots, bcl.Options{SystemBuffers: 64, SystemBufSize: EagerLimit}, 20*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return c, Job(ports)
}

func alloc(d *Device, data []byte) mem.VAddr {
	va := d.Port().Process().Space.Alloc(len(data) + 1)
	d.Port().Process().Space.Write(va, data)
	return va
}

func TestEagerMatchByTag(t *testing.T) {
	c, devs := world(t, 1, 2, []int{0, 1})
	a, b := devs[0], devs[1]
	c.Env.Go("a", func(p *sim.Proc) {
		a.Send(p, 1, 0, 7, alloc(a, []byte("seven")), 5)
		a.Send(p, 1, 0, 9, alloc(a, []byte("nine!")), 5)
	})
	var first, second Status
	var d1, d2 []byte
	c.Env.Go("b", func(p *sim.Proc) {
		buf := b.Port().Process().Space.Alloc(64)
		// Receive tag 9 first: tag 7 must wait on the unexpected queue.
		var err error
		second, err = b.Recv(p, 0, 0, 9, buf, 64)
		if err != nil {
			t.Error(err)
		}
		d2, _ = b.Port().Process().Space.Read(buf, second.Len)
		first, err = b.Recv(p, AnySource, 0, 7, buf, 64)
		if err != nil {
			t.Error(err)
		}
		d1, _ = b.Port().Process().Space.Read(buf, first.Len)
	})
	c.Env.RunUntil(100 * sim.Millisecond)
	if string(d2) != "nine!" || second.Tag != 9 {
		t.Fatalf("tag-9 recv got %q %+v", d2, second)
	}
	if string(d1) != "seven" || first.Source != 0 {
		t.Fatalf("tag-7 recv got %q %+v", d1, first)
	}
	if b.UnexpectedMsgs == 0 {
		t.Fatal("out-of-order receive did not use the unexpected queue")
	}
}

func TestRendezvousLargeInterNode(t *testing.T) {
	c, devs := world(t, 1, 2, []int{0, 1})
	a, b := devs[0], devs[1]
	const n = 100 * 1024
	payload := make([]byte, n)
	c.Env.Rand().Fill(payload)
	var got []byte
	c.Env.Go("b", func(p *sim.Proc) {
		buf := b.Port().Process().Space.Alloc(n)
		st, err := b.Recv(p, 0, 0, 5, buf, n)
		if err != nil || st.Len != n {
			t.Errorf("recv: %v %+v", err, st)
			return
		}
		got, _ = b.Port().Process().Space.Read(buf, n)
	})
	c.Env.Go("a", func(p *sim.Proc) {
		if err := a.Send(p, 1, 0, 5, alloc(a, payload), n); err != nil {
			t.Error(err)
		}
	})
	c.Env.RunUntil(sim.Second)
	if !bytes.Equal(got, payload) {
		t.Fatal("rendezvous payload corrupted")
	}
	if a.RndvSent != 1 || b.RndvRecv != 1 {
		t.Fatalf("rndv counters = %d/%d", a.RndvSent, b.RndvRecv)
	}
}

func TestRendezvousIntraNodeUsesShm(t *testing.T) {
	c, devs := world(t, 1, 1, []int{0, 0})
	a, b := devs[0], devs[1]
	const n = 64 * 1024
	payload := make([]byte, n)
	c.Env.Rand().Fill(payload)
	var got []byte
	c.Env.Go("b", func(p *sim.Proc) {
		buf := b.Port().Process().Space.Alloc(n)
		if _, err := b.Recv(p, 0, 0, 1, buf, n); err != nil {
			t.Error(err)
			return
		}
		got, _ = b.Port().Process().Space.Read(buf, n)
	})
	c.Env.Go("a", func(p *sim.Proc) {
		if err := a.Send(p, 1, 0, 1, alloc(a, payload), n); err != nil {
			t.Error(err)
		}
	})
	c.Env.RunUntil(sim.Second)
	if !bytes.Equal(got, payload) {
		t.Fatal("intra-node rendezvous corrupted")
	}
	// The NIC saw no data traffic: the shm path carried it.
	if st := c.Nodes[0].NIC.Stats(); st.BytesSent > 1024 {
		t.Fatalf("NIC carried %d bytes for an intra-node transfer", st.BytesSent)
	}
}

func TestUnexpectedRendezvous(t *testing.T) {
	// RTS arrives before the receive is posted.
	c, devs := world(t, 1, 2, []int{0, 1})
	a, b := devs[0], devs[1]
	const n = 32 * 1024
	payload := make([]byte, n)
	c.Env.Rand().Fill(payload)
	var got []byte
	c.Env.Go("a", func(p *sim.Proc) {
		a.Send(p, 1, 0, 3, alloc(a, payload), n)
	})
	c.Env.Go("b", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond) // let the RTS land first
		// Drive progress before posting: the RTS must park on the
		// unexpected queue.
		for {
			if _, ok := b.Probe(p, AnySource, 0, AnyTag); ok {
				break
			}
			p.Sleep(10 * sim.Microsecond)
		}
		if b.UnexpectedMsgs == 0 {
			t.Error("RTS was not queued as unexpected")
		}
		buf := b.Port().Process().Space.Alloc(n)
		if _, err := b.Recv(p, 0, 0, 3, buf, n); err != nil {
			t.Error(err)
			return
		}
		got, _ = b.Port().Process().Space.Read(buf, n)
	})
	c.Env.RunUntil(sim.Second)
	if !bytes.Equal(got, payload) {
		t.Fatal("late-posted rendezvous corrupted")
	}
}

func TestTruncationError(t *testing.T) {
	c, devs := world(t, 1, 2, []int{0, 1})
	a, b := devs[0], devs[1]
	var err error
	c.Env.Go("a", func(p *sim.Proc) {
		a.Send(p, 1, 0, 1, alloc(a, make([]byte, 2000)), 2000)
	})
	c.Env.Go("b", func(p *sim.Proc) {
		buf := b.Port().Process().Space.Alloc(100)
		p.Sleep(200 * sim.Microsecond)
		_, err = b.Recv(p, 0, 0, 1, buf, 100)
	})
	c.Env.RunUntil(sim.Second)
	if err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestProbe(t *testing.T) {
	c, devs := world(t, 1, 2, []int{0, 1})
	a, b := devs[0], devs[1]
	var before, after bool
	var st Status
	c.Env.Go("b", func(p *sim.Proc) {
		_, before = b.Probe(p, AnySource, 0, AnyTag)
		p.Sleep(300 * sim.Microsecond)
		st, after = b.Probe(p, AnySource, 0, AnyTag)
	})
	c.Env.Go("a", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		a.Send(p, 1, 0, 12, alloc(a, []byte("probe me")), 8)
	})
	c.Env.RunUntil(100 * sim.Millisecond)
	if before {
		t.Fatal("probe matched before any send")
	}
	if !after || st.Tag != 12 || st.Len != 8 {
		t.Fatalf("probe after send = %v %+v", after, st)
	}
}

func TestManyMessagesStressPoolRecycling(t *testing.T) {
	// More eager messages than pool buffers: the batched returns must
	// keep the pool alive.
	c, devs := world(t, 1, 2, []int{0, 1})
	a, b := devs[0], devs[1]
	const msgs = 300
	sum := 0
	c.Env.Go("a", func(p *sim.Proc) {
		va := alloc(a, make([]byte, 64))
		for i := 0; i < msgs; i++ {
			if err := a.Send(p, 1, 0, i, va, 64); err != nil {
				t.Error(err)
				return
			}
		}
	})
	c.Env.Go("b", func(p *sim.Proc) {
		buf := b.Port().Process().Space.Alloc(64)
		for i := 0; i < msgs; i++ {
			st, err := b.Recv(p, 0, 0, i, buf, 64)
			if err != nil {
				t.Error(err)
				return
			}
			sum += st.Len
		}
	})
	c.Env.RunUntil(5 * sim.Second)
	if sum != msgs*64 {
		t.Fatalf("received %d bytes, want %d", sum, msgs*64)
	}
}
