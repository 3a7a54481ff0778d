package pvm

import (
	"bytes"
	"testing"

	"bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/eadi"
	"bcl/internal/sim"
)

func vm(t *testing.T, nodes int, slots []int) (*cluster.Cluster, []*Task) {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: nodes, NIC: bcl.DefaultNICConfig()})
	ports, err := bcl.NewSystem(c).Boot(slots, bcl.Options{SystemBuffers: 64, SystemBufSize: eadi.EagerLimit}, 50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]*Task, len(slots))
	for i, dev := range eadi.Job(ports) {
		tasks[i] = NewTask(dev)
	}
	return c, tasks
}

func TestPackUnpackRoundTrip(t *testing.T) {
	c, tasks := vm(t, 2, []int{0, 1})
	a, b := tasks[0], tasks[1]
	var gotI int64
	var gotF float64
	var gotS string
	var gotB []byte
	var src, tag int
	c.Env.Go("a", func(p *sim.Proc) {
		buf := a.InitSend(DataDefault)
		buf.PackInt64(-42).PackFloat64(3.25).PackString("dawning").PackBytes([]byte{9, 8, 7})
		if err := a.Send(p, Tid(1), 11); err != nil {
			t.Error(err)
		}
	})
	c.Env.Go("b", func(p *sim.Proc) {
		m, err := b.Recv(p, AnyTid, 11)
		if err != nil {
			t.Error(err)
			return
		}
		src, tag = m.Src, m.Tag
		gotI, _ = m.UnpackInt64()
		gotF, _ = m.UnpackFloat64()
		gotS, _ = m.UnpackString()
		gotB, _ = m.UnpackBytes()
	})
	c.Env.RunUntil(sim.Second)
	if gotI != -42 || gotF != 3.25 || gotS != "dawning" || !bytes.Equal(gotB, []byte{9, 8, 7}) {
		t.Fatalf("unpacked %d %v %q %v", gotI, gotF, gotS, gotB)
	}
	if src != Tid(0) || tag != 11 {
		t.Fatalf("meta src=%d tag=%d", src, tag)
	}
}

func TestUnpackUnderflow(t *testing.T) {
	b := &Buffer{enc: DataRaw}
	b.PackInt64(1)
	if _, err := b.UnpackInt64(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.UnpackInt64(); err != ErrUnderflow {
		t.Fatalf("err = %v, want ErrUnderflow", err)
	}
}

func TestInPlaceLargeTransfer(t *testing.T) {
	c, tasks := vm(t, 2, []int{0, 1})
	a, b := tasks[0], tasks[1]
	const n = 96 * 1024
	payload := make([]byte, n)
	c.Env.Rand().Fill(payload)
	var got []byte
	c.Env.Go("a", func(p *sim.Proc) {
		va := a.space().Alloc(n)
		a.space().Write(va, payload)
		a.InitSend(DataInPlace)
		if err := a.SetInPlace(va, n); err != nil {
			t.Error(err)
		}
		if err := a.Send(p, Tid(1), 3); err != nil {
			t.Error(err)
		}
	})
	c.Env.Go("b", func(p *sim.Proc) {
		va := b.space().Alloc(n)
		st, err := b.RecvInto(p, Tid(0), 3, va, n)
		if err != nil || st.Len != n {
			t.Errorf("recv: %v %+v", err, st)
			return
		}
		got, _ = b.space().Read(va, n)
	})
	c.Env.RunUntil(5 * sim.Second)
	if !bytes.Equal(got, payload) {
		t.Fatal("in-place transfer corrupted")
	}
}

func TestMcastAndBarrier(t *testing.T) {
	c, tasks := vm(t, 2, []int{0, 1, 0, 1})
	var exits [4]sim.Time
	received := make([]string, 4)
	for i := range tasks {
		r := i
		c.Env.Go("task", func(p *sim.Proc) {
			tk := tasks[r]
			if r == 0 {
				tk.InitSend(DataDefault).PackString("fan-out")
				if err := tk.Mcast(p, []int{Tid(1), Tid(2), Tid(3)}, 5); err != nil {
					t.Error(err)
				}
			} else {
				m, err := tk.Recv(p, Tid(0), 5)
				if err != nil {
					t.Error(err)
					return
				}
				received[r], _ = m.UnpackString()
			}
			if err := tk.Barrier(p); err != nil {
				t.Error(err)
			}
			exits[r] = p.Now()
		})
	}
	c.Env.RunUntil(5 * sim.Second)
	for r := 1; r < 4; r++ {
		if received[r] != "fan-out" {
			t.Fatalf("task %d received %q", r, received[r])
		}
	}
	for r, e := range exits {
		if e == 0 {
			t.Fatalf("task %d stuck in barrier", r)
		}
	}
}

func TestLatencyCalibration(t *testing.T) {
	// Paper Table 3: PVM over BCL 22.4 µs inter-node, 6.5 µs intra.
	measure := func(slots []int, nodes int) sim.Time {
		c, tasks := vm(t, nodes, slots)
		const iters = 8
		var rtt sim.Time
		c.Env.Go("t0", func(p *sim.Proc) {
			ping := func() {
				tasks[0].InitSend(DataRaw).PackInt64(1)
				tasks[0].Send(p, Tid(1), 0)
				tasks[0].Recv(p, Tid(1), 0)
			}
			ping()
			start := p.Now()
			for i := 0; i < iters; i++ {
				ping()
			}
			rtt = (p.Now() - start) / iters
		})
		c.Env.Go("t1", func(p *sim.Proc) {
			for i := 0; i < iters+1; i++ {
				tasks[1].Recv(p, Tid(0), 0)
				tasks[1].InitSend(DataRaw).PackInt64(1)
				tasks[1].Send(p, Tid(0), 0)
			}
		})
		c.Env.RunUntil(10 * sim.Second)
		return rtt / 2
	}
	inter := measure([]int{0, 1}, 2)
	intra := measure([]int{0, 0}, 1)
	if inter < 19*sim.Microsecond || inter > 30*sim.Microsecond {
		t.Errorf("PVM inter-node latency = %.2f µs, want ~22.4", float64(inter)/1000)
	}
	if intra < 5*sim.Microsecond || intra > 10*sim.Microsecond {
		t.Errorf("PVM intra-node latency = %.2f µs, want ~6.5", float64(intra)/1000)
	}
	if intra >= inter {
		t.Error("intra not faster than inter")
	}
}
