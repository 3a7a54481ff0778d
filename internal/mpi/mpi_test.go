package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/eadi"
	"bcl/internal/mem"
	"bcl/internal/sim"
)

// job builds an MPI world with one rank per slot (slot = node index).
func job(t *testing.T, nodes int, slots []int) (*cluster.Cluster, []*Comm) {
	t.Helper()
	return jobOn(t, cluster.Config{Nodes: nodes, NIC: bcl.DefaultNICConfig()}, slots)
}

// jobOn builds an MPI world on a cluster built from cfg, one rank per
// slot (slot = node index).
func jobOn(t *testing.T, cfg cluster.Config, slots []int) (*cluster.Cluster, []*Comm) {
	t.Helper()
	c := cluster.New(cfg)
	ports, err := bcl.NewSystem(c).Boot(slots, bcl.Options{SystemBuffers: 64, SystemBufSize: eadi.EagerLimit}, 50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*Comm, len(slots))
	for i, dev := range eadi.Job(ports) {
		comms[i] = World(dev)
	}
	return c, comms
}

func writeBytes(c *Comm, data []byte) mem.VAddr {
	va := c.space().Alloc(len(data) + 1)
	c.space().Write(va, data)
	return va
}

func TestPointToPoint(t *testing.T) {
	c, comms := job(t, 2, []int{0, 1})
	payload := []byte("mpi over eadi over bcl")
	var got []byte
	var st Status
	c.Env.Go("r0", func(p *sim.Proc) {
		if err := comms[0].Send(p, writeBytes(comms[0], payload), len(payload), 1, 5); err != nil {
			t.Error(err)
		}
	})
	c.Env.Go("r1", func(p *sim.Proc) {
		buf := comms[1].space().Alloc(64)
		var err error
		st, err = comms[1].Recv(p, buf, 64, AnySource, AnyTag)
		if err != nil {
			t.Error(err)
			return
		}
		got, _ = comms[1].space().Read(buf, st.Len)
	})
	c.Env.RunUntil(sim.Second)
	if !bytes.Equal(got, payload) || st.Source != 0 || st.Tag != 5 {
		t.Fatalf("got %q, status %+v", got, st)
	}
}

func TestLatencyCalibration(t *testing.T) {
	// Paper Table 3: MPI over BCL minimal latency 23.7 µs inter-node,
	// 6.3 µs intra-node.
	measure := func(slots []int, nodes int) sim.Time {
		c, comms := job(t, nodes, slots)
		const iters = 8
		var rtt sim.Time
		c.Env.Go("r0", func(p *sim.Proc) {
			s := comms[0].space().Alloc(8)
			r := comms[0].space().Alloc(8)
			// Warm up.
			comms[0].Send(p, s, 1, 1, 0)
			comms[0].Recv(p, r, 8, 1, 0)
			start := p.Now()
			for i := 0; i < iters; i++ {
				comms[0].Send(p, s, 1, 1, 0)
				comms[0].Recv(p, r, 8, 1, 0)
			}
			rtt = (p.Now() - start) / iters
		})
		c.Env.Go("r1", func(p *sim.Proc) {
			s := comms[1].space().Alloc(8)
			r := comms[1].space().Alloc(8)
			for i := 0; i < iters+1; i++ {
				comms[1].Recv(p, r, 8, 0, 0)
				comms[1].Send(p, s, 1, 0, 0)
			}
		})
		c.Env.RunUntil(10 * sim.Second)
		return rtt / 2
	}
	inter := measure([]int{0, 1}, 2)
	intra := measure([]int{0, 0}, 1)
	if inter < 20*sim.Microsecond || inter > 28*sim.Microsecond {
		t.Errorf("MPI inter-node latency = %.2f µs, want ~23.7", float64(inter)/1000)
	}
	if intra < 5*sim.Microsecond || intra > 8500 {
		t.Errorf("MPI intra-node latency = %.2f µs, want ~6.3", float64(intra)/1000)
	}
	if intra >= inter {
		t.Error("intra-node not faster than inter-node")
	}
}

func TestBandwidthCalibration(t *testing.T) {
	// Paper Table 3: MPI over BCL bandwidth 131 MB/s inter-node.
	c, comms := job(t, 2, []int{0, 1})
	const n = 128 * 1024
	const msgs = 6
	payload := make([]byte, n)
	c.Env.Rand().Fill(payload)
	var start, end sim.Time
	c.Env.Go("r0", func(p *sim.Proc) {
		va := writeBytes(comms[0], payload)
		// Warm up one transfer.
		comms[0].Send(p, va, n, 1, 0)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			comms[0].Send(p, va, n, 1, 0)
		}
	})
	var got []byte
	c.Env.Go("r1", func(p *sim.Proc) {
		buf := comms[1].space().Alloc(n)
		comms[1].Recv(p, buf, n, 0, 0)
		for i := 0; i < msgs; i++ {
			comms[1].Recv(p, buf, n, 0, 0)
		}
		end = p.Now()
		got, _ = comms[1].space().Read(buf, n)
	})
	c.Env.RunUntil(30 * sim.Second)
	if end == 0 {
		t.Fatal("stream did not finish")
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	mbps := float64(msgs*n) / (float64(end-start) / float64(sim.Second)) / 1e6
	if mbps < 120 || mbps > 142 {
		t.Fatalf("MPI inter-node bandwidth = %.1f MB/s, want ~131", mbps)
	}
}

func TestBarrier(t *testing.T) {
	c, comms := job(t, 3, []int{0, 1, 2})
	var exits [3]sim.Time
	var lastEnter sim.Time
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			p.Sleep(sim.Time(r) * 200 * sim.Microsecond) // stagger entry
			if p.Now() > lastEnter {
				lastEnter = p.Now()
			}
			if err := comms[r].Barrier(p); err != nil {
				t.Error(err)
			}
			exits[r] = p.Now()
		})
	}
	c.Env.RunUntil(sim.Second)
	for r, e := range exits {
		if e == 0 {
			t.Fatalf("rank %d never left the barrier", r)
		}
		if e < lastEnter {
			t.Fatalf("rank %d left the barrier at %d before the last entry at %d", r, e, lastEnter)
		}
	}
}

func TestBcast(t *testing.T) {
	c, comms := job(t, 2, []int{0, 1, 0, 1, 0}) // 5 ranks across 2 nodes
	payload := make([]byte, 10000)              // rendezvous-sized
	c.Env.Rand().Fill(payload)
	const root = 2
	got := make([][]byte, len(comms))
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			buf := comms[r].space().Alloc(len(payload))
			if r == root {
				comms[r].space().Write(buf, payload)
			}
			if err := comms[r].Bcast(p, buf, len(payload), root); err != nil {
				t.Error(err)
				return
			}
			got[r], _ = comms[r].space().Read(buf, len(payload))
		})
	}
	c.Env.RunUntil(5 * sim.Second)
	for r := range comms {
		if !bytes.Equal(got[r], payload) {
			t.Fatalf("rank %d bcast payload wrong", r)
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	c, comms := job(t, 2, []int{0, 1, 0, 1})
	const count = 64
	results := make([][]byte, len(comms))
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			sp := comms[r].space()
			send := sp.Alloc(count * 8)
			recv := sp.Alloc(count * 8)
			buf := make([]byte, count*8)
			for e := 0; e < count; e++ {
				binary.LittleEndian.PutUint64(buf[e*8:], math.Float64bits(float64(r+1)*float64(e)))
			}
			sp.Write(send, buf)
			if err := comms[r].Allreduce(p, send, recv, count, Float64, Sum); err != nil {
				t.Error(err)
				return
			}
			results[r], _ = sp.Read(recv, count*8)
		})
	}
	c.Env.RunUntil(5 * sim.Second)
	for r := range comms {
		if results[r] == nil {
			t.Fatalf("rank %d missing allreduce result", r)
		}
		for e := 0; e < count; e++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(results[r][e*8:]))
			want := float64(e) * (1 + 2 + 3 + 4)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("rank %d elem %d = %v, want %v", r, e, got, want)
			}
		}
	}
}

func TestGatherScatterAllgather(t *testing.T) {
	c, comms := job(t, 2, []int{0, 1, 0, 1})
	n := 256
	size := len(comms)
	var gathered []byte
	scattered := make([][]byte, size)
	allgathered := make([][]byte, size)
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			sp := comms[r].space()
			mine := make([]byte, n)
			for j := range mine {
				mine[j] = byte(r*10 + j%10)
			}
			sendVA := sp.Alloc(n)
			sp.Write(sendVA, mine)
			recvVA := sp.Alloc(n * size)
			if err := comms[r].Gather(p, sendVA, n, recvVA, 0); err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				gathered, _ = sp.Read(recvVA, n*size)
				// Scatter it back out.
			}
			out := sp.Alloc(n)
			if err := comms[r].Scatter(p, recvVA, n, out, 0); err != nil {
				t.Error(err)
				return
			}
			scattered[r], _ = sp.Read(out, n)
			agBuf := sp.Alloc(n * size)
			if err := comms[r].Allgather(p, sendVA, n, agBuf); err != nil {
				t.Error(err)
				return
			}
			allgathered[r], _ = sp.Read(agBuf, n*size)
		})
	}
	c.Env.RunUntil(10 * sim.Second)
	if gathered == nil {
		t.Fatal("gather did not complete")
	}
	for r := 0; r < size; r++ {
		blk := gathered[r*n : (r+1)*n]
		if blk[0] != byte(r*10) {
			t.Fatalf("gather block %d starts with %d", r, blk[0])
		}
		if scattered[r] == nil || scattered[r][0] != byte(r*10) {
			t.Fatalf("scatter result wrong at rank %d", r)
		}
		for q := 0; q < size; q++ {
			if allgathered[r] == nil || allgathered[r][q*n] != byte(q*10) {
				t.Fatalf("allgather rank %d block %d wrong", r, q)
			}
		}
	}
}

func TestContextsIsolateTraffic(t *testing.T) {
	c, comms := job(t, 2, []int{0, 1})
	worldA := comms[0]
	worldB := comms[1]
	dupA := worldA.Dup(7)
	dupB := worldB.Dup(7)
	var gotWorld, gotDup []byte
	c.Env.Go("r0", func(p *sim.Proc) {
		// Same tag on two contexts.
		worldA.Send(p, writeBytes(worldA, []byte("world")), 5, 1, 3)
		dupA.Send(p, writeBytes(dupA, []byte("dupli")), 5, 1, 3)
	})
	c.Env.Go("r1", func(p *sim.Proc) {
		buf := worldB.space().Alloc(16)
		// Receive on the dup context FIRST: must match the dup message
		// even though the world message arrived earlier.
		st, err := dupB.Recv(p, buf, 16, 0, 3)
		if err != nil {
			t.Error(err)
			return
		}
		gotDup, _ = worldB.space().Read(buf, st.Len)
		st, err = worldB.Recv(p, buf, 16, 0, 3)
		if err != nil {
			t.Error(err)
			return
		}
		gotWorld, _ = worldB.space().Read(buf, st.Len)
	})
	c.Env.RunUntil(sim.Second)
	if string(gotDup) != "dupli" || string(gotWorld) != "world" {
		t.Fatalf("context matching broke: dup=%q world=%q", gotDup, gotWorld)
	}
}
