package bcl

// Tests of the public API surface: everything a downstream user can
// reach without touching internal packages.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"bcl/internal/hw"
	"bcl/internal/trace"
)

func TestMachinePingPublicAPI(t *testing.T) {
	m := NewMachine(MachineConfig{Nodes: 2})
	var got []byte
	var at Time
	m.Start(2, []int{0, 1}, func(ctx *Ctx) {
		buf := ctx.Alloc(64)
		if ctx.Rank == 0 {
			ctx.Write(buf, []byte("public api"))
			if _, err := ctx.Port.Send(ctx.P, ctx.Peers[1], SystemChannel, buf, 10, 7); err != nil {
				t.Error(err)
			}
			if ev := ctx.Port.WaitSend(ctx.P); ev.Type != EvSendDone {
				t.Errorf("send event %v", ev.Type)
			}
		} else {
			ev := ctx.Port.WaitRecv(ctx.P)
			if ev.Type != EvRecvDone || ev.Tag != 7 {
				t.Errorf("recv event %+v", ev)
			}
			got, _ = ctx.Read(ev.VA, ev.Len)
			at = ctx.P.Now()
		}
	})
	m.Run()
	if !bytes.Equal(got, []byte("public api")) {
		t.Fatalf("got %q", got)
	}
	if at <= 0 || m.Now() < at {
		t.Fatal("virtual clock inconsistent")
	}
}

// TestMachineOverMesh runs the public API over the two fabrics other
// than Myrinet: a corner-to-corner BCL message, then verified MPI
// collectives and a verified MPI Sendrecv ring, one rank per node.
func TestMachineOverMesh(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MachineConfig
	}{
		{"Mesh", MachineConfig{Nodes: 9, Fabric: Mesh}},
		{"Hetero", MachineConfig{Nodes: 8, Fabric: Hetero}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(tc.cfg)
			ok := false
			m.Start(2, []int{0, tc.cfg.Nodes - 1}, func(ctx *Ctx) {
				buf := ctx.Alloc(32)
				if ctx.Rank == 0 {
					ctx.Write(buf, []byte("corner to corner"))
					ctx.Port.Send(ctx.P, ctx.Peers[1], SystemChannel, buf, 16, 0)
				} else {
					ev := ctx.Port.WaitRecv(ctx.P)
					data, _ := ctx.Read(ev.VA, ev.Len)
					ok = string(data) == "corner to corner"
				}
			})
			m.Run()
			if !ok {
				t.Fatal("corner-to-corner delivery via public API failed")
			}
			t.Run("Collectives", func(t *testing.T) {
				runCollectives(t, NewMachine(tc.cfg), tc.cfg.Nodes, 32)
			})
			t.Run("Ring", func(t *testing.T) {
				runRing(t, NewMachine(tc.cfg), tc.cfg.Nodes, 8)
			})
		})
	}
}

// TestMPIOverMyrinet runs the same verified MPI bodies over Myrinet
// with two ranks per node, so every collective and ring mixes
// intra-node and inter-node messages.
func TestMPIOverMyrinet(t *testing.T) {
	t.Run("Collectives", func(t *testing.T) {
		runCollectives(t, NewMachine(MachineConfig{Nodes: 4}), 8, 64)
	})
	t.Run("Ring", func(t *testing.T) {
		runRing(t, NewMachine(MachineConfig{Nodes: 3}), 6, 16)
	})
}

// roundRobin places rank i on node i mod the node count.
func roundRobin(m *Machine, ranks int) []int {
	placement := make([]int, ranks)
	for i := range placement {
		placement[i] = i % m.Nodes()
	}
	return placement
}

// runCollectives has every rank contribute rank+1 in each of n doubles
// to an Allreduce, then Bcast the result from a rotating root, twice,
// and checks every element on every rank.
func runCollectives(t *testing.T, m *Machine, ranks, n int) {
	t.Helper()
	const iters = 2
	want := float64(ranks) * float64(ranks+1) / 2
	done := 0
	m.StartMPI(ranks, roundRobin(m, ranks), func(p *Proc, comm *MPIComm) {
		sp := comm.Device().Port().Process().Space
		send := sp.Alloc(n * 8)
		recv := sp.Alloc(n * 8)
		buf := make([]byte, n*8)
		for e := 0; e < n; e++ {
			binary.LittleEndian.PutUint64(buf[e*8:], math.Float64bits(float64(comm.Rank()+1)))
		}
		sp.Write(send, buf)
		for it := 0; it < iters; it++ {
			if err := comm.Allreduce(p, send, recv, n, MPIFloat64, MPISum); err != nil {
				t.Error(err)
				return
			}
			if err := comm.Bcast(p, recv, n*8, it%comm.Size()); err != nil {
				t.Error(err)
				return
			}
		}
		out, _ := sp.Read(recv, n*8)
		for e := 0; e < n; e++ {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(out[e*8:])); v != want {
				t.Errorf("rank %d element %d = %v, want %v", comm.Rank(), e, v, want)
				return
			}
		}
		done++
	})
	m.Run()
	if done != ranks {
		t.Fatalf("%d of %d ranks finished the collectives", done, ranks)
	}
}

// runRing passes msgs 1 KB payloads around a ring of the ranks with
// Sendrecv, and checks each received byte on every rank.
func runRing(t *testing.T, m *Machine, ranks, msgs int) {
	t.Helper()
	const size = 1024
	done := 0
	m.StartMPI(ranks, roundRobin(m, ranks), func(p *Proc, comm *MPIComm) {
		rank := comm.Rank()
		right, left := (rank+1)%ranks, (rank-1+ranks)%ranks
		sp := comm.Device().Port().Process().Space
		sbuf := sp.Alloc(2 * size)
		rbuf := sp.Alloc(2 * size)
		payload := make([]byte, size)
		for i := 0; i < msgs; i++ {
			for j := range payload {
				payload[j] = byte(rank + i + j)
			}
			sp.Write(sbuf, payload)
			if _, err := comm.Sendrecv(p, sbuf, size, right, i, rbuf, 2*size, left, i); err != nil {
				t.Error(err)
				return
			}
			got, _ := sp.Read(rbuf, size)
			for j := range got {
				if got[j] != byte(left+i+j) {
					t.Errorf("rank %d message %d byte %d = %d, want %d", rank, i, j, got[j], byte(left+i+j))
					return
				}
			}
		}
		done++
	})
	m.Run()
	if done != ranks {
		t.Fatalf("%d of %d ranks finished the ring", done, ranks)
	}
}

func TestStartMPIAllreduce(t *testing.T) {
	m := NewMachine(MachineConfig{Nodes: 3})
	sums := make([]int64, 6)
	m.StartMPI(6, []int{0, 1, 2, 0, 1, 2}, func(p *Proc, comm *MPIComm) {
		sp := comm.Device().Port().Process().Space
		send := sp.Alloc(8)
		recv := sp.Alloc(8)
		buf := make([]byte, 8)
		v := int64(comm.Rank() + 1)
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		sp.Write(send, buf)
		if err := comm.Allreduce(p, send, recv, 1, MPIInt64, MPISum); err != nil {
			t.Error(err)
			return
		}
		out, _ := sp.Read(recv, 8)
		var r int64
		for i := 0; i < 8; i++ {
			r |= int64(out[i]) << (8 * i)
		}
		sums[comm.Rank()] = r
	})
	m.Run()
	for r, s := range sums {
		if s != 21 { // 1+2+...+6
			t.Fatalf("rank %d allreduce = %d, want 21", r, s)
		}
	}
}

func TestStartPVMRoundTrip(t *testing.T) {
	m := NewMachine(MachineConfig{Nodes: 2})
	var echoed string
	m.StartPVM(2, []int{0, 1}, func(p *Proc, task *PVMTask) {
		if task.MyTid() == PVMTid(0) {
			task.InitSend(PVMDataDefault).PackString("pvm says hi")
			if err := task.Send(p, PVMTid(1), 3); err != nil {
				t.Error(err)
			}
			msg, err := task.Recv(p, PVMTid(1), 4)
			if err != nil {
				t.Error(err)
				return
			}
			echoed, _ = msg.UnpackString()
		} else {
			msg, err := task.Recv(p, PVMAnyTid, PVMAnyTag)
			if err != nil {
				t.Error(err)
				return
			}
			s, _ := msg.UnpackString()
			task.InitSend(PVMDataDefault).PackString(s + "!")
			task.Send(p, msg.Src, 4)
		}
	})
	m.Run()
	if echoed != "pvm says hi!" {
		t.Fatalf("echo = %q", echoed)
	}
}

func TestTracerViaPublicAPI(t *testing.T) {
	m := NewMachine(MachineConfig{Nodes: 2})
	tr := trace.New()
	m.TraceAll(tr)
	m.Start(2, []int{0, 1}, func(ctx *Ctx) {
		ctx.Port.SetTracer(tr)
		buf := ctx.Alloc(16)
		if ctx.Rank == 0 {
			ctx.Port.Send(ctx.P, ctx.Peers[1], SystemChannel, buf, 8, 0)
			ctx.Port.WaitSend(ctx.P)
		} else {
			ctx.Port.WaitRecv(ctx.P)
		}
	})
	m.Run()
	order, _ := tr.Totals()
	if len(order) < 5 {
		t.Fatalf("tracer captured only %d stages: %v", len(order), order)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		m := NewMachine(MachineConfig{Nodes: 2, Seed: 42})
		var log string
		m.Start(2, []int{0, 1}, func(ctx *Ctx) {
			buf := ctx.Alloc(64)
			if ctx.Rank == 0 {
				for i := 0; i < 5; i++ {
					ctx.Port.Send(ctx.P, ctx.Peers[1], SystemChannel, buf, 32, uint64(i))
					ctx.Port.WaitSend(ctx.P)
				}
			} else {
				for i := 0; i < 5; i++ {
					ev := ctx.Port.WaitRecv(ctx.P)
					log += fmt.Sprintf("%d@%d;", ev.Tag, ctx.P.Now())
				}
			}
		})
		m.Run()
		return log
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged:\n%s\n%s", a, b)
	}
}

func TestProfileVariants(t *testing.T) {
	prof := hw.DAWNING3000()
	prof.LinkBandwidth *= 2
	m := NewMachine(MachineConfig{Nodes: 2, Profile: prof})
	if m.Node(0).Prof.LinkBandwidth != prof.LinkBandwidth {
		t.Fatal("custom profile not plumbed through")
	}
}

// TestMachineScale70 boots the full 70-node DAWNING-3000 through the
// public API and runs a verified collective across it (skipped with
// -short).
func TestMachineScale70(t *testing.T) {
	if testing.Short() {
		t.Skip("machine-scale test skipped in -short mode")
	}
	const nodes = 70
	m := NewMachine(MachineConfig{Nodes: nodes})
	placement := make([]int, nodes)
	for i := range placement {
		placement[i] = i
	}
	sums := make([]int64, nodes)
	m.StartMPI(nodes, placement, func(p *Proc, comm *MPIComm) {
		sp := comm.Device().Port().Process().Space
		send := sp.Alloc(8)
		recv := sp.Alloc(8)
		v := int64(comm.Rank() + 1)
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		sp.Write(send, b)
		if err := comm.Allreduce(p, send, recv, 1, MPIInt64, MPISum); err != nil {
			t.Error(err)
			return
		}
		out, _ := sp.Read(recv, 8)
		var r int64
		for i := 0; i < 8; i++ {
			r |= int64(out[i]) << (8 * i)
		}
		sums[comm.Rank()] = r
	})
	m.Run()
	want := int64(nodes) * (nodes + 1) / 2
	for r, s := range sums {
		if s != want {
			t.Fatalf("rank %d = %d, want %d", r, s, want)
		}
	}
}

func TestStartWithOptionsSmallPool(t *testing.T) {
	m := NewMachine(MachineConfig{Nodes: 2})
	delivered := 0
	m.StartWithOptions(2, []int{0, 1}, PortOptions{SystemBuffers: 2, SystemBufSize: 512}, func(ctx *Ctx) {
		buf := ctx.Alloc(600)
		switch ctx.Rank {
		case 0:
			// The third eager message must stall until the pool refills
			// (it never does here), so only two deliver.
			for i := 0; i < 3; i++ {
				ctx.Port.Send(ctx.P, ctx.Peers[1], SystemChannel, buf, 100, uint64(i))
				ctx.Port.WaitSend(ctx.P)
			}
		case 1:
			for {
				ev, ok := ctx.Port.TryRecv(ctx.P)
				if !ok {
					ctx.P.Sleep(100 * Microsecond)
					if ctx.P.Now() > 50*Millisecond {
						return
					}
					continue
				}
				_ = ev
				delivered++
			}
		}
	})
	m.Cluster.Env.RunUntil(m.Now() + 80*Millisecond)
	if delivered != 2 {
		t.Fatalf("delivered %d with a 2-buffer pool, want 2", delivered)
	}
}

// TestStartPanicsOnBadPlacement: every launcher rejects a placement
// that does not fit the job or the machine when it is called, before
// anything runs — not later, from inside Run.
func TestStartPanicsOnBadPlacement(t *testing.T) {
	starts := []struct {
		name  string
		start func(m *Machine, ranks int, place []int)
	}{
		{"Start", func(m *Machine, n int, place []int) { m.Start(n, place, func(*Ctx) {}) }},
		{"StartMPI", func(m *Machine, n int, place []int) { m.StartMPI(n, place, func(*Proc, *MPIComm) {}) }},
		{"StartPVM", func(m *Machine, n int, place []int) { m.StartPVM(n, place, func(*Proc, *PVMTask) {}) }},
	}
	bad := []struct {
		name  string
		ranks int
		place []int
	}{
		{"short", 3, []int{0}},
		{"out of range", 2, []int{0, 5}},
		{"negative", 2, []int{-1, 1}},
	}
	for _, st := range starts {
		for _, b := range bad {
			t.Run(st.name+"/"+b.name, func(t *testing.T) {
				m := NewMachine(MachineConfig{Nodes: 2})
				defer m.Cluster.Env.Close()
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s(%d, %v) accepted the placement", st.name, b.ranks, b.place)
						}
					}()
					st.start(m, b.ranks, b.place)
				}()
				if m.Run() != 0 {
					t.Fatal("a rejected job ran")
				}
			})
		}
	}
}
