package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/eadi"
	"bcl/internal/fabric"
	"bcl/internal/nic"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// collJob builds an n-rank world (one rank per node) with a NIC
// collective offload context attached to every communicator.
func collJob(t *testing.T, n int, nicCfg nic.Config) (*cluster.Cluster, []*Comm) {
	t.Helper()
	place := make([]int, n)
	for i := range place {
		place[i] = i
	}
	c, comms := jobOn(t, cluster.Config{Nodes: n, NIC: nicCfg}, place)
	// Register the offload context on every NIC before any collective
	// can inject: a packet arriving at an unregistered context is
	// dropped by the firmware.
	for i := range comms {
		r := i
		c.Env.Go("collreg", func(p *sim.Proc) {
			cc, err := eadi.NewCollContext(p, comms[r].Device(), 1, 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			comms[r].AttachColl(cc)
		})
	}
	c.Env.RunUntil(c.Env.Now() + 10*sim.Millisecond)
	for i := range comms {
		if comms[i].coll == nil {
			t.Fatal("collective context registration failed")
		}
	}
	return c, comms
}

func TestOffloadBarrier(t *testing.T) {
	const n = 8
	c, comms := collJob(t, n, bcl.DefaultNICConfig())
	before := c.Obs.Snapshot(c.Env.Now()).SumCounter("kernel", "traps")
	var exits [n]sim.Time
	var lastEnter sim.Time
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			p.Sleep(sim.Time(r) * 150 * sim.Microsecond) // stagger entry
			if p.Now() > lastEnter {
				lastEnter = p.Now()
			}
			if err := comms[r].Barrier(p); err != nil {
				t.Error(err)
			}
			exits[r] = p.Now()
		})
	}
	c.Env.RunUntil(c.Env.Now() + sim.Second)
	for r, e := range exits {
		if e == 0 {
			t.Fatalf("rank %d never left the barrier", r)
		}
		if e < lastEnter {
			t.Fatalf("rank %d left at %d before the last entry at %d", r, e, lastEnter)
		}
	}
	snap := c.Obs.Snapshot(c.Env.Now())
	// O(1) host traps per rank: one combine injection each, nothing else.
	if traps := snap.SumCounter("kernel", "traps") - before; traps != n {
		t.Fatalf("offloaded barrier took %d traps, want exactly %d (one per rank)", traps, n)
	}
	if snap.SumCounter("nic", "coll_combines") == 0 {
		t.Fatal("barrier did not use the NIC combine path")
	}
}

func TestOffloadBcastReduceAllreduce(t *testing.T) {
	const n = 5 // non-power-of-two tree
	c, comms := collJob(t, n, bcl.DefaultNICConfig())
	payload := make([]byte, 1000)
	c.Env.Rand().Fill(payload)
	const bcastRoot = 3
	bcastGot := make([][]byte, n)
	reduceGot := make([][]byte, n)
	allredGot := make([][]byte, n)
	fellback := make([][]byte, n)
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			sp := comms[r].space()
			buf := sp.Alloc(len(payload))
			if r == bcastRoot {
				sp.Write(buf, payload)
			}
			if err := comms[r].Bcast(p, buf, len(payload), bcastRoot); err != nil {
				t.Error(err)
				return
			}
			bcastGot[r], _ = sp.Read(buf, len(payload))

			const count = 16
			send := sp.Alloc(count * 8)
			recv := sp.Alloc(count * 8)
			b := make([]byte, count*8)
			for e := 0; e < count; e++ {
				binary.LittleEndian.PutUint64(b[e*8:], math.Float64bits(float64((r+1)*(e+1))))
			}
			sp.Write(send, b)
			// Offloaded: tree root is 0.
			if err := comms[r].Reduce(p, send, recv, count, Float64, Sum, 0); err != nil {
				t.Error(err)
				return
			}
			if r == 0 {
				reduceGot[r], _ = sp.Read(recv, count*8)
			}
			if err := comms[r].Allreduce(p, send, recv, count, Float64, Sum); err != nil {
				t.Error(err)
				return
			}
			allredGot[r], _ = sp.Read(recv, count*8)
			// Root 2 != tree root: must fall back to the host algorithm
			// and still be correct.
			if err := comms[r].Reduce(p, send, recv, count, Float64, Min, 2); err != nil {
				t.Error(err)
				return
			}
			if r == 2 {
				fellback[r], _ = sp.Read(recv, count*8)
			}
		})
	}
	c.Env.RunUntil(c.Env.Now() + 5*sim.Second)
	sumW := 1 + 2 + 3 + 4 + 5
	for r := 0; r < n; r++ {
		if !bytes.Equal(bcastGot[r], payload) {
			t.Fatalf("rank %d offloaded bcast payload wrong", r)
		}
		if allredGot[r] == nil {
			t.Fatalf("rank %d missing allreduce result", r)
		}
		for e := 0; e < 16; e++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(allredGot[r][e*8:]))
			if want := float64(sumW * (e + 1)); got != want {
				t.Fatalf("rank %d allreduce elem %d = %v, want %v", r, e, got, want)
			}
		}
	}
	for e := 0; e < 16; e++ {
		got := math.Float64frombits(binary.LittleEndian.Uint64(reduceGot[0][e*8:]))
		if want := float64(sumW * (e + 1)); got != want {
			t.Fatalf("reduce elem %d = %v, want %v", e, got, want)
		}
		got = math.Float64frombits(binary.LittleEndian.Uint64(fellback[2][e*8:]))
		if want := float64(e + 1); got != want {
			t.Fatalf("host-fallback min elem %d = %v, want %v", e, got, want)
		}
	}
	snap := c.Obs.Snapshot(c.Env.Now())
	if snap.SumCounter("nic", "coll_mcasts") == 0 || snap.SumCounter("nic", "coll_combines") == 0 {
		t.Fatal("collectives did not use the NIC offload path")
	}
	// Pool balance at quiesce: the collective engine keeps GC-owned
	// copies, so every pooled descriptor and payload is back. (SRAM is
	// not asserted: the engine never frees a non-release combine's state
	// on the non-root members, which is outside the packet path.)
	if descs, bufs := c.Fabric.Attach(0).Pool().InUse(); descs != 0 || bufs != 0 {
		t.Errorf("packet pool not balanced: %d descriptors, %d payloads outstanding", descs, bufs)
	}
}

// TestOffloadFaultDropDup drops and duplicates collective packets in
// the fabric mid-bcast/mid-reduce; go-back-N retransmission under the
// offload engine must still deliver byte-correct results.
func TestOffloadFaultDropDup(t *testing.T) {
	const n = 8
	c, comms := collJob(t, n, bcl.DefaultNICConfig())
	count := 0
	// A hook, not a Schedule: one counter over two kinds, firing at two phases.
	c.Fabric.SetFault(func(_ *sim.Env, pkt *fabric.Packet) fabric.Verdict {
		if pkt.Kind != fabric.KindCollMcast && pkt.Kind != fabric.KindCollComb {
			return fabric.Deliver
		}
		count++
		switch count % 5 {
		case 1:
			return fabric.Drop
		case 3:
			return fabric.Duplicate
		}
		return fabric.Deliver
	})
	payload := make([]byte, 2048)
	c.Env.Rand().Fill(payload)
	bcastGot := make([][]byte, n)
	allredGot := make([][]byte, n)
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			sp := comms[r].space()
			buf := sp.Alloc(len(payload))
			if r == 0 {
				sp.Write(buf, payload)
			}
			if err := comms[r].Bcast(p, buf, len(payload), 0); err != nil {
				t.Error(err)
				return
			}
			bcastGot[r], _ = sp.Read(buf, len(payload))
			send := sp.Alloc(8)
			recv := sp.Alloc(8)
			b := make([]byte, 8)
			binary.LittleEndian.PutUint64(b, uint64(int64(100+r)))
			sp.Write(send, b)
			if err := comms[r].Allreduce(p, send, recv, 1, Int64, Sum); err != nil {
				t.Error(err)
				return
			}
			allredGot[r], _ = sp.Read(recv, 8)
		})
	}
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	if count == 0 {
		t.Fatal("fault hook never saw a collective packet")
	}
	want := int64(0)
	for r := 0; r < n; r++ {
		want += int64(100 + r)
	}
	for r := 0; r < n; r++ {
		if !bytes.Equal(bcastGot[r], payload) {
			t.Fatalf("rank %d bcast payload corrupted under faults", r)
		}
		if allredGot[r] == nil {
			t.Fatalf("rank %d allreduce never completed under faults", r)
		}
		if got := int64(binary.LittleEndian.Uint64(allredGot[r])); got != want {
			t.Fatalf("rank %d allreduce = %d, want %d", r, got, want)
		}
	}
}

// TestOffloadInteriorDeath kills an interior tree node (member 1 of a
// binomial 8-tree: parent of 3 and 5) mid-run. The survivors'
// barrier must complete, the result must carry the dead bit, and the
// reparenting must show up in the trace flow.
func TestOffloadInteriorDeath(t *testing.T) {
	const n = 8
	cfg := bcl.DefaultNICConfig()
	cfg.MaxRetries = 3 // fail over quickly
	c, comms := collJob(t, n, cfg)
	tr := trace.New()
	c.SetTracer(tr)

	// Node 1's fabric attachment dies shortly after the first (healthy)
	// barrier; the second barrier runs against the dead interior node.
	deathAt := c.Env.Now() + 20*sim.Millisecond
	c.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, From: deathAt, To: sim.Time(1 << 62)}}})

	done := make([]bool, n)
	for i := range comms {
		r := i
		c.Env.Go("rank", func(p *sim.Proc) {
			if err := comms[r].Barrier(p); err != nil { // healthy warm-up
				t.Error(err)
				return
			}
			if r == 1 {
				return // dies with its link
			}
			for p.Now() < deathAt+sim.Millisecond {
				p.Sleep(sim.Millisecond)
			}
			if err := comms[r].Barrier(p); err != nil {
				t.Error(err)
				return
			}
			if dead := comms[r].coll.LastDead; dead&(1<<1) == 0 {
				t.Errorf("rank %d: dead mask %b missing member 1", r, dead)
			}
			done[r] = true
		})
	}
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	for r := 0; r < n; r++ {
		if r != 1 && !done[r] {
			t.Fatalf("rank %d never completed the barrier around the dead node", r)
		}
	}
	reparents, adopts := 0, 0
	for _, s := range tr.Spans {
		if strings.Contains(s.Stage, "coll reparent") {
			reparents++
		}
		if strings.Contains(s.Stage, "coll adopt") {
			adopts++
		}
	}
	if reparents == 0 {
		t.Fatal("no reparent span in the trace flow")
	}
	if adopts == 0 {
		t.Fatal("no adoption span in the trace flow")
	}
	snap := c.Obs.Snapshot(c.Env.Now())
	if snap.SumCounter("nic", "coll_reparents") == 0 {
		t.Fatal("coll_reparents counter never incremented")
	}
}
