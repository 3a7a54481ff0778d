package main

import (
	"time"

	"bcl"
	"bcl/internal/fabric"
	"bcl/internal/fabric/myrinet"
	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// Layer probes time one public call of one layer in isolation, so a
// change to that layer has a number no other layer can move. Each does
// a fixed amount of work, sized to ≈0.3 s on the reference runner.
var probes = []struct {
	name, unit string
	n          int             // repetitions the reported time is divided by
	run        func(n int) int // does n repetitions (or fewer on error) and returns how many
}{
	// One event through the pooled queue: schedule, pop, dispatch.
	{"sim.probe_event_ns", "ns", 4 << 20, func(n int) int {
		env := sim.NewEnv(1)
		fn := func() {}
		for i := 0; i < n; i++ {
			env.At(env.Now()+sim.Time(i%1024), fn)
			if i%1024 == 1023 {
				env.Run()
			}
		}
		env.Run()
		return n
	}},
	// One item across a queue between two process goroutines: park,
	// wake and the channel operations under them, both ways.
	{"sim.probe_handoff_ns", "ns", 400_000, func(n int) int {
		env := sim.NewEnv(1)
		q := sim.NewQueue[int](env, "probe", 1)
		env.Go("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Send(p, i)
			}
		})
		env.Go("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Recv(p)
			}
		})
		env.Run()
		env.Close()
		return n
	}},
	// One timer armed and cancelled before it fires, as every
	// retransmit and RPC timeout does, including popping the dead event.
	{"sim.probe_timer_cancel_ns", "ns", 2 << 20, func(n int) int {
		env := sim.NewEnv(1)
		fn := func() {}
		for i := 0; i < n; i++ {
			env.After(sim.Microsecond, fn).Cancel()
			if i%1024 == 1023 {
				env.Run()
			}
		}
		env.Run()
		return n
	}},
	// 4 KB written to and read back from a simulated address space;
	// one repetition is one KB moved.
	{"mem.probe_copy_ns_per_kb", "ns", 1 << 20, func(n int) int {
		sp := mem.NewAddrSpace(mem.NewMemory(hw.DAWNING3000().PageSize))
		va := sp.Alloc(4096)
		buf := make([]byte, 4096)
		for kb := 0; kb < n; kb += 8 {
			if sp.Write(va, buf) != nil {
				return kb
			}
			if _, err := sp.Read(va, len(buf)); err != nil {
				return kb
			}
		}
		return n
	}},
	// One 64 B packet across one Myrinet switch, injection to RX queue.
	{"fabric.probe_packet_ns", "ns", 60_000, func(n int) int {
		env := sim.NewEnv(1)
		fab := myrinet.New(env, hw.DAWNING3000(), 2)
		tx, rx := fab.Attach(0), fab.Attach(1)
		payload := make([]byte, 64)
		env.Go("tx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				tx.Inject(p, &fabric.Packet{Kind: fabric.KindData, Src: 0, Dst: 1, Payload: payload})
			}
		})
		got := 0
		env.Go("rx", func(p *sim.Proc) {
			for ; got < n; got++ {
				rx.RX.Recv(p)
			}
		})
		env.Run()
		env.Close()
		return got
	}},
	// One span recorded by an unbounded tracer.
	{"trace.probe_addflow_ns", "ns", 16 << 20, func(n int) int {
		tr := trace.New()
		for i := 0; i < n; i++ {
			if i%65536 == 0 {
				tr.Reset()
			}
			tr.AddFlow("probe: span", "host0", uint64(i), sim.Time(i), sim.Time(i+1))
		}
		return n
	}},
	// One span recorded by a tracer at its cap, which evicts the oldest
	// by shifting the whole slice down (filling it first costs nothing
	// beside that).
	{"trace.probe_addflow_capped_ns", "ns", 24_000, func(n int) int {
		tr := trace.NewCapped(traceCap)
		for i := 0; i < traceCap+n; i++ {
			tr.AddFlow("probe: span", "host0", uint64(i), sim.Time(i), sim.Time(i+1))
		}
		return n
	}},
}

// runProbes runs every probe at 1/shrink of its size (tests shrink;
// the benchmark passes 1).
func runProbes(shrink int) metrics {
	m := metrics{}
	for _, pr := range probes {
		t0 := time.Now()
		done := pr.run(max(pr.n/shrink, 1))
		m.set(pr.name, pr.unit, per(float64(time.Since(t0).Nanoseconds()), float64(done)))
	}

	// One registry snapshot of an idle 70-node machine, as the health
	// sampler takes every tick. Building the machine is not timed.
	snapshots := max(120/shrink, 1)
	machine := bcl.NewMachine(bcl.MachineConfig{Nodes: haloRanks})
	t0 := time.Now()
	for i := 0; i < snapshots; i++ {
		machine.Metrics()
	}
	m.set("obs.probe_snapshot_us", "us", float64(time.Since(t0).Microseconds())/float64(snapshots))
	machine.Cluster.Env.Close()
	return m
}
