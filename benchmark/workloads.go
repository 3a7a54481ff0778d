package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"bcl/internal/sim"
	"bcl/internal/trace"
)

// config is what one invocation fixes for every pass it runs.
type config struct {
	seed uint64
	// scale sizes the fixed work: 1 is the reference sizing below
	// (≈24–30 s timed per workload on the 2-core reference runner).
	// The contract's --seconds maps to seconds/refSeconds.
	scale float64
	// epochs and epochMS override the service tier's plan (the
	// wear-out repro runs one long epoch); 0 keeps the default.
	epochs  float64
	epochMS int
	svcBuf  int // svc_*: system-buffer bytes, 0 for the default
	// deadline ends timed work early so a slow machine cannot blow
	// the driver's budget; the zero value means never.
	deadline time.Time
}

const (
	refSeconds = 30.0
	// The service tier wears out after ≈25 000 answered requests per
	// cluster (see README), so its work is cut into fresh clusters of
	// 300 ms virtual time each: ≈9 900 requests, 40 % of the way there.
	svcEpochMS   = 300
	svcRefEpochs = 24 // svc_openloop at scale 1; svc_observed runs 4 of them
)

// workload is one named, fixed-work input of the benchmark.
type workload struct {
	name string
	why  string
	// run executes share of the workload's timed work into ps. tr is
	// the repo tracer a traced pass attaches (nil otherwise).
	run func(ps *pass, cfg config, share float64, tr *trace.Tracer)
	// paperMetric names the per-layer model metric the paper gives a
	// figure for, paperRef that figure. Unset: the paper has none and
	// the model is unvalidated on this workload.
	paperMetric string
	paperRef    float64
	// msgFlows is set on the 2-node workloads, where the virtual-time
	// profile of one message is meaningful.
	msgFlows bool
	observed bool // the stack's own tracer is on: no separate traced pass
	ladder   bool // a service workload: the traced run adds the rate ladder
}

var workloads = []workload{
	{
		name: "eager_pingpong",
		why:  "2 nodes, 0-byte system-channel ping-pong: per-message fixed cost only (trap, PIO, MCP, poll), so goroutine handoff and the event queue dominate host time; the paper's 18.3 us latency",
		run: func(ps *pass, cfg config, share float64, tr *trace.Tracer) {
			runLoop(ps, func() *world { return eagerWorld(tr) }, 330000*cfg.scale*share, 37*sim.Microsecond)
		},
		paperMetric: "model.op_us_p50", paperRef: 18.3, msgFlows: true,
	},
	{
		name: "bulk_stream",
		why:  "2 nodes, 128 KB rendezvous messages, 8 outstanding, bytes checked: the same nic/oskernel/fabric moving 33 packets with real copies and CRCs per op; the paper's 146 MB/s bandwidth",
		run: func(ps *pass, cfg config, share float64, tr *trace.Tracer) {
			runLoop(ps, func() *world { return bulkWorld(cfg.seed, tr) }, 32000*cfg.scale*share, 900*sim.Microsecond)
		},
		paperMetric: "bcl.model_goodput_mbps", paperRef: 146, msgFlows: true,
	},
	{
		name: "mpi_halo70",
		why:  "70 MPI ranks on 70 nodes, 512 B ring halo + 1 KB Allreduce per iteration: deep event heap, eadi/mpi matching, 700 MB resident; node count sets the cost; model unvalidated (no paper figure)",
		run: func(ps *pass, cfg config, share float64, tr *trace.Tracer) {
			runLoop(ps, func() *world { return haloWorld(cfg.seed, tr) }, 1600*cfg.scale*share, 850*sim.Microsecond)
		},
	},
	{
		name: "svc_openloop",
		why:  "3 shards + 2x12000 users, Poisson ~33k req/s open loop, 60% get / 10% 2PC, observability off: sessions, caches, 2PC on the eager path; the bypass for telemetry work; model unvalidated",
		run: func(ps *pass, cfg config, share float64, tr *trace.Tracer) {
			runSvc(ps, cfg, svcRefEpochs, share, false, tr)
		},
		ladder: true,
	},
	{
		name: "svc_observed",
		why:  "svc_openloop's first epochs byte for byte with capped tracer, reqtrace, health engine and 2 ms sampler on: exercises trace/obs/reqtrace/health, 7-8x slower on the host; model unvalidated",
		run: func(ps *pass, cfg config, share float64, _ *trace.Tracer) {
			runSvc(ps, cfg, svcRefEpochs/6, share, true, nil)
		},
		observed: true, ladder: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// advance runs the world in slices outside any timed region until
// done, giving up when the simulation goes idle.
func advance(w *world, slice sim.Time, done func() bool) {
	env := w.c.Env
	for !done() {
		steps := env.Steps()
		env.RunUntil(env.Now() + slice)
		if env.Steps() == steps {
			return
		}
	}
}

// runLoop is the run shape of the workloads whose processes loop
// forever: build, boot and a warm-up of 5 % of the ops (pin-down
// misses, pool growth, GC heap sizing) outside the timed region, then
// ops ops in ~200 slices of fixed virtual length (virtPerOp is only a
// sizing estimate). Work is fixed, not time, so two commits execute the
// same events.
func runLoop(ps *pass, build func() *world, ops float64, virtPerOp sim.Time) {
	start := time.Now()
	w := build()
	target := uint64(math.Max(1, math.Round(ops)))
	warm := max(1, target/20)
	slice := virtPerOp * sim.Time(max(1, target/200))
	settled := func(goal uint64) func() bool {
		return func() bool { return w.t.ops+w.t.failed >= goal }
	}
	advance(w, slice, settled(warm))

	t := *w.t
	ps.timed(w, slice, settled(t.ops+t.failed+target))
	if got := w.t.ops + w.t.failed - t.ops - t.failed; got < target && !ps.truncated {
		ps.unfinished += target - got
	}
	ps.close(w, t)
	ps.setupNS += time.Since(start).Nanoseconds() - ps.hostNS
}

// runSvc is the service tier's run shape: the virtual window is cut
// into fresh clusters of at most one epoch each (every rebuild is
// set-up), after one untimed warm-up epoch of 5 % of the window. Each
// epoch's timed region runs from the first arrival until every request
// issued in the window has been answered.
func runSvc(ps *pass, cfg config, refEpochs, share float64, observed bool, tr *trace.Tracer) {
	start := time.Now()
	epochMax := sim.Time(svcEpochMS) * sim.Millisecond
	if cfg.epochMS > 0 {
		epochMax = sim.Time(cfg.epochMS) * sim.Millisecond
	}
	epochs := refEpochs * cfg.scale
	if cfg.epochs > 0 {
		epochs = cfg.epochs
	}
	total := max(sim.Time(epochs*share*float64(epochMax)), sim.Millisecond)
	n := int((total + epochMax - 1) / epochMax)
	window := total / sim.Time(n)
	spec := epochSpec{gap: svcGap33k, observed: observed, bufSize: cfg.svcBuf, tr: tr}
	spec.slice = max(total/200, 50*sim.Microsecond)
	spec.seed, spec.window = epochSeed(cfg.seed, -1), max(total/20, sim.Millisecond)
	svcEpochInto(&pass{}, spec)
	for i := 0; i < n && !ps.truncated; i++ {
		spec.seed, spec.window = epochSeed(cfg.seed, i), window
		if ck, failed := svcEpochInto(ps, spec); failed > 0 {
			fmt.Fprintf(os.Stderr, "hostbench: svc epoch %d (seed %#x) failed %d of %d requests: drained=%v atomic=%v coherent=%v violations=%d unanswered=%d\n",
				i, spec.seed, failed, ck.issued, ck.drained, ck.atomic, ck.coherent, ck.violations, ck.unanswered)
		}
	}
	ps.setupNS += time.Since(start).Nanoseconds() - ps.hostNS
}

// svcEpochInto builds one service epoch, times it from the first
// arrival until every request issued in the window is answered (or the
// backlog is older than the horizon), then settles and verifies it.
func svcEpochInto(ps *pass, spec epochSpec) (ck svcCheck, failed uint64) {
	window := spec.window
	e, err := newSvcEpoch(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench: svc epoch:", err)
		ps.unfinished++
		e.c.Env.Close()
		return ck, 1
	}
	var backlog uint64
	closed := false
	ps.timed(&e.world, spec.slice, func() bool {
		now := e.c.Env.Now()
		if now < svcBoot+window {
			return false
		}
		if !closed {
			closed = true
			for _, d := range e.drivers {
				backlog += d.Stats().Issued - d.Stats().Done
			}
		}
		return e.served() || now >= svcBoot+window+svcHorizon
	})
	ck = e.settle(backlog)
	ps.svc.add(ck)
	ps.close(&e.world, tally{})
	return ck, e.t.failed
}
