package main

import (
	"runtime"

	"bcl/internal/sim"
	"bcl/internal/trace"
)

// Shares of the workload's timed ops each pass of a --trace 1 run
// executes. The CPU profile gets the most: at 100 samples a second it
// needs the time. Model counts are exact at any size, and so are
// allocation counts, which is as well: recording every allocation's
// stack makes the simulator about twelve times slower.
const (
	shareBase  = 1.0 / 4
	shareCPU   = 1.0 / 2
	shareMem   = 1.0 / 64
	shareSpans = 1.0 / 8
)

// runTraced executes the passes behind the per-layer metrics.
func runTraced(w workload, cfg config) traced {
	newPass := func() *pass { return &pass{deadline: cfg.deadline} }
	var t traced

	t.base = newPass()
	w.run(t.base, cfg, shareBase, nil)

	t.cpu = newPass()
	t.cpu.profileCPU = true
	w.run(t.cpu, cfg, shareCPU, nil)

	t.mem = newPass()
	t.mem.profileMem = true
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	w.run(t.mem, cfg, shareMem, nil)
	runtime.MemProfileRate = rate

	if !w.observed {
		t.spans = newPass()
		t.spans.tracer = trace.New()
		w.run(t.spans, cfg, shareSpans, t.spans.tracer)
	}
	if w.ladder {
		t.ladder = runLadder(cfg)
	}
	t.probes = runProbes(1)
	return t
}

// The rate ladder: p99 request latency at three offered rates, and the
// highest of them that meets the latency limit without a backlog.
const ladderSLOus = 1000

var ladderSteps = []struct {
	kRPS int
	gap  sim.Time // per-driver mean inter-arrival time
}{
	{16, 125 * sim.Microsecond},
	{33, svcGap33k},
	{50, 40 * sim.Microsecond},
}

type rung struct {
	p99us, backlogPct float64
	failed            uint64
}

// runLadder serves one 100 ms epoch per step, observability off (the
// model under test is the service tier, not its telemetry).
func runLadder(cfg config) []rung {
	var out []rung
	for i, step := range ladderSteps {
		ps := &pass{}
		// A rung that saturates is a finding, not an error: no report.
		svcEpochInto(ps, epochSpec{
			seed: epochSeed(cfg.seed, 1000+i), window: 100 * sim.Millisecond,
			gap: step.gap, slice: sim.Millisecond, bufSize: cfg.svcBuf,
		})
		out = append(out, rung{
			p99us:      usOf(quantile(sortedCopy(ps.lat), 0.99)),
			backlogPct: pct(float64(ps.svc.backlog), float64(ps.svc.issued)),
			failed:     ps.failed + ps.unfinished,
		})
	}
	return out
}
