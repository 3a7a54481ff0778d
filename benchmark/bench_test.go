package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // leaf first
	}{
		// DoFlow wraps its callee: only its own work is the tracer's.
		{"trace", []string{"runtime.memmove", "bcl/internal/trace.(*Tracer).AddFlow", "bcl/internal/trace.(*Tracer).DoFlow", "bcl/internal/bcl.(*Port).Send"}},
		{"oskernel", []string{"bcl/internal/oskernel.(*Kernel).Trap", "bcl/internal/bcl.(*Port).Send.func1", "bcl/internal/trace.(*Tracer).DoFlow", "bcl/internal/bcl.(*Port).Send"}},
		// Goroutine handoff: channel work under park/run/wake.
		{"sim.handoff", []string{"runtime.chanrecv", "runtime.chanrecv1", "bcl/internal/sim.(*Proc).park", "bcl/internal/sim.(*Queue[go.shape.*uint8]).Recv", "bcl/internal/bcl.(*Port).WaitRecv"}},
		{"sim.handoff", []string{"runtime.chansend", "bcl/internal/sim.(*Env).wake", "bcl/internal/sim.(*Env).GoAt.func1", "bcl/internal/sim.(*Env).RunUntil"}},
		{"sim.handoff", []string{"runtime.gopark", "runtime.chanrecv", "bcl/internal/sim.(*Proc).run"}},
		{"sim.events", []string{"bcl/internal/sim.(*Env).heapPop", "bcl/internal/sim.(*Env).RunUntil", "bcl.(*Machine).RunFor", "main.(*pass).timed"}},
		{"sim.events", []string{"bcl/internal/sim/par.(*Engine).Run"}},
		// No repository frame at all.
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}},
		{"runtime.gc", []string{"runtime.(*mspan).sweep", "runtime.sweepone", "runtime.bgsweep"}},
		{"runtime.sched", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"runtime.other", []string{"runtime.usleep", "runtime.sysmon", "runtime.mstart1"}},
		// A GC assist is charged to whoever allocated.
		{"nic", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "bcl/internal/nic.(*NIC).sendEngine", "bcl/internal/sim.(*Proc).run"}},
		// Sub-packages, assembly packages, the public API, the harness.
		{"fabric", []string{"bcl/internal/fabric/myrinet.New"}},
		{"obs", []string{"bcl/internal/obs/health.(*Engine).onSample"}},
		{"workloads", []string{"bcl/internal/workloads/openloop.(*Poisson).Next", "bcl/internal/svc.(*Driver).generate"}},
		{"node", []string{"bcl/internal/cluster.New", "bcl.NewMachine"}},
		{"bcl", []string{"bcl.(*Machine).start.func1", "bcl/internal/sim.(*Proc).run"}},
		{"harness", []string{"bcl/internal/sched.New"}},
		{"harness", []string{"runtime.mallocgc", "main.eagerWorld.func1", "bcl.(*Machine).start.func1.1"}},
		{"harness", []string{"compress/flate.(*compressor).deflate", "runtime/pprof.(*profileBuilder).build"}},
	} {
		got := layerOf(c.stack)
		if got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
		if !slices.Contains(hostLayers, got) {
			t.Errorf("layerOf(%v) = %q, not a reported layer", c.stack, got)
		}
	}
}

// spin is the function the CPU profile round trip looks for.
//
//go:noinline
func spin(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// The hand-rolled reader must understand what the runtime's encoder
// writes: profile a spin loop and find it, flat, in the harness layer.
func TestCPUProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	spin(250 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := cpuStacks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spinNS, total int64
	for _, s := range stacks {
		total += s.weight
		if slices.ContainsFunc(s.frames, func(f string) bool { return strings.HasSuffix(f, ".spin") }) {
			spinNS += s.weight
			if l := layerOf(s.frames); l != "harness" {
				t.Errorf("spin stack %v classified %q", s.frames, l)
			}
		}
	}
	if total == 0 {
		t.Skip("no CPU samples delivered in 250 ms")
	}
	if spinNS*2 < total {
		t.Errorf("spin has %d of %d profiled ns; want most", spinNS, total)
	}
	if _, err := cpuStacks(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("half a profile decoded without error")
	}
}

func TestQuantile(t *testing.T) {
	var v []int64
	for i := int64(100); i >= 1; i-- {
		v = append(v, i)
	}
	s := sortedCopy(v)
	if v[0] != 100 {
		t.Error("sortedCopy sorted its input in place")
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]float64(nil), 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v", got)
	}
}

// smoke runs one untraced pass at a small fraction of the reference
// size.
func smoke(t *testing.T, w workload, seed uint64, scale float64) *pass {
	t.Helper()
	ps := &pass{}
	w.run(ps, config{seed: seed, scale: scale}, 1, nil)
	if ps.ops == 0 || ps.failed+ps.unfinished != 0 {
		t.Fatalf("%s seed %d: %d ops verified, %d failed, %d unfinished", w.name, seed, ps.ops, ps.failed, ps.unfinished)
	}
	return ps
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		a, b := smoke(t, w, 1, 0.002), smoke(t, w, 1, 0.002)
		if a.model != b.model || a.events != b.events || a.ops != b.ops {
			t.Errorf("%s: same seed, different runs: digest %x/%x events %d/%d ops %d/%d",
				w.name, a.model, b.model, a.events, b.events, a.ops, b.ops)
		}
		m := endToEnd(a)
		for name, v := range m {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v.Value)
			}
		}
		if w.ladder {
			if c := smoke(t, w, 2, 0.002); c.model == a.model {
				t.Errorf("%s: seed 2 left the model digest at %x", w.name, a.model)
			}
		}
	}
}

// The paper's two headline numbers are the model's validation: the
// benchmark must reproduce them to within 1.5 %. (256 bulk messages:
// where the timed region's edges cut a transfer matters below that.)
func TestPaperError(t *testing.T) {
	for _, w := range workloads {
		if w.paperRef == 0 {
			continue
		}
		base := smoke(t, w, 1, 0.008)
		m, err := perLayer(w, traced{base: base, cpu: &pass{}, mem: &pass{}})
		if err != nil {
			t.Fatal(err)
		}
		if e := m["hw.paper_error_pct"].Value; e < 0 || e > 1.5 {
			t.Errorf("%s: %.2f %% from the paper's %v", w.name, e, w.paperRef)
		}
	}
}

// A traced run end to end on the cheapest workload: the CPU shares
// must add up, and the allocation profile must account for most of the
// allocator's own count.
func TestTracedPasses(t *testing.T) {
	w := workloads[0]
	cfg := config{seed: 1, scale: 0.02}
	tr := traced{base: &pass{}, cpu: &pass{profileCPU: true}, mem: &pass{profileMem: true}}
	w.run(tr.base, cfg, shareBase, nil)
	w.run(tr.cpu, cfg, shareCPU, nil)
	w.run(tr.mem, cfg, shareMem, nil)
	m, err := perLayer(w, tr)
	if err != nil {
		t.Fatal(err)
	}
	var share, allocs float64
	for _, l := range hostLayers {
		share += m[l+".host_pct"].Value
		allocs += m[l+".allocs_per_op"].Value
	}
	if share != 0 && math.Abs(share-100) > 0.5 {
		t.Errorf("host_pct sums to %.2f", share)
	}
	if all := per(float64(tr.mem.mallocs), float64(tr.mem.ops)); allocs > all*1.02 {
		t.Errorf("profile attributes %.1f allocs/op, the allocator counted %.1f", allocs, all)
	}
}

// BENCHMARK.json is the contract with the driver: it must list exactly
// the workloads and metrics this program prints, with their units.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var man struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, program %q (or their whys differ)", i, man.Workloads[i].Name, w.name)
		}
	}
	layers, err := perLayer(workloads[0], traced{base: &pass{}, cpu: &pass{}, mem: &pass{}, probes: runProbes(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []def
		got  metrics
	}{{"end_to_end", man.EndToEnd, endToEnd(&pass{})}, {"per_layer", man.PerLayer, layers}} {
		if len(c.defs) != len(c.got) {
			t.Errorf("%s: manifest lists %d metrics, program prints %d", c.kind, len(c.defs), len(c.got))
		}
		for _, d := range c.defs {
			if g, ok := c.got[d.Name]; !ok || g.Unit != d.Unit {
				t.Errorf("%s: manifest has %s in %q, program %q (present %v)", c.kind, d.Name, d.Unit, g.Unit, ok)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: %s better = %q", c.kind, d.Name, d.Better)
			}
		}
	}
}
