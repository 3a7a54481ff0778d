package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"

	"bcl/internal/obs/prof"
	"bcl/internal/sim"
)

// metric is one reported number. Virtual-time quantities carry the
// suffix _model in their unit so nobody mistakes them for host time:
// with a fixed seed they repeat exactly.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// hostRates is the host speed of a pass: events and verified ops per
// host second, each the 90th percentile over the pass's batches. On a
// shared sandbox interference only ever slows a batch down, so the
// fast decile is the steadiest estimate of what the simulator itself
// costs; a real slow-down moves every batch, the fast ones included.
func (ps *pass) hostRates() (events, ops float64) {
	var ev, op []float64
	for _, b := range ps.batches {
		if b.HostNS > 0 {
			sec := float64(b.HostNS) / 1e9
			ev, op = append(ev, float64(b.Events)/sec), append(op, float64(b.Ops)/sec)
		}
	}
	return quantile(sortedCopy(ev), 0.9), quantile(sortedCopy(op), 0.9)
}

// batchMS is the q-quantile of the pass's batch host times.
func (ps *pass) batchMS(q float64) float64 {
	var ms []float64
	for _, b := range ps.batches {
		ms = append(ms, float64(b.HostNS)/1e6)
	}
	return quantile(sortedCopy(ms), q)
}

// endToEnd builds the host-clock metrics a user of the simulator sees,
// from an untraced pass.
func endToEnd(ps *pass) metrics {
	m := metrics{}
	events, ops := ps.hostRates()
	m.set("events_per_sec", "1/s", events)
	m.set("ops_per_sec", "1/s", ops)
	m.set("allocs_per_op", "count", per(float64(ps.mallocs), float64(ps.ops)))
	m.set("alloc_bytes_per_op", "bytes", per(float64(ps.allocBytes), float64(ps.ops)))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	m.set("setup_s", "s", float64(ps.setupNS)/1e9)
	return m
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(rest, &kb)
			return kb / 1024
		}
	}
	return 0
}

// traced holds the passes of one --trace 1 run. base is untraced and
// supplies the model counts and the host baseline; cpu and mem are the
// two halves of traced pass A (a CPU profile, and an allocation
// profile at MemProfileRate 1, kept apart because recording every
// allocation's stack would distort the CPU profile); spans is traced
// pass B with the repo tracer on every layer, nil on svc_observed.
type traced struct {
	base, cpu, mem, spans *pass
	ladder                []rung
	probes                metrics
}

// perLayer builds every per-layer metric of one workload.
func perLayer(w workload, t traced) (metrics, error) {
	m := metrics{}
	ps := t.base
	ops := float64(ps.ops)
	virtSec := float64(ps.virt) / float64(sim.Second)
	lat := sortedCopy(ps.lat)
	count := func(layer, name string) float64 { return float64(ps.counts[layer+"/"+name]) }

	// The model clock: what the simulated machine did. Exact for a
	// given seed and size.
	m.set("model.op_us_p50", "us_model", usOf(quantile(lat, 0.50)))
	m.set("model.op_us_p99", "us_model", usOf(quantile(lat, 0.99)))
	m.set("model.ops_per_s", "1/s_model", per(ops, virtSec))
	m.set("model.events", "count", float64(ps.events))
	m.set("model.digest32", "count", float64(uint32(ps.model)^uint32(ps.model>>32)))

	// Model work counts: registry deltas over the timed regions ÷ ops.
	m.set("sim.events_per_op", "count", per(float64(ps.events), ops))
	m.set("sim.pool_hit_pct", "%", pct(float64(ps.poolHits), float64(ps.poolHits+ps.poolMisses)))
	m.set("oskernel.traps_per_op", "count", per(count("kernel", "traps"), ops))
	m.set("oskernel.interrupts_per_op", "count", per(count("kernel", "interrupts"), ops))
	m.set("oskernel.pages_pinned_per_op", "count", per(count("kernel", "pages_pinned"), ops))
	m.set("nic.packets_per_op", "count", per(count("nic", "packets_sent"), ops))
	m.set("nic.retransmits_per_op", "count", per(count("nic", "retransmits"), ops))
	m.set("nic.nacks_per_op", "count", per(count("nic", "nacks"), ops))
	m.set("nic.no_buffer_drops_per_op", "count", per(count("nic", "no_buffer_drops"), ops))
	m.set("nic.seq_drops_per_op", "count", per(count("nic", "seq_drops"), ops))
	m.set("nic.send_failures_per_op", "count", per(count("nic", "send_failures"), ops))
	m.set("nic.peer_deaths", "count", count("nic", "peer_deaths"))
	m.set("fabric.delivered_per_op", "count", per(count("fabric:", "delivered"), ops))
	m.set("fabric.dropped_per_op", "count", per(count("fabric:", "dropped"), ops))
	m.set("bcl.msgs_per_op", "count", per(count("bcl", "sent"), ops))
	m.set("bcl.bytes_per_op", "bytes", per(count("bcl", "bytes_sent"), ops))
	m.set("bcl.model_goodput_mbps", "MB/s_model", per(float64(ps.bytes), virtSec)/1e6)
	m.set("obs.rec_dropped_per_op", "count", per(count("obs", "rec_dropped"), ops))

	m.set("svc.cache_hit_pct", "%", pct(float64(ps.svc.hits), float64(ps.svc.hits+ps.svc.misses)))
	m.set("svc.txn_abort_pct", "%", pct(float64(ps.svc.aborts), float64(ps.svc.txns)))
	m.set("svc.cli_retrans_per_op", "count", per(float64(ps.svc.retrans), ops))
	m.set("svc.invs_per_op", "count", per(count("svc", "invs_sent"), ops))
	m.set("svc.dedup_replays_per_op", "count", per(count("svc", "dedup_replays"), ops))
	m.set("svc.backlog_end_pct", "%", pct(float64(ps.svc.backlog), float64(ps.svc.issued)))
	p999 := 0.0
	if ps.svc.issued > 0 {
		p999 = usOf(quantile(lat, 0.999))
	}
	m.set("svc.model_req_us_p999", "us_model", p999)

	// Model busy and wait time of the simulated resources.
	m.set("node.cpu_busy_pct", "%", pct(float64(ps.cpuBusy), float64(ps.nodeVirt)))
	m.set("node.membus_busy_pct", "%", pct(float64(ps.busBusy), float64(ps.nodeVirt)))
	m.set("nic.pci_busy_pct", "%", pct(float64(ps.pciBusy), float64(ps.nodeVirt)))
	m.set("nic.pci_wait_us_per_op", "us_model", per(usOf(ps.pciWait), ops))

	// Traced pass A: host CPU and allocations by layer.
	cpuNS := map[string]float64{}
	var firstErr error
	for _, p := range t.cpu.profiles {
		if err := cpuByLayer(p, cpuNS); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var cpuTotal float64
	for _, ns := range cpuNS {
		cpuTotal += ns
	}
	for _, l := range hostLayers {
		m.set(l+".host_pct", "%", pct(cpuNS[l], cpuTotal))
		m.set(l+".host_ns_per_op", "ns", per(cpuNS[l], float64(t.cpu.ops)))
		m.set(l+".allocs_per_op", "count", per(t.mem.allocsBy[l], float64(t.mem.ops)))
	}

	// Traced pass B: what the repo tracer costs the host, and on the
	// 2-node workloads the exclusive virtual time one op spends in each
	// layer of the message path.
	trc := t.spans
	_, baseRate := ps.hostRates()
	overhead := 0.0
	if trc == nil {
		trc = ps // svc_observed: the stack's own capped tracer ran in the base pass
	} else if _, r := trc.hostRates(); r > 0 {
		overhead = 100 * (baseRate/r - 1)
	}
	m.set("trace.host_overhead_pct", "%", overhead)
	m.set("trace.spans_per_op", "count", per(float64(trc.spans), float64(trc.ops)))
	m.set("trace.dropped_per_op", "count", per(float64(trc.spansLost), float64(trc.ops)))
	self := map[string]float64{}
	if w.msgFlows && t.spans != nil {
		for _, r := range prof.FromSpans(t.spans.tracer.Spans[t.spans.spanFrom:]).Rows {
			self[r.Layer] += usOf(r.Time)
		}
	}
	for layer, profLayer := range map[string]string{"bcl": "user", "oskernel": "kernel", "nic": "nic", "fabric": "wire"} {
		m.set(layer+".model_self_us_per_op", "us_model", per(self[profLayer], float64(trc.ops)))
	}

	// Distance from the paper, where the paper has a figure: 0-byte
	// latency on eager_pingpong, 128 KB bandwidth on bulk_stream. −1
	// marks a workload the paper cannot validate.
	paperErr := -1.0
	if w.paperRef > 0 {
		paperErr = pct(math.Abs(m[w.paperMetric].Value-w.paperRef), w.paperRef)
	}
	m.set("hw.paper_error_pct", "%", paperErr)

	m.set("harness.batch_host_ms_p50", "ms", ps.batchMS(0.5))
	m.set("harness.batch_host_ms_p90", "ms", ps.batchMS(0.9))
	m.set("harness.batches", "count", float64(len(ps.batches)))
	profOverhead := 0.0
	if _, r := t.cpu.hostRates(); r > 0 {
		profOverhead = 100 * (baseRate/r - 1)
	}
	m.set("harness.profile_overhead_pct", "%", profOverhead)

	// The service tier's rate ladder (model time, three short epochs).
	best := 0.0
	for i, step := range ladderSteps {
		var r rung
		if i < len(t.ladder) {
			r = t.ladder[i]
		}
		m.set(fmt.Sprintf("svc.model_p99_us_r%dk", step.kRPS), "us_model", r.p99us)
		if r.p99us > 0 && r.p99us <= ladderSLOus && r.backlogPct < 1 && r.failed == 0 {
			best = math.Max(best, float64(step.kRPS)*1000)
		}
	}
	m.set("svc.max_rate_under_slo_rps", "1/s_model", best)

	for k, v := range t.probes {
		m[k] = v
	}
	return m, firstErr
}
