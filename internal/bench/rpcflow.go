package bench

import (
	"fmt"
	"sort"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/hw"
	"bcl/internal/sim"
	"bcl/internal/svc"
	"bcl/internal/trace"
)

// rpcFlowRun drives a handful of cross-shard transactions with causal
// flow tracing on: every service-layer stage (issue, coordinator
// begin, participant prepare, commit apply, acks, reply consume) is a
// span under the request's flow id, so one transaction's 2PC fan-out
// reads as a single timeline across three hosts.
func rpcFlowRun() (*trace.Tracer, []uint64, uint64) {
	tr := trace.New()
	c := newCluster(cluster.Config{
		Nodes: 3, Profile: hw.DAWNING3000(), NIC: ibcl.DefaultNICConfig(),
	})
	c.SetTracer(tr)
	w := newSvcWorld(c, 2, 1, 0)
	c.Env.Go("setup", func(p *sim.Proc) {
		opts := ibcl.Options{SystemBuffers: 64, SystemBufSize: svcBufSize, Tracer: tr}
		w.startShards(p, opts, svc.ServerConfig{Seed: 1})
		driver := svc.NewDriver(p, w.open(p, 2, opts), svcBufSize, svc.DriverConfig{
			Shards: w.addrs, Ring: w.ring, Users: 2, UserName: "tracer",
			AuthSeed: 0xbc1, Seed: 3,
			Arrivals: rpcGap(2 * sim.Millisecond),
			Keys:     4, GetFrac: 0, TxnFrac: 1, PairA: w.pa, PairB: w.pb,
			Start: sim.Millisecond, Duration: 5 * sim.Millisecond,
			Trace: true,
		})
		c.Env.Go("driver", driver.Run)
	})
	c.Env.RunUntil(100 * sim.Millisecond)

	// Service flows carry bit 63 (disjoint from per-message trace ids).
	var flows []uint64
	for _, id := range tr.Flows() {
		if id&(1<<63) != 0 {
			flows = append(flows, id)
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	var committed uint64
	for _, sv := range w.servers {
		n, _, _ := sv.Stats()
		committed += n
	}
	return tr, flows, committed
}

// rpcGap is a constant arrival gap (local to avoid pulling a workload
// generator into a trace fixture).
type rpcGap sim.Time

func (g rpcGap) Next() sim.Time { return sim.Time(g) }

// rpcFlow reports the causal service-layer timeline of cross-shard
// transactions: request issue on the client host, coordinator begin,
// both participants' prepares, the commit applies, and the reply —
// one flow id across three hosts.
func rpcFlow() *Report {
	r := newReport("rpcflow", "Causal flow trace of one cross-shard transaction (2PC over BCL)")
	tr, flows, committed := rpcFlowRun()

	hosts := map[string]bool{}
	stages := map[string]int{}
	var b strings.Builder
	for _, id := range flows {
		spans := tr.FlowSpans(id)
		fmt.Fprintf(&b, "flow %x (%d spans):\n", id, len(spans))
		for _, s := range spans {
			hosts[s.Where] = true
			stages[s.Stage]++
			fmt.Fprintf(&b, "  %10.3fus  %-7s %s\n", us(s.Start), s.Where, s.Stage)
		}
	}
	fmt.Fprintf(&b, "\n%d transactions committed; %d service flows across %d hosts\n",
		committed, len(flows), len(hosts))
	r.Text = b.String()

	r.metric("rpc_flows", float64(len(flows)))
	r.metric("rpc_hosts", float64(len(hosts)))
	r.metric("prepare_spans", float64(stages["svc: prepared (participant)"]))
	r.metric("commit_spans", float64(stages["svc: commit apply (participant)"]))
	r.metric("txn_committed", float64(committed))
	return r
}
