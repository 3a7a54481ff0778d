package health

import (
	"fmt"
	"strings"

	"bcl/internal/obs"
	"bcl/internal/sim"
)

// topCols is the bcltop table header.
const topCols = "node    msgs/s    pkts/s   retx/s   crc/s  ringq  inflt  rxq  p999_us"

// frame renders one bcltop frame for the window (prev, cur]: a per-node
// table of windowed rates, queue-depth gauges and the windowed P99.9,
// headed by the virtual timestamp and the firing rules.
func (e *Engine) frame(prev, cur obs.Sample) string {
	var b strings.Builder
	firing := strings.Join(e.firingAt(int64(cur.At)), ",")
	if firing == "" {
		firing = "none"
	}
	fmt.Fprintf(&b, "bcltop  t=%9.3fms  firing: %s\n", float64(cur.At)/float64(sim.Millisecond), firing)
	// Request-level trace counters, when a reqtrace recorder publishes
	// into the registry (absent layers render nothing, keeping the
	// pre-reqtrace frames byte-identical).
	if samp, ok := cur.Snap.Counter(-1, "reqtrace", "traces_sampled"); ok {
		drop, _ := cur.Snap.Counter(-1, "reqtrace", "traces_dropped")
		held, _ := cur.Snap.Gauge(-1, "reqtrace", "retained_traces")
		hotKey, _ := cur.Snap.Gauge(-1, "reqtrace", "hot_key_share_pct")
		hotShard, _ := cur.Snap.Gauge(-1, "reqtrace", "hot_shard_share_pct")
		fmt.Fprintf(&b, "traces: %d sampled  %d dropped  %d held | hot key %d%%  hot shard %d%%\n",
			samp, drop, held, hotKey, hotShard)
	}
	b.WriteString(topCols)
	b.WriteByte('\n')
	dt := float64(cur.At-prev.At) / 1e9
	rate := func(node int, name string) float64 {
		if dt <= 0 {
			return 0
		}
		c, _ := cur.Snap.Counter(node, "nic", name)
		p, _ := prev.Snap.Counter(node, "nic", name)
		return float64(c-p) / dt
	}
	for _, n := range nicNodes(cur.Snap) {
		ringq, _ := cur.Snap.Gauge(n, "nic", "send_ring_depth")
		inflt, _ := cur.Snap.Gauge(n, "nic", "tx_inflight")
		var rxq int64
		for _, g := range cur.Snap.Gauges {
			if g.Node == n && g.Name == "rx_queued" && strings.HasPrefix(g.Layer, "fabric:") {
				rxq += g.Value
			}
		}
		win := cur.Snap.Hist(n, "nic", "msg_latency_ns").Sub(prev.Snap.Hist(n, "nic", "msg_latency_ns"))
		p999 := 0.0
		if win.Count > 0 {
			p999 = float64(win.P999()) / 1000
		}
		fmt.Fprintf(&b, "%4d %9.0f %9.0f %8.0f %7.0f %6d %6d %4d %8.1f\n",
			n, rate(n, "msgs_sent"), rate(n, "packets_sent"),
			rate(n, "retransmits"), rate(n, "crc_drops"),
			ringq, inflt, rxq, p999)
	}
	if e.Hot != nil {
		b.WriteString(e.Hot())
		b.WriteByte('\n')
	}
	return b.String()
}

// firingAt replays the transition log to reconstruct which rules were
// firing at a given virtual time, in rule order — so replayed frames
// show the state of THAT moment, not the end of the run.
func (e *Engine) firingAt(atNs int64) []string {
	state := make(map[string]bool, len(e.Rules))
	for _, t := range e.transitions {
		if t.AtNs > atNs {
			break
		}
		state[t.Rule] = t.Firing
	}
	var out []string
	for _, r := range e.Rules {
		if state[r.Name] {
			out = append(out, r.Name)
		}
	}
	return out
}

// nicNodes lists the node ids publishing NIC counters, ascending (the
// snapshot is sorted, so this is deterministic).
func nicNodes(s *obs.Snapshot) []int {
	var out []int
	for _, c := range s.Counters {
		if c.Layer == "nic" && c.Name == "msgs_sent" && c.Node >= 0 {
			out = append(out, c.Node)
		}
	}
	return out
}

// Frames renders one bcltop frame per evaluated window in the sampler's
// retained series — the "live" view of a finished run, replayed.
func (e *Engine) Frames() []string {
	if e == nil || e.o.NumSamples() < 2 {
		return nil
	}
	var out []string
	for i := 1; i < e.o.NumSamples(); i++ {
		out = append(out, e.frame(e.o.SampleAt(i-1), e.o.SampleAt(i)))
	}
	return out
}

// TopText renders the final bcltop frame plus the tail of the alert
// log — what a live terminal would show at the end of the run.
func (e *Engine) TopText() string {
	if e == nil || e.o.NumSamples() < 2 {
		return "(no samples)\n"
	}
	var b strings.Builder
	n := e.o.NumSamples()
	b.WriteString(e.frame(e.o.SampleAt(n-2), e.o.SampleAt(n-1)))
	trs := e.Transitions()
	if len(trs) == 0 {
		b.WriteString("alerts: none\n")
		return b.String()
	}
	if len(trs) > alertTail {
		fmt.Fprintf(&b, "alerts (last %d of %d):\n", alertTail, len(trs))
		trs = trs[len(trs)-alertTail:]
	} else {
		fmt.Fprintf(&b, "alerts (%d):\n", len(trs))
	}
	for _, t := range trs {
		edge := "resolved"
		if t.Firing {
			edge = "FIRING"
		}
		fmt.Fprintf(&b, "%10.3fms  %-8s %-4s %-20s v=%.3f bound=%.3f\n",
			float64(t.AtNs)/float64(sim.Millisecond), edge, t.Severity, t.Rule, t.V, t.Bound)
	}
	return b.String()
}

const alertTail = 8
