package health

import (
	"fmt"
	"strings"

	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// Rule is one declarative health rule. Every shape reduces to "derived
// value v compared against a bound b at each sampler tick": thresholds
// fix the bound, burn rates rescale the value by the error budget,
// divergence rules compute the bound from a reference series (the
// generalized gray-failure shape: rail A latency > k× rail B + floor).
type Rule struct {
	Name     string
	Severity string // "warn" or "crit"
	Desc     string
	Src      Source

	Value     float64 // fixed bound (threshold, burn-rate max)
	Objective float64 // SLO objective for burn rates (0 = not a burn rate)

	Ref    *Source // divergence reference series
	Factor float64 // divergence: bound = Factor*ref + Floor
	Floor  float64

	// For is how many consecutive samples the condition must hold
	// before the rule fires (<= 1 fires immediately). Resolution is
	// immediate on the first healthy sample.
	For int
}

// Threshold builds a rule firing while src > value.
func Threshold(name string, src Source, value float64) *Rule {
	return &Rule{Name: name, Severity: "warn", Src: src, Value: value,
		Desc: fmt.Sprintf("%s > %g", src, value)}
}

// BurnRate builds an SLO burn-rate rule over the layer/name latency
// histogram: the objective says "a fraction `objective` of
// observations must be <= boundNs"; the burn rate is the windowed bad
// fraction divided by the budget (1-objective), so burn 1.0 consumes
// the budget exactly and the rule fires while burn > maxBurn.
func BurnRate(name, layer, hist string, boundNs int64, objective, maxBurn float64) *Rule {
	src := BadFrac(layer, hist, boundNs)
	return &Rule{Name: name, Severity: "warn", Src: src, Objective: objective, Value: maxBurn,
		Desc: fmt.Sprintf("burn(%s, slo=%g) > %g", src, objective, maxBurn)}
}

// Divergence builds a rule firing while src > factor*ref + floor — the
// PR 6 gray-detection shape lifted to any pair of derived series.
func Divergence(name string, src, ref Source, factor, floor float64) *Rule {
	return &Rule{Name: name, Severity: "warn", Src: src, Ref: &ref, Factor: factor, Floor: floor,
		Desc: fmt.Sprintf("%s > %g*%s + %g", src, factor, ref, floor)}
}

// Crit marks the rule critical. Returns the rule for chaining.
func (r *Rule) Crit() *Rule { r.Severity = "crit"; return r }

// ForSamples requires the condition to hold n consecutive samples.
func (r *Rule) ForSamples(n int) *Rule { r.For = n; return r }

// eval computes (value, bound) for the window (prev, cur].
func (r *Rule) eval(prev, cur obs.Sample) (v, bound float64) {
	v = r.Src.Eval(prev, cur)
	if r.Objective > 0 && r.Objective < 1 {
		v /= 1 - r.Objective
	}
	bound = r.Value
	if r.Ref != nil {
		bound = r.Factor*r.Ref.Eval(prev, cur) + r.Floor
	}
	return v, bound
}

// Point is one evaluated sample of a rule's derived series.
type Point struct {
	AtNs  int64   `json:"at_ns"`
	V     float64 `json:"v"`
	Bound float64 `json:"bound"`
}

// Transition is one edge of the alert timeline: a rule starting or
// stopping to fire at an exact virtual timestamp.
type Transition struct {
	AtNs     int64   `json:"at_ns"`
	Rule     string  `json:"rule"`
	Severity string  `json:"severity"`
	Firing   bool    `json:"firing"`
	V        float64 `json:"v"`
	Bound    float64 `json:"bound"`
}

type ruleState struct {
	consec int
	firing bool
}

// Engine evaluates a rule set against the sampler stream of the Obs it
// is attached to, reading its samples from the sampler's own series.
// All state lives on the virtual clock: same samples in, same alerts
// out.
type Engine struct {
	Rules []*Rule
	// Tracer, when set, lets postmortem bundles include the flow spans
	// of the worst-offending messages.
	Tracer *trace.Tracer
	// Hot, when set, appends a heavy-hitter summary line to every
	// bcltop frame (typically a reqtrace.Recorder's HotLine; the
	// sketch state is live, not replayed).
	Hot func() string
	// SlowLog, when set, lets postmortem bundles embed the slow-request
	// log (typically a reqtrace.Recorder's SlowLog).
	SlowLog func(n int) []SlowEntry

	o           *obs.Obs
	series      map[string][]Point
	state       []ruleState
	transitions []Transition
	bundles     []*Bundle
}

// NewEngine builds an engine over the given rules.
func NewEngine(rules []*Rule) *Engine {
	return &Engine{
		Rules:  rules,
		series: make(map[string][]Point),
		state:  make([]ruleState, len(rules)),
	}
}

// Attach hooks the engine onto the observability bundle's sampler,
// whose series is then the engine's sample history.
func (e *Engine) Attach(o *obs.Obs) {
	if e == nil || o == nil {
		return
	}
	e.o = o
	o.OnSample = e.step
}

// step evaluates all rules against the window between the sampler's
// newest sample cur and its predecessor; the first sample only seeds
// the window. Each rule's series keeps as many points as the sampler
// keeps samples.
func (e *Engine) step(cur obs.Sample) {
	n := e.o.NumSamples()
	if n < 2 {
		return
	}
	prev := e.o.SampleAt(n - 2)
	for i, r := range e.Rules {
		v, bound := r.eval(prev, cur)
		v, bound = round6(v), round6(bound)
		pts := append(e.series[r.Name], Point{AtNs: int64(cur.At), V: v, Bound: bound})
		if len(pts) > n {
			pts = append(pts[:0], pts[1:]...)
		}
		e.series[r.Name] = pts
		st := &e.state[i]
		if v > bound {
			st.consec++
		} else {
			st.consec = 0
		}
		need := r.For
		if need < 1 {
			need = 1
		}
		if st.consec >= need && !st.firing {
			st.firing = true
			tr := Transition{AtNs: int64(cur.At), Rule: r.Name, Severity: r.Severity, Firing: true, V: v, Bound: bound}
			e.transitions = append(e.transitions, tr)
			e.bundles = append(e.bundles, e.alertBundle(r, tr))
		} else if st.consec == 0 && st.firing {
			st.firing = false
			e.transitions = append(e.transitions, Transition{AtNs: int64(cur.At), Rule: r.Name, Severity: r.Severity, Firing: false, V: v, Bound: bound})
		}
	}
}

// Transitions returns the alert timeline, oldest first.
func (e *Engine) Transitions() []Transition {
	if e == nil {
		return nil
	}
	return e.transitions
}

// Bundles returns the postmortem bundles emitted so far, one per
// firing transition.
func (e *Engine) Bundles() []*Bundle {
	if e == nil {
		return nil
	}
	return e.bundles
}

// Series returns the retained derived series of one rule.
func (e *Engine) Series(rule string) []Point {
	if e == nil {
		return nil
	}
	return e.series[rule]
}

// FiredCount counts firing transitions of one rule (any rule if name
// is empty).
func (e *Engine) FiredCount(rule string) int {
	n := 0
	for _, t := range e.Transitions() {
		if t.Firing && (rule == "" || t.Rule == rule) {
			n++
		}
	}
	return n
}

// TimelineText renders the alert timeline.
func (e *Engine) TimelineText() string {
	trs := e.Transitions()
	if len(trs) == 0 {
		return "(no alerts)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "alert timeline (%d transitions):\n", len(trs))
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

// DefaultRules is the rule set a cluster gets out of the box: the
// failure modes every experiment in this repo has exercised, with
// bounds far above anything a healthy run produces (the healthwatch
// clean phase pins that at zero alerts).
func DefaultRules() []*Rule {
	return []*Rule{
		// A retransmit storm: sustained timeouts across the cluster.
		Threshold("retransmit-storm", Rate("nic", "retransmits"), 2000).ForSamples(2),
		// Corruption spike: CRC drops are zero on a healthy fabric.
		Threshold("crc-spike", Rate("nic", "crc_drops"), 100).Crit(),
		// Any watchdog trip means firmware died and the kernel healed it.
		Threshold("watchdog-trip", Delta("kernel", "watchdog_trips"), 0).Crit(),
		// Send rings backing up: arbitration or a dead peer is stalling.
		Threshold("send-ring-backlog", GaugeOf("nic", "send_ring_depth"), 128).ForSamples(2),
		// SLO burn: >10x budget burn against "99.9% of messages under 1ms".
		BurnRate("slo-burn", "nic", "msg_latency_ns", int64(sim.Millisecond), 0.999, 10).ForSamples(2),
		// Gray rail: the Myrinet rail's windowed P99 wire time diverges
		// from the mesh rail's (PR 6's detector as a cluster rule).
		Divergence("rail-divergence",
			QuantileOf("fabric:myrinet", "wire_ns", 0.99),
			QuantileOf("fabric:nwrc-mesh", "wire_ns", 0.99),
			8, float64(200*sim.Microsecond)),
		// Service tier: transactions aborting in bulk means prepare
		// locks are colliding (hot pairs) or a shard is flapping.
		Threshold("txn-abort-rate", Rate("svc", "txn_aborted"), 2000).ForSamples(2),
		// Service tier SLO burn: >10x budget burn against "99.9% of
		// requests complete within 5ms" (arrival-to-reply, queueing
		// included, so this is the user-visible objective).
		BurnRate("svc-slo-burn", "svc", "req_latency_ns", int64(5*sim.Millisecond), 0.999, 10).ForSamples(2),
		// Hot-shard divergence: the top shard's share of the request
		// stream (from the reqtrace space-saving sketches) pulls away
		// from the fair per-shard share. Both gauges come from a
		// reqtrace.Recorder's GaugeCollector; without one the source
		// reads 0 against a floor of 5, so the rule stays silent.
		Divergence("hot-shard-divergence",
			GaugeOf("reqtrace", "hot_shard_share_pct"),
			GaugeOf("reqtrace", "fair_shard_share_pct"),
			1.5, 5).ForSamples(2),
	}
}
