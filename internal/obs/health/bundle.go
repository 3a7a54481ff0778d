package health

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// BundleSchema identifies the postmortem bundle format.
const BundleSchema = "bcl-postmortem/v1"

// FlowSpan is one trace span of an offending flow.
type FlowSpan struct {
	Stage   string `json:"stage"`
	Where   string `json:"where"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Flow is the full causal story of one worst-offending message: its
// spans, how often it was retransmitted, and how long it took
// first-span-to-last-end.
type Flow struct {
	ID    string     `json:"id"` // hex trace id
	Node  int        `json:"node"`
	Msg   uint64     `json:"msg"`
	Retx  int        `json:"retransmits"`
	DurNs int64      `json:"dur_ns"`
	Spans []FlowSpan `json:"spans"`
}

// SlowEntry is one ranked slow-request-log line embedded in a bundle:
// the request's identity, its latency, why its trace was retained, and
// the per-phase stage markers (offsets are absolute virtual ns).
type SlowEntry struct {
	Flow    string     `json:"flow"` // hex flow id
	Kind    string     `json:"kind"`
	Key     string     `json:"key"`
	User    uint16     `json:"user"`
	Node    int        `json:"node"`
	Shard   int        `json:"shard"`
	LatNs   int64      `json:"lat_ns"`
	Why     string     `json:"why,omitempty"`
	Retrans int        `json:"retrans,omitempty"`
	Aborted bool       `json:"aborted,omitempty"`
	Phases  []FlowSpan `json:"phases,omitempty"`
}

// Trigger names the rule trip that caused an alert bundle.
type Trigger struct {
	Rule     string  `json:"rule"`
	Severity string  `json:"severity"`
	Desc     string  `json:"desc,omitempty"`
	V        float64 `json:"v"`
	Bound    float64 `json:"bound"`
}

// Bundle is a bcl-postmortem/v1 evidence bundle: emitted on every
// alert firing (Kind "alert") and on benchmark-gate failures (Kind
// "gate"). Encoding is canonical — struct field order plus sorted map
// keys — so two runs of the same seeded experiment produce
// byte-identical bundles.
type Bundle struct {
	Schema  string             `json:"schema"`
	Kind    string             `json:"kind"`
	ID      string             `json:"id,omitempty"` // experiment id for gate bundles
	AtNs    int64              `json:"at_ns"`
	Trigger *Trigger           `json:"trigger,omitempty"`
	Reasons []string           `json:"reasons,omitempty"` // gate-failure reasons
	Alerts  []Transition       `json:"alerts,omitempty"`
	Series  map[string][]Point `json:"series,omitempty"`
	Diff    *obs.Snapshot      `json:"window_diff,omitempty"`
	Flight  []obs.Event        `json:"flight,omitempty"`
	Flows   []Flow             `json:"flows,omitempty"`
	Slow    []SlowEntry        `json:"slow_requests,omitempty"`
}

// alertBundle captures the engine's evidence at a firing transition:
// the alert timeline so far, every rule's windowed series around the
// trip, the registry diff across the retained window, the flight
// recorder, and the worst-offending flows.
func (e *Engine) alertBundle(r *Rule, tr Transition) *Bundle {
	b := &Bundle{
		Schema:  BundleSchema,
		Kind:    "alert",
		AtNs:    tr.AtNs,
		Trigger: &Trigger{Rule: r.Name, Severity: r.Severity, Desc: r.Desc, V: tr.V, Bound: tr.Bound},
		Alerts:  append([]Transition(nil), e.transitions...),
		Series:  make(map[string][]Point, len(e.series)),
	}
	for name, pts := range e.series {
		b.Series[name] = append([]Point(nil), pts...)
	}
	if n := e.o.NumSamples(); n > 0 {
		b.Diff = e.o.SampleAt(n - 1).Snap.Diff(e.o.SampleAt(0).Snap)
	}
	if e.o != nil {
		b.Flight = e.o.Rec.Events()
	}
	b.Flows = WorstFlows(e.Tracer, 3)
	if e.SlowLog != nil {
		b.Slow = e.SlowLog(slowTail)
	}
	return b
}

// GateBundle builds a postmortem for a benchmark-gate failure: no
// triggering rule, but the failure reasons, the final registry
// snapshot, and the flight recorder.
func GateBundle(id string, atNs int64, reasons []string, snap *obs.Snapshot, flight []obs.Event) *Bundle {
	return &Bundle{
		Schema:  BundleSchema,
		Kind:    "gate",
		ID:      id,
		AtNs:    atNs,
		Reasons: append([]string(nil), reasons...),
		Diff:    snap,
		Flight:  flight,
	}
}

// WorstFlows ranks the tracer's flows by retransmit count, then
// duration, then hex id as text, and dumps the top n with their spans
// — "which messages suffered most" in one glance. A sorted index groups
// the spans by flow; only the n worst get an id string and a span list.
func WorstFlows(t *trace.Tracer, n int) []Flow {
	if t == nil || n <= 0 {
		return nil
	}
	idx := make([]int32, 0, len(t.Spans))
	for i, s := range t.Spans {
		if s.Flow != 0 {
			idx = append(idx, int32(i))
		}
	}
	// By flow, then in recording order.
	slices.SortFunc(idx, func(a, b int32) int {
		return cmp.Or(cmp.Compare(t.Spans[a].Flow, t.Spans[b].Flow), cmp.Compare(a, b))
	})
	worst := make([]flowRank, 0, min(n, len(idx)))
	for lo := 0; lo < len(idx); {
		f := flowRank{id: t.Spans[idx[lo]].Flow, lo: lo}
		start, end := t.Spans[idx[lo]].Start, sim.Time(0)
		for f.hi = lo; f.hi < len(idx) && t.Spans[idx[f.hi]].Flow == f.id; f.hi++ {
			s := &t.Spans[idx[f.hi]]
			if strings.Contains(s.Stage, "retransmit") {
				f.retx++
			}
			start, end = min(start, s.Start), max(end, s.End)
		}
		f.dur, lo = int64(end-start), f.hi
		// Keep the n worst by insertion, worst first.
		if i := sort.Search(len(worst), func(i int) bool { return f.worse(&worst[i]) }); i < n {
			worst = slices.Insert(worst[:min(len(worst), n-1)], i, f)
		}
	}
	if len(worst) == 0 {
		return nil
	}
	flows := make([]Flow, len(worst))
	for i, w := range worst {
		node, msg := trace.IDParts(w.id)
		f := Flow{ID: strconv.FormatUint(w.id, 16), Node: node, Msg: msg, Retx: w.retx, DurNs: w.dur,
			Spans: make([]FlowSpan, 0, w.hi-w.lo)}
		for _, j := range idx[w.lo:w.hi] {
			s := &t.Spans[j]
			f.Spans = append(f.Spans, FlowSpan{Stage: s.Stage, Where: s.Where, StartNs: int64(s.Start), EndNs: int64(s.End)})
		}
		slices.SortStableFunc(f.Spans, func(a, b FlowSpan) int { return cmp.Compare(a.StartNs, b.StartNs) })
		flows[i] = f
	}
	return flows
}

// flowRank is one flow as WorstFlows ranks it: its spans are
// idx[lo:hi], dur runs from the first start to the last end (or 0,
// whichever is later).
type flowRank struct {
	id     uint64
	retx   int
	dur    int64
	lo, hi int
}

// worse reports whether f ranks before o: more retransmits, then
// longer, then the smaller hex id as text ("100" before "ff"), read
// through stack buffers.
func (f *flowRank) worse(o *flowRank) bool {
	if f.retx != o.retx {
		return f.retx > o.retx
	}
	if f.dur != o.dur {
		return f.dur > o.dur
	}
	var a, b [16]byte
	return bytes.Compare(strconv.AppendUint(a[:0], f.id, 16), strconv.AppendUint(b[:0], o.id, 16)) < 0
}

// Encode renders the bundle as canonical indented JSON (trailing
// newline included). Byte-identical across runs for identical state.
func (b *Bundle) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeBundle parses and validates a bundle.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("postmortem: %w", err)
	}
	if b.Schema != BundleSchema {
		return nil, fmt.Errorf("postmortem: schema %q, want %q", b.Schema, BundleSchema)
	}
	return &b, nil
}

// Text renders the bundle as a human-readable postmortem report.
func (b *Bundle) Text() string {
	var w strings.Builder
	fmt.Fprintf(&w, "postmortem bundle (%s, kind=%s)\n", b.Schema, b.Kind)
	if b.ID != "" {
		fmt.Fprintf(&w, "experiment: %s\n", b.ID)
	}
	fmt.Fprintf(&w, "emitted at: %.3fms virtual\n", float64(b.AtNs)/float64(sim.Millisecond))
	if b.Trigger != nil {
		fmt.Fprintf(&w, "trigger: %s [%s] v=%.3f bound=%.3f\n", b.Trigger.Rule, b.Trigger.Severity, b.Trigger.V, b.Trigger.Bound)
		if b.Trigger.Desc != "" {
			fmt.Fprintf(&w, "  rule: %s\n", b.Trigger.Desc)
		}
	}
	for _, r := range b.Reasons {
		fmt.Fprintf(&w, "reason: %s\n", r)
	}
	if len(b.Alerts) > 0 {
		fmt.Fprintf(&w, "\nalert timeline (%d transitions):\n", len(b.Alerts))
		for _, t := range b.Alerts {
			edge := "resolved"
			if t.Firing {
				edge = "FIRING"
			}
			fmt.Fprintf(&w, "%10.3fms  %-8s %-4s %-20s v=%.3f bound=%.3f\n",
				float64(t.AtNs)/float64(sim.Millisecond), edge, t.Severity, t.Rule, t.V, t.Bound)
		}
	}
	if len(b.Series) > 0 {
		var names []string
		for name := range b.Series {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&w, "\nderived series around the trip (last %d points each):\n", seriesTail)
		for _, name := range names {
			pts := b.Series[name]
			if len(pts) > seriesTail {
				pts = pts[len(pts)-seriesTail:]
			}
			fmt.Fprintf(&w, "  %s:", name)
			for _, p := range pts {
				fmt.Fprintf(&w, " %.1fms=%.2f/%.2f", float64(p.AtNs)/float64(sim.Millisecond), p.V, p.Bound)
			}
			w.WriteByte('\n')
		}
	}
	if b.Diff != nil {
		fmt.Fprintf(&w, "\nwindow snapshot diff (non-zero counters):\n")
		n := 0
		for _, c := range b.Diff.Counters {
			if c.Value == 0 {
				continue
			}
			fmt.Fprintf(&w, "  %-40s %d\n", c.Key.String(), c.Value)
			if n++; n >= diffTail {
				fmt.Fprintf(&w, "  ... (%d more)\n", nonZero(b.Diff)-n)
				break
			}
		}
	}
	if len(b.Flight) > 0 {
		fmt.Fprintf(&w, "\nflight recorder (%d events, last %d):\n", len(b.Flight), flightTail)
		evs := b.Flight
		if len(evs) > flightTail {
			evs = evs[len(evs)-flightTail:]
		}
		for _, e := range evs {
			where := "-"
			if e.Node >= 0 {
				where = fmt.Sprintf("n%d", e.Node)
			}
			fmt.Fprintf(&w, "%10.3fms %-4s %-16s %-16s %s\n",
				float64(e.T)/float64(sim.Millisecond), where, e.Layer, e.What, e.Detail)
		}
	}
	for _, f := range b.Flows {
		fmt.Fprintf(&w, "\nworst flow %s (node %d, msg %d): %d retransmits, %.2fus\n",
			f.ID, f.Node, f.Msg, f.Retx, float64(f.DurNs)/1000)
		for _, s := range f.Spans {
			fmt.Fprintf(&w, "%9.2fus  %-32s %-14s %8.2fus\n",
				float64(s.StartNs)/1000, s.Stage, s.Where, float64(s.EndNs-s.StartNs)/1000)
		}
	}
	if len(b.Slow) > 0 {
		fmt.Fprintf(&w, "\nslow requests (%d):\n", len(b.Slow))
		for i, s := range b.Slow {
			fmt.Fprintf(&w, "#%-3d %9.2fus  %-4s key=%-8s u%04d node%d shard%d flow=%s  [%s]\n",
				i+1, float64(s.LatNs)/1000, s.Kind, s.Key, s.User, s.Node, s.Shard, s.Flow, s.Why)
		}
	}
	return w.String()
}

const (
	seriesTail = 6
	diffTail   = 24
	flightTail = 16
	slowTail   = 8
)

func nonZero(s *obs.Snapshot) int {
	n := 0
	for _, c := range s.Counters {
		if c.Value != 0 {
			n++
		}
	}
	return n
}
