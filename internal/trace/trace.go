// Package trace records per-stage timeline spans on the virtual clock.
// The protocol layers mark the stages of a message's journey — user
// compose, kernel trap, PIO descriptor fill, NIC protocol processing,
// wire time, receive-side DMA, completion polling — and the figure
// harness turns the spans into the transmission/reception/latency
// timeline breakdowns of the paper's Figures 5–7.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"bcl/internal/sim"
)

// Span is one labelled interval on the virtual clock. Flow, when
// non-zero, is the causal trace id of the message the span belongs to
// (see ID); spans sharing a flow are linked by Chrome flow events in
// ChromeTrace and grouped by FlowTimeline.
type Span struct {
	Stage string
	Where string // "host0", "nic1", "wire:myrinet", ...
	Start sim.Time
	End   sim.Time
	Flow  uint64
}

// ID mints the causal trace id for message msg sent from node: unique
// across the cluster because the message id is unique per NIC. The
// node occupies the bits above 40 (offset by one so node 0 still
// yields a non-zero id); 2^40 message ids per NIC is beyond any run.
func ID(node int, msg uint64) uint64 {
	return uint64(node+1)<<40 | (msg & (1<<40 - 1))
}

// IDParts splits a trace id back into (node, msg).
func IDParts(id uint64) (node int, msg uint64) {
	return int(id>>40) - 1, id & (1<<40 - 1)
}

// Dur returns the span length.
func (s Span) Dur() sim.Time { return s.End - s.Start }

// Tracer collects spans. A nil *Tracer is valid and records nothing,
// so the fast paths stay clean of conditionals.
//
// By default the span slice grows without bound — right for short
// experiment runs that post-process every span. Always-on tracing at
// service scale sets a cap with SetCap: Spans is then the most recent
// ≤ cap spans, oldest first, and Dropped counts exactly the spans that
// fell off the front.
//
// Window invariant: a capped tracer keeps Spans as a window sliding
// over one backing array of 2·cap spans, allocated once. Evicting the
// oldest span reslices the window forward; when the window reaches the
// end of the array the ≤ cap-1 live spans are copied back to the front,
// which buys cap+1 further appends. Recording a span is therefore a
// store plus, amortised, less than one span copied — O(1) and
// allocation-free in steady state — and Spans stays what every reader
// indexes: one contiguous []Span, valid until the next Add.
type Tracer struct {
	Spans   []Span
	cap     int
	dropped uint64
	window  []Span // capped: the 2·cap backing array Spans slides over
}

// New returns an empty unbounded tracer.
func New() *Tracer { return &Tracer{} }

// NewCapped returns a tracer bounded to at most n retained spans.
func NewCapped(n int) *Tracer {
	t := New()
	t.SetCap(n)
	return t
}

// SetCap bounds the tracer to at most n retained spans; n <= 0 removes
// the bound, keeping the retained spans and going back to plain
// append. Shrinking below the current length evicts the oldest spans
// immediately. Nil-safe.
func (t *Tracer) SetCap(n int) {
	if t == nil {
		return
	}
	t.cap = n
	if n <= 0 {
		t.window = nil
		return
	}
	if evict := len(t.Spans) - n; evict > 0 {
		t.dropped += uint64(evict)
		t.Spans = t.Spans[evict:]
	}
}

// Dropped returns how many spans were evicted to honor the cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Add records a span.
func (t *Tracer) Add(stage, where string, start, end sim.Time) {
	t.AddFlow(stage, where, 0, start, end)
}

// AddFlow records a span tagged with a causal trace id.
func (t *Tracer) AddFlow(stage, where string, flow uint64, start, end sim.Time) {
	if t == nil {
		return
	}
	if t.cap > 0 {
		if len(t.Spans) >= t.cap {
			// Oldest-first eviction keeps the most recent window, the
			// part a postmortem actually wants.
			evict := len(t.Spans) - t.cap + 1
			t.dropped += uint64(evict)
			t.Spans = t.Spans[evict:]
		}
		if len(t.Spans) == cap(t.Spans) {
			// No room behind the window (or no window yet): move the
			// live spans to the front of the backing array.
			if cap(t.window) != 2*t.cap {
				t.window = make([]Span, 0, 2*t.cap)
			}
			t.Spans = append(t.window, t.Spans...)
		}
	}
	t.Spans = append(t.Spans, Span{Stage: stage, Where: where, Start: start, End: end, Flow: flow})
}

// Do runs fn and records its duration as a span (using the process
// clock).
func (t *Tracer) Do(p *sim.Proc, stage, where string, fn func()) {
	t.DoFlow(p, stage, where, 0, fn)
}

// DoFlow runs fn and records its duration as a span on the given flow.
func (t *Tracer) DoFlow(p *sim.Proc, stage, where string, flow uint64, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := p.Now()
	fn()
	t.AddFlow(stage, where, flow, start, p.Now())
}

// Reset drops all recorded spans; the backing array, the cap and the
// Dropped count stay.
func (t *Tracer) Reset() {
	if t != nil {
		t.Spans = t.Spans[:0]
	}
}

// Totals sums span durations by stage, preserving first-seen order.
func (t *Tracer) Totals() ([]string, map[string]sim.Time) {
	if t == nil {
		return nil, nil
	}
	var order []string
	totals := make(map[string]sim.Time)
	for _, s := range t.Spans {
		if _, ok := totals[s.Stage]; !ok {
			order = append(order, s.Stage)
		}
		totals[s.Stage] += s.Dur()
	}
	return order, totals
}

// Timeline renders the spans as a text timeline sorted by start time,
// one line per span with offsets in microseconds — the moral
// equivalent of the paper's timeline figures.
func (t *Tracer) Timeline() string {
	if t == nil || len(t.Spans) == 0 {
		return "(no spans)\n"
	}
	spans := append([]Span(nil), t.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	base := spans[0].Start
	var b strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&b, "%9.2fus  %-28s %-7s %8.2fus\n",
			float64(s.Start-base)/1000, s.Stage, s.Where, float64(s.Dur())/1000)
	}
	return b.String()
}

// Flows returns the distinct non-zero flow ids in first-span order.
func (t *Tracer) Flows() []uint64 {
	if t == nil {
		return nil
	}
	seen := map[uint64]bool{}
	var out []uint64
	for _, s := range t.Spans {
		if s.Flow != 0 && !seen[s.Flow] {
			seen[s.Flow] = true
			out = append(out, s.Flow)
		}
	}
	return out
}

// FlowSpans returns the spans of one flow sorted by start time.
func (t *Tracer) FlowSpans(flow uint64) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, s := range t.Spans {
		if s.Flow == flow {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// FlowTimeline renders the spans grouped by causal trace id: one block
// per message, each span on its own line with offsets relative to the
// flow's first span — a message's full story (including retransmits)
// in reading order.
func (t *Tracer) FlowTimeline() string {
	flows := t.Flows()
	if len(flows) == 0 {
		return "(no flows)\n"
	}
	var b strings.Builder
	for i, id := range flows {
		if i > 0 {
			b.WriteByte('\n')
		}
		node, msg := IDParts(id)
		fmt.Fprintf(&b, "flow %x (node %d, msg %d):\n", id, node, msg)
		spans := t.FlowSpans(id)
		base := spans[0].Start
		for _, s := range spans {
			fmt.Fprintf(&b, "%9.2fus  %-32s %-14s %8.2fus\n",
				float64(s.Start-base)/1000, s.Stage, s.Where, float64(s.Dur())/1000)
		}
	}
	return b.String()
}

// StageBreakdown renders per-stage totals with percentages of the
// given whole.
func (t *Tracer) StageBreakdown(total sim.Time) string {
	order, totals := t.Totals()
	var b strings.Builder
	for _, stage := range order {
		d := totals[stage]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(&b, "  %-28s %8.2fus  %5.1f%%\n", stage, float64(d)/1000, pct)
	}
	return b.String()
}
