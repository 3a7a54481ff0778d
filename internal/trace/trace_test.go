package trace

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"bcl/internal/sim"
)

// jsonUnmarshal keeps the test body terse.
func jsonUnmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Add("x", "y", 0, 10) // must not panic
	env := sim.NewEnv(1)
	ran := false
	env.Go("p", func(p *sim.Proc) {
		tr.Do(p, "stage", "host", func() { ran = true })
	})
	env.Run()
	if !ran {
		t.Fatal("nil tracer skipped the body")
	}
	if order, totals := tr.Totals(); order != nil || totals != nil {
		t.Fatal("nil tracer returned data")
	}
}

func TestDoRecordsSpan(t *testing.T) {
	tr := New()
	env := sim.NewEnv(1)
	env.Go("p", func(p *sim.Proc) {
		p.Sleep(5)
		tr.Do(p, "work", "host0", func() { p.Sleep(42) })
	})
	env.Run()
	if len(tr.Spans) != 1 {
		t.Fatalf("spans = %d", len(tr.Spans))
	}
	s := tr.Spans[0]
	if s.Stage != "work" || s.Where != "host0" || s.Start != 5 || s.End != 47 || s.Dur() != 42 {
		t.Fatalf("span = %+v", s)
	}
}

func TestTotalsPreserveOrderAndSum(t *testing.T) {
	tr := New()
	tr.Add("b", "x", 0, 10)
	tr.Add("a", "x", 10, 30)
	tr.Add("b", "x", 30, 35)
	order, totals := tr.Totals()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v", order)
	}
	if totals["b"] != 15 || totals["a"] != 20 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestTimelineFormatting(t *testing.T) {
	tr := New()
	tr.Add("second", "nic0", 2000, 3000)
	tr.Add("first", "host0", 0, 1000)
	out := tr.Timeline()
	// Sorted by start; offsets relative to the first span.
	if !strings.Contains(out, "first") || !strings.Contains(out, "second") {
		t.Fatalf("timeline missing stages:\n%s", out)
	}
	if strings.Index(out, "first") > strings.Index(out, "second") {
		t.Fatal("timeline not sorted by start time")
	}
	if !strings.Contains(out, "0.00us") || !strings.Contains(out, "2.00us") {
		t.Fatalf("offsets wrong:\n%s", out)
	}
	empty := New()
	if empty.Timeline() != "(no spans)\n" {
		t.Fatal("empty timeline wrong")
	}
}

func TestStageBreakdownPercentages(t *testing.T) {
	tr := New()
	tr.Add("half", "x", 0, 50)
	tr.Add("other", "x", 50, 100)
	out := tr.StageBreakdown(100)
	if !strings.Contains(out, "50.0%") {
		t.Fatalf("breakdown missing percentage:\n%s", out)
	}
	// Zero total must not divide by zero.
	if out := tr.StageBreakdown(0); !strings.Contains(out, "0.0%") {
		t.Fatalf("zero-total breakdown:\n%s", out)
	}
}

func TestReset(t *testing.T) {
	tr := New()
	tr.Add("x", "y", 0, 1)
	tr.Reset()
	if len(tr.Spans) != 0 {
		t.Fatal("reset did not clear spans")
	}
	var nilTr *Tracer
	nilTr.Reset() // must not panic
}

func TestChromeTrace(t *testing.T) {
	tr := New()
	tr.Add("send", "host0", 100, 500)
	tr.Add("recv", "nic1", 600, 900)
	out, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := jsonUnmarshal(out, &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	// 2 thread-name metadata + 2 spans.
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	var spanCount int
	for _, e := range events {
		if e["ph"] == "X" {
			spanCount++
			if e["ts"].(float64) < 0.09 {
				t.Fatalf("ts wrong: %v", e["ts"])
			}
		}
	}
	if spanCount != 2 {
		t.Fatalf("span events = %d", spanCount)
	}
	var nilTr *Tracer
	if out, err := nilTr.ChromeTrace(); err != nil || string(out) != "[]" {
		t.Fatalf("nil tracer chrome = %q, %v", out, err)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		node int
		msg  uint64
	}{{0, 0}, {0, 1}, {3, 42}, {255, 1<<40 - 1}} {
		id := ID(tc.node, tc.msg)
		if id == 0 {
			t.Fatalf("ID(%d, %d) = 0", tc.node, tc.msg)
		}
		node, msg := IDParts(id)
		if node != tc.node || msg != tc.msg {
			t.Fatalf("IDParts(ID(%d, %d)) = (%d, %d)", tc.node, tc.msg, node, msg)
		}
	}
}

func TestNilTracerFlowMethodsAreSafe(t *testing.T) {
	var tr *Tracer
	tr.AddFlow("x", "y", 7, 0, 10)
	env := sim.NewEnv(1)
	ran := false
	env.Go("p", func(p *sim.Proc) {
		tr.DoFlow(p, "stage", "host", 7, func() { ran = true })
	})
	env.Run()
	if !ran {
		t.Fatal("nil tracer skipped the DoFlow body")
	}
	if tr.Flows() != nil || tr.FlowSpans(7) != nil {
		t.Fatal("nil tracer returned flow data")
	}
	if tr.FlowTimeline() != "(no flows)\n" {
		t.Fatal("nil tracer flow timeline")
	}
	if tr.Timeline() != "(no spans)\n" {
		t.Fatal("nil tracer timeline")
	}
	if out, err := tr.ChromeTrace(); err != nil || string(out) != "[]" {
		t.Fatalf("nil tracer chrome = %q, %v", out, err)
	}
	tr.Reset()
	tr.Add("x", "y", 0, 1)
	if order, totals := tr.Totals(); order != nil || totals != nil {
		t.Fatal("nil tracer totals")
	}
	if tr.StageBreakdown(100) != "" {
		t.Fatal("nil tracer breakdown")
	}
}

func TestFlowGroupingAndOrder(t *testing.T) {
	tr := New()
	f1 := ID(0, 1)
	f2 := ID(1, 9)
	tr.AddFlow("send", "host0", f1, 0, 10)
	tr.Add("unrelated", "host0", 5, 6) // flow 0: excluded from flows
	tr.AddFlow("send", "host1", f2, 20, 30)
	tr.AddFlow("recv", "nic1", f1, 40, 50)
	flows := tr.Flows()
	if len(flows) != 2 || flows[0] != f1 || flows[1] != f2 {
		t.Fatalf("flows = %v", flows)
	}
	spans := tr.FlowSpans(f1)
	if len(spans) != 2 || spans[0].Stage != "send" || spans[1].Stage != "recv" {
		t.Fatalf("flow spans = %+v", spans)
	}
	out := tr.FlowTimeline()
	if !strings.Contains(out, "(node 0, msg 1)") || !strings.Contains(out, "(node 1, msg 9)") {
		t.Fatalf("flow timeline:\n%s", out)
	}
	if strings.Contains(out, "unrelated") {
		t.Fatal("flow timeline includes flowless span")
	}
}

func TestChromeTraceFlowEvents(t *testing.T) {
	tr := New()
	f := ID(2, 5)
	tr.AddFlow("send", "host0", f, 100, 200)
	tr.AddFlow("wire", "wire:myrinet", f, 200, 300)
	tr.AddFlow("recv", "nic1", f, 300, 400)
	tr.AddFlow("lonely", "host1", ID(0, 7), 50, 60) // single span: no arrows
	out, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := jsonUnmarshal(out, &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	var starts, steps, finishes int
	tids := map[float64]bool{}
	for _, e := range events {
		switch e["ph"] {
		case "s":
			starts++
			tids[e["tid"].(float64)] = true
		case "t":
			steps++
			tids[e["tid"].(float64)] = true
		case "f":
			finishes++
			tids[e["tid"].(float64)] = true
			if e["bp"] != "e" {
				t.Fatalf("finish event missing bp=e: %+v", e)
			}
			if e["name"] != "msg 5" {
				t.Fatalf("flow name = %v", e["name"])
			}
		}
	}
	if starts != 1 || steps != 1 || finishes != 1 {
		t.Fatalf("flow events s/t/f = %d/%d/%d, want 1/1/1", starts, steps, finishes)
	}
	if len(tids) != 3 {
		t.Fatalf("flow events span %d rows, want 3", len(tids))
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() []byte {
		tr := New()
		tr.AddFlow("b", "nic1", ID(1, 2), 10, 20)
		tr.AddFlow("a", "host0", ID(0, 1), 0, 5)
		tr.AddFlow("c", "host0", ID(0, 1), 30, 40)
		tr.AddFlow("d", "nic1", ID(1, 2), 50, 60)
		out, err := tr.ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if string(build()) != string(build()) {
		t.Fatal("chrome trace not byte-identical across identical builds")
	}
}

func TestCappedTracerEvictsOldest(t *testing.T) {
	tr := NewCapped(3)
	if tr.cap != 3 {
		t.Fatalf("cap = %d", tr.cap)
	}
	for i := 0; i < 5; i++ {
		tr.Add("s", "x", sim.Time(i), sim.Time(i+1))
	}
	if len(tr.Spans) != 3 || tr.Dropped() != 2 {
		t.Fatalf("spans = %d dropped = %d", len(tr.Spans), tr.Dropped())
	}
	// The survivors are the most recent window.
	if tr.Spans[0].Start != 2 || tr.Spans[2].Start != 4 {
		t.Fatalf("wrong survivors: %+v", tr.Spans)
	}
}

func TestSetCapShrinkAndUnbound(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.Add("s", "x", sim.Time(i), sim.Time(i+1))
	}
	// Shrinking below the current length evicts immediately.
	tr.SetCap(4)
	if len(tr.Spans) != 4 || tr.Dropped() != 6 || tr.Spans[0].Start != 6 {
		t.Fatalf("after shrink: %d spans, %d dropped, first start %d",
			len(tr.Spans), tr.Dropped(), tr.Spans[0].Start)
	}
	// Removing the bound lets the slice grow again without evictions.
	tr.SetCap(0)
	for i := 0; i < 10; i++ {
		tr.Add("s", "x", 100, 101)
	}
	if len(tr.Spans) != 14 || tr.Dropped() != 6 {
		t.Fatalf("after unbound: %d spans, %d dropped", len(tr.Spans), tr.Dropped())
	}
	// Nil safety.
	var nilTr *Tracer
	nilTr.SetCap(5)
	if nilTr.Dropped() != 0 {
		t.Fatal("nil tracer cap state")
	}
}

// refTracer is the capped tracer as it was before the sliding window:
// evict by shifting every retained span down one slot. O(cap) per span,
// obviously right, and kept here as the model the real one must match.
type refTracer struct {
	spans   []Span
	cap     int
	dropped uint64
}

func (r *refTracer) setCap(n int) {
	r.cap = n
	if n > 0 && len(r.spans) > n {
		evict := len(r.spans) - n
		r.dropped += uint64(evict)
		r.spans = append(r.spans[:0], r.spans[evict:]...)
	}
}

func (r *refTracer) addFlow(s Span) {
	if r.cap > 0 && len(r.spans) >= r.cap {
		evict := len(r.spans) - r.cap + 1
		r.dropped += uint64(evict)
		r.spans = append(r.spans[:0], r.spans[evict:]...)
	}
	r.spans = append(r.spans, s)
}

func (r *refTracer) reset() { r.spans = r.spans[:0] }

// Tracer ops for the model-equivalence tests, one byte each; the
// SetCap argument is the following byte.
const (
	opReset  = 0xff
	opUncap  = 0xfe
	opSetCap = 0xfd // anything below records a span
)

// checkAgainstModel replays ops on a Tracer and on the reference model,
// comparing every observable after every step.
func checkAgainstModel(t *testing.T, ops []byte) {
	t.Helper()
	tr, ref := New(), &refTracer{}
	var seq uint64
	for i := 0; i < len(ops); i++ {
		switch op := ops[i]; {
		case op == opReset:
			tr.Reset()
			ref.reset()
		case op == opUncap:
			tr.SetCap(0)
			ref.setCap(0)
		case op == opSetCap && i+1 < len(ops):
			i++
			n := int(ops[i]%9) + 1 // 1..9: small, so windows wrap often
			tr.SetCap(n)
			ref.setCap(n)
		default:
			seq++
			s := Span{Stage: "s", Where: "w", Start: sim.Time(seq), End: sim.Time(seq + uint64(op)), Flow: seq}
			tr.AddFlow(s.Stage, s.Where, s.Flow, s.Start, s.End)
			ref.addFlow(s)
		}
		if tr.cap != ref.cap || tr.Dropped() != ref.dropped || len(tr.Spans) != len(ref.spans) {
			t.Fatalf("step %d (op %#x): cap/dropped/len = %d/%d/%d, model %d/%d/%d",
				i, ops[i], tr.cap, tr.Dropped(), len(tr.Spans), ref.cap, ref.dropped, len(ref.spans))
		}
		for j := range ref.spans {
			if tr.Spans[j] != ref.spans[j] {
				t.Fatalf("step %d (op %#x): Spans[%d] = %+v, model %+v", i, ops[i], j, tr.Spans[j], ref.spans[j])
			}
		}
	}
}

// adds is n span-recording ops; setCap is SetCap(n) for n in 1..9.
func adds(n int) []byte   { return make([]byte, n) }
func setCap(n int) []byte { return []byte{opSetCap, byte(n - 1)} }

var cappedTracerCases = []struct {
	name string
	ops  []byte
}{
	{"cap 1", slices.Concat(setCap(1), adds(7))},
	{"wrap at exactly 2*cap", slices.Concat(setCap(3), adds(4*2*3+2))},
	{"shrink while full", slices.Concat(setCap(7), adds(20), setCap(2), adds(9), setCap(1), adds(5))},
	{"grow while full", slices.Concat(setCap(2), adds(11), setCap(8), adds(30))},
	{"cap an unbounded tracer below its length", slices.Concat(adds(25), setCap(4), adds(25))},
	{"cap an unbounded tracer above its length", slices.Concat(adds(3), setCap(5), adds(25))},
	{"uncap keeps the retained spans", slices.Concat(setCap(3), adds(10), []byte{opUncap}, adds(40), setCap(3), adds(10))},
	{"reset mid-window", slices.Concat(setCap(4), adds(7), []byte{opReset}, adds(3), []byte{opReset}, adds(30))},
	{"reset then recap", slices.Concat(setCap(8), adds(20), []byte{opReset}, setCap(2), adds(9))},
	{"same cap again", slices.Concat(setCap(4), adds(9), setCap(4), adds(9))},
}

func TestCappedTracerMatchesShiftModel(t *testing.T) {
	for _, tc := range cappedTracerCases {
		t.Run(tc.name, func(t *testing.T) { checkAgainstModel(t, tc.ops) })
	}
}

func FuzzCappedTracer(f *testing.F) {
	for _, tc := range cappedTracerCases {
		f.Add(tc.ops)
	}
	f.Fuzz(checkAgainstModel)
}

func TestCappedAddFlowDoesNotAllocate(t *testing.T) {
	// From empty: the Tracer and its window, not append growing 1 -> cap.
	if n := testing.AllocsPerRun(10, func() {
		tr := NewCapped(64)
		for i := 0; i < 200; i++ {
			tr.AddFlow("s", "x", 1, 0, 1)
		}
	}); n > 2 {
		t.Fatalf("filling a fresh capped tracer allocates %v times, want the window once", n)
	}
	tr := NewCapped(64)
	for i := 0; i < 200; i++ {
		tr.AddFlow("s", "x", 1, 0, 1)
	}
	// 1000 runs cross the copy-back seven times.
	if n := testing.AllocsPerRun(1000, func() { tr.AddFlow("s", "x", 1, 0, 1) }); n != 0 {
		t.Fatalf("steady-state capped AddFlow allocates %v times per span", n)
	}
	tr.Reset()
	if n := testing.AllocsPerRun(1000, func() { tr.AddFlow("s", "x", 1, 0, 1) }); n != 0 {
		t.Fatalf("capped AddFlow after Reset allocates %v times per span", n)
	}
}

func BenchmarkAddFlow(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		if len(tr.Spans) == 1<<16 {
			tr.Reset() // bound memory; keeps the grown array
		}
		tr.AddFlow("s", "x", 1, 0, 1)
	}
}

func BenchmarkAddFlowCapped(b *testing.B) {
	tr := NewCapped(4096)
	for i := 0; i < 4096; i++ {
		tr.AddFlow("s", "x", 1, 0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AddFlow("s", "x", 1, 0, 1)
	}
}
