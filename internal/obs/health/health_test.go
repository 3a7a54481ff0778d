package health

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// stepper drives an engine the way a cluster does: its Obs samples
// the registry once a second of virtual time, into a series of
// stepperDepth, and every tick runs the engine.
type stepper struct {
	r   *obs.Registry
	e   *Engine
	o   *obs.Obs
	env *sim.Env
}

const stepperDepth = 64

func newStepper(rules []*Rule) *stepper {
	o := obs.New()
	s := &stepper{r: o.Reg, e: NewEngine(rules), o: o, env: sim.NewEnv(1)}
	s.e.Attach(o)
	s.env.At(sim.Forever-1, func() {}) // keeps the sampler armed
	o.StartSampler(s.env, sim.Second, stepperDepth)
	return s
}

// counter publishes the returned variable as one registry counter.
func (s *stepper) counter(node int, layer, name string) *uint64 {
	v := new(uint64)
	s.r.RegisterCollector(func(set obs.Set) { set(node, layer, name, *v) })
	return v
}

// tick runs the next sampler tick.
func (s *stepper) tick() { s.env.RunUntil(s.env.Now() + sim.Second) }

func TestThresholdForSamplesAndResolve(t *testing.T) {
	s := newStepper([]*Rule{Threshold("drop-rate", Rate("nic", "drops"), 5).ForSamples(2)})
	drops := s.counter(0, "nic", "drops")
	s.tick() // seeds the window, no evaluation
	*drops += 10
	s.tick() // rate 10/s > 5: consec 1, must NOT fire yet
	if got := len(s.e.Transitions()); got != 0 {
		t.Fatalf("fired after one sample with For=2: %d transitions", got)
	}
	*drops += 10
	s.tick() // consec 2: fires at exactly t=3s
	s.tick() // healthy window: resolves at t=4s
	trs := s.e.Transitions()
	if len(trs) != 2 {
		t.Fatalf("transitions = %+v", trs)
	}
	if !trs[0].Firing || trs[0].AtNs != int64(3*sim.Second) || trs[0].Rule != "drop-rate" {
		t.Fatalf("firing edge = %+v", trs[0])
	}
	if trs[1].Firing || trs[1].AtNs != int64(4*sim.Second) {
		t.Fatalf("resolve edge = %+v", trs[1])
	}
	if trs[0].V != 10 || trs[0].Bound != 5 {
		t.Fatalf("firing v/bound = %v/%v", trs[0].V, trs[0].Bound)
	}
	// Exactly one bundle: firing edges emit, resolve edges do not.
	if len(s.e.Bundles()) != 1 {
		t.Fatalf("bundles = %d", len(s.e.Bundles()))
	}
	if s.e.FiredCount("drop-rate") != 1 || s.e.FiredCount("") != 1 {
		t.Fatalf("fired counts = %d/%d", s.e.FiredCount("drop-rate"), s.e.FiredCount(""))
	}
}

func TestDivergenceBoundTracksReference(t *testing.T) {
	s := newStepper([]*Rule{Divergence("rail-div",
		QuantileOf("fabric:a", "wire_ns", 0.99),
		QuantileOf("fabric:b", "wire_ns", 0.99),
		2, 10000)})
	ha := s.r.Histogram(-1, "fabric:a", "wire_ns")
	hb := s.r.Histogram(-1, "fabric:b", "wire_ns")
	s.tick()
	for i := 0; i < 8; i++ { // both rails healthy and similar
		ha.Observe(1000)
		hb.Observe(1000)
	}
	s.tick()
	if len(s.e.Transitions()) != 0 {
		t.Fatalf("diverged while similar: %+v", s.e.Transitions())
	}
	for i := 0; i < 8; i++ { // rail a degrades 100x, rail b unchanged
		ha.Observe(100000)
		hb.Observe(1000)
	}
	s.tick()
	trs := s.e.Transitions()
	if len(trs) != 1 || !trs[0].Firing {
		t.Fatalf("transitions = %+v", trs)
	}
	if trs[0].V <= trs[0].Bound || trs[0].Bound < 10000 {
		t.Fatalf("v=%v bound=%v", trs[0].V, trs[0].Bound)
	}
}

func TestBurnRateScalesByBudget(t *testing.T) {
	// SLO: 90% of observations under 10us. Budget is 10%; half the
	// window blowing the bound is a 5x burn.
	s := newStepper([]*Rule{BurnRate("slo", "nic", "lat_ns", 10000, 0.9, 2)})
	h := s.r.Histogram(0, "nic", "lat_ns")
	s.tick()
	for i := 0; i < 4; i++ {
		h.Observe(1000)
		h.Observe(1000000)
	}
	s.tick()
	trs := s.e.Transitions()
	if len(trs) != 1 || !trs[0].Firing {
		t.Fatalf("transitions = %+v", trs)
	}
	if trs[0].V < 4 || trs[0].V > 6 {
		t.Fatalf("burn = %v, want ~5", trs[0].V)
	}
}

func TestGaugeAndDeltaSources(t *testing.T) {
	s := newStepper([]*Rule{
		Threshold("backlog", GaugeOf("nic", "ring_depth"), 8),
		Threshold("trips", Delta("kernel", "watchdog_trips"), 0).Crit(),
	})
	var depth int64
	s.r.RegisterGaugeCollector(func(set obs.GaugeSet) { set(0, "nic", "ring_depth", depth) })
	trips := s.counter(1, "kernel", "watchdog_trips")
	s.tick()
	depth = 20
	*trips++
	s.tick()
	trs := s.e.Transitions()
	if len(trs) != 2 {
		t.Fatalf("transitions = %+v", trs)
	}
	if trs[0].Rule != "backlog" || trs[0].V != 20 {
		t.Fatalf("gauge edge = %+v", trs[0])
	}
	if trs[1].Rule != "trips" || trs[1].Severity != "crit" || trs[1].V != 1 {
		t.Fatalf("delta edge = %+v", trs[1])
	}
}

func TestBundleDeterministicEncodeAndDecode(t *testing.T) {
	run := func() []byte {
		s := newStepper([]*Rule{Threshold("x", Rate("nic", "drops"), 1)})
		s.o.Event(1, 0, "nic", "crash", 7, "detail")
		drops := s.counter(0, "nic", "drops")
		s.tick()
		*drops += 100
		s.tick()
		bs := s.e.Bundles()
		if len(bs) != 1 {
			t.Fatalf("bundles = %d", len(bs))
		}
		data, err := bs[0].Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("bundle encoding not byte-deterministic")
	}
	dec, err := DecodeBundle(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Schema != BundleSchema || dec.Kind != "alert" || dec.Trigger.Rule != "x" {
		t.Fatalf("decoded = %+v", dec)
	}
	if len(dec.Flight) != 1 || dec.Flight[0].What != "crash" {
		t.Fatalf("flight = %+v", dec.Flight)
	}
	if dec.Diff == nil {
		t.Fatal("bundle missing window diff")
	}
	if !strings.Contains(dec.Text(), "trigger: x") {
		t.Fatalf("text missing trigger:\n%s", dec.Text())
	}
	if _, err := DecodeBundle([]byte(`{"schema":"nope/v9"}`)); err == nil {
		t.Fatal("bad schema accepted")
	}
}

func TestGateBundle(t *testing.T) {
	r := obs.NewRegistry()
	r.RegisterCollector(func(set obs.Set) { set(0, "nic", "drops", 3) })
	snap := r.Snapshot(55)
	b := GateBundle("pingpong", int64(snap.At), []string{"latency p50_us 9 outside [1 2]"}, snap, nil)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != "gate" || dec.ID != "pingpong" || len(dec.Reasons) != 1 {
		t.Fatalf("decoded = %+v", dec)
	}
	if !strings.Contains(dec.Text(), "reason: latency p50_us") {
		t.Fatalf("text missing reason:\n%s", dec.Text())
	}
}

func TestFramesReplayHistoricalFiringState(t *testing.T) {
	s := newStepper([]*Rule{Threshold("spike", Rate("nic", "msgs_sent"), 5)})
	sent := s.counter(0, "nic", "msgs_sent")
	s.tick()
	*sent += 100
	s.tick() // fires here
	s.tick() // resolves here
	frames := s.e.Frames()
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	if !strings.Contains(frames[0], "firing: spike") {
		t.Fatalf("frame 0 lost its historical firing state:\n%s", frames[0])
	}
	if !strings.Contains(frames[1], "firing: none") {
		t.Fatalf("frame 1 should be healthy:\n%s", frames[1])
	}
	if !strings.Contains(s.e.TopText(), "alerts (2)") {
		t.Fatalf("top text:\n%s", s.e.TopText())
	}
}

func TestTimelineTextEmpty(t *testing.T) {
	e := NewEngine(DefaultRules())
	if e.TimelineText() != "(no alerts)\n" {
		t.Fatalf("timeline = %q", e.TimelineText())
	}
	if e.FiredCount("") != 0 || len(e.Transitions()) != 0 {
		t.Fatal("fresh engine not silent")
	}
}

// WorstFlows groups the tracer's spans in one pass; each flow must come
// out exactly as Tracer.FlowSpans defines it (start-sorted, ties in
// recording order), ranked by retransmits, then duration, then id.
func TestWorstFlowsGroupsAndRanks(t *testing.T) {
	tr := trace.New()
	a, b, c := trace.ID(0, 1), trace.ID(1, 2), trace.ID(2, 3)
	tr.AddFlow("send", "host0", a, 10, 20)
	tr.AddFlow("send", "host1", b, 0, 5)
	tr.Add("flowless", "host0", 0, 1000)
	tr.AddFlow("wire", "wire:myrinet", a, 5, 10) // recorded late, starts first
	tr.AddFlow("nic: retransmit", "nic1", b, 5, 6)
	tr.AddFlow("tie", "nic1", b, 5, 9)
	tr.AddFlow("send", "host2", c, 0, 100)

	got := WorstFlows(tr, 10)
	if len(got) != 3 || got[0].Msg != 2 || got[1].Msg != 3 || got[2].Msg != 1 {
		t.Fatalf("ranking = %+v, want b (1 retransmit), c (100ns), a (15ns)", got)
	}
	if got[0].Retx != 1 || got[0].DurNs != 9 || got[1].DurNs != 100 || got[2].DurNs != 15 {
		t.Fatalf("retx/dur = %+v", got)
	}
	for _, f := range got {
		want := tr.FlowSpans(trace.ID(f.Node, f.Msg))
		if len(f.Spans) != len(want) {
			t.Fatalf("flow %s: %d spans, want %d", f.ID, len(f.Spans), len(want))
		}
		for i, s := range want {
			if f.Spans[i] != (FlowSpan{Stage: s.Stage, Where: s.Where, StartNs: int64(s.Start), EndNs: int64(s.End)}) {
				t.Fatalf("flow %s span %d = %+v, want %+v", f.ID, i, f.Spans[i], s)
			}
		}
	}
	if top := WorstFlows(tr, 1); len(top) != 1 || top[0].Msg != 2 {
		t.Fatalf("top 1 = %+v", top)
	}
	if WorstFlows(trace.New(), 3) != nil || WorstFlows(nil, 3) != nil || WorstFlows(tr, 0) != nil {
		t.Fatal("empty, nil or n=0 must yield nil")
	}
}

// oldWorstFlows is the WorstFlows that formatted every flow's hex id,
// grouped every span and sorted every flow to keep n, kept verbatim as
// the model TestWorstFlowsMatchesModel checks against.
func oldWorstFlows(t *trace.Tracer, n int) []Flow {
	if t == nil || n <= 0 {
		return nil
	}
	// One pass groups the spans by flow, flows in first-span order.
	var flows []Flow
	index := make(map[uint64]int)
	for _, s := range t.Spans {
		if s.Flow == 0 {
			continue
		}
		i, ok := index[s.Flow]
		if !ok {
			i = len(flows)
			index[s.Flow] = i
			node, msg := trace.IDParts(s.Flow)
			flows = append(flows, Flow{ID: fmt.Sprintf("%x", s.Flow), Node: node, Msg: msg})
		}
		f := &flows[i]
		if strings.Contains(s.Stage, "retransmit") {
			f.Retx++
		}
		f.Spans = append(f.Spans, FlowSpan{Stage: s.Stage, Where: s.Where,
			StartNs: int64(s.Start), EndNs: int64(s.End)})
	}
	for i := range flows {
		f := &flows[i]
		slices.SortStableFunc(f.Spans, func(a, b FlowSpan) int { return cmp.Compare(a.StartNs, b.StartNs) })
		var hi int64
		for _, s := range f.Spans {
			hi = max(hi, s.EndNs)
		}
		f.DurNs = hi - f.Spans[0].StartNs
	}
	sort.SliceStable(flows, func(i, j int) bool {
		if flows[i].Retx != flows[j].Retx {
			return flows[i].Retx > flows[j].Retx
		}
		if flows[i].DurNs != flows[j].DurNs {
			return flows[i].DurNs > flows[j].DurNs
		}
		return flows[i].ID < flows[j].ID
	})
	if len(flows) > n {
		flows = flows[:n]
	}
	return flows
}

// randomTracer records spans on flows drawn from a small set that holds
// 0xff and 0x100 (the ids whose text order, "100" < "ff", is not their
// numeric order), with few distinct durations and retransmit counts so
// that ranks tie often, plus flowless spans.
func randomTracer(rng *rand.Rand, spans int) *trace.Tracer {
	ids := []uint64{0xff, 0x100, 0xf, 0x10, trace.ID(0, 9), trace.ID(3, 0xff), 1<<63 | 5}
	stages := []string{"send", "wire", "nic: retransmit", "recv"}
	tr := trace.New()
	for i := 0; i < spans; i++ {
		var flow uint64
		if rng.Intn(6) != 0 {
			flow = ids[rng.Intn(len(ids))]
		}
		start := sim.Time(rng.Intn(4) * 10)
		tr.AddFlow(stages[rng.Intn(len(stages))], "host0", flow, start, start+sim.Time(rng.Intn(3)*5))
	}
	return tr
}

// WorstFlows must return exactly what the old group-format-sort body
// returned, on random tracers full of ties. Breaking the id tie
// numerically instead of as text turns this red: 0x100 ranks before
// 0xff.
func TestWorstFlowsMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		tr := randomTracer(rng, rng.Intn(24))
		for _, n := range []int{1, 2, 3, 10} {
			if got, want := WorstFlows(tr, n), oldWorstFlows(tr, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, n=%d:\n got %+v\nwant %+v", round, n, got, want)
			}
		}
	}
	tr := trace.New()
	tr.AddFlow("send", "host0", 0xff, 0, 10)
	tr.AddFlow("send", "host0", 0x100, 0, 10)
	if got := WorstFlows(tr, 1); len(got) != 1 || got[0].ID != "100" {
		t.Fatalf("tie between 0xff and 0x100 = %+v, want 100 first", got)
	}
}

// Only the winners get an id string and a span list: ranking 1 000
// flows costs the allocations of ranking 10.
func TestWorstFlowsAllocs(t *testing.T) {
	allocs := func(flows int) float64 {
		tr := trace.NewCapped(4096)
		for i := 0; i < 4096; i++ {
			f := trace.ID(i%8, uint64(i%flows))
			tr.AddFlow("send", "host0", f, sim.Time(i), sim.Time(i+i%7))
		}
		return testing.AllocsPerRun(20, func() { WorstFlows(tr, 3) })
	}
	few, many := allocs(10), allocs(1000)
	t.Logf("WorstFlows(3) over 4096 spans: %v allocations for 10 flows, %v for 1000", few, many)
	if many > few {
		t.Fatalf("1000 flows cost %v allocations, 10 flows %v", many, few)
	}
}

// A steady registry that fires no rule: once the sampler's series is
// full, a tick refills the sample it evicts and the engine evaluates
// all of DefaultRules (windowed quantiles and burn rates over merged
// histograms included) without allocating.
func TestStepAllocs(t *testing.T) {
	s := newStepper(DefaultRules())
	for n := 0; n < 4; n++ {
		for _, c := range []string{"msgs_sent", "retransmits", "crc_drops"} {
			v := s.counter(n, "nic", c)
			*v = uint64(n)
		}
	}
	hists := []*obs.Histogram{
		s.r.Histogram(0, "nic", "msg_latency_ns"), s.r.Histogram(1, "nic", "msg_latency_ns"),
		s.r.Histogram(0, "svc", "req_latency_ns"),
		s.r.Histogram(-1, "fabric:myrinet", "wire_ns"), s.r.Histogram(-1, "fabric:nwrc-mesh", "wire_ns"),
	}
	i := 0
	tick := func() {
		for j, h := range hists {
			h.ObserveTrace(int64(1000+100*j+i%50), uint64(i+1))
		}
		i++
		s.tick()
	}
	for i < 2*stepperDepth {
		tick()
	}
	if got := testing.AllocsPerRun(100, tick); got != 0 {
		t.Fatalf("%v allocations per tick", got)
	}
	if n := s.o.NumSamples(); n != stepperDepth {
		t.Fatalf("the series holds %d samples, want %d", n, stepperDepth)
	}
	if len(s.e.Transitions()) != 0 {
		t.Fatalf("a steady registry fired: %+v", s.e.Transitions())
	}
	if pts := s.e.Series("rail-divergence"); len(pts) != stepperDepth || pts[len(pts)-1].V == 0 {
		t.Fatalf("rail-divergence read no window, or kept %d points: %+v", len(pts), pts)
	}
}

// Nothing outside the sampler's series points into a snapshot the
// sampler refills: a Diff and a Merge of two samples, and the bundle an
// alert emits, read byte for byte the same after their source samples
// were refilled 3 × depth times with other exemplars.
func TestResultsOutliveRefilledSamples(t *testing.T) {
	s := newStepper([]*Rule{Threshold("spike", Rate("nic", "msgs_sent"), 5)})
	sent := s.counter(0, "nic", "msgs_sent")
	h := s.r.Histogram(0, "nic", "msg_latency_ns")
	id := uint64(0)
	tick := func() {
		for v := int64(1); v < 1<<20; v *= 4 { // a new exemplar in ten buckets
			id++
			h.ObserveTrace(v, id)
		}
		s.tick()
	}
	for i := 0; i < stepperDepth; i++ {
		tick()
	}
	*sent += 100
	tick() // the alert fires on a full series
	if len(s.e.Bundles()) != 1 {
		t.Fatalf("%d bundles, want 1", len(s.e.Bundles()))
	}
	n := s.o.NumSamples()
	first, last := s.o.SampleAt(0).Snap, s.o.SampleAt(n-1).Snap
	results := []func() ([]byte, error){
		last.Diff(first).JSON,
		obs.Merge(first, last).JSON,
		s.e.Bundles()[0].Encode,
	}
	var want []string
	for _, r := range results {
		data, err := r()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "trace_id") {
			t.Fatalf("result %d carries no exemplar, so cannot show one changing:\n%s", len(want), data)
		}
		want = append(want, string(data))
	}
	for i := 0; i < 3*stepperDepth; i++ {
		tick()
	}
	for i, r := range results {
		if data, _ := r(); string(data) != want[i] {
			t.Errorf("result %d changed after its sources were refilled:\n got %s\nwant %s", i, data, want[i])
		}
	}
}
