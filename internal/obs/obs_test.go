package obs

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"bcl/internal/sim"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	// Bucket i covers (2^(i-1), 2^i]: 1 -> le=1, 2 -> le=2, 3 and 4 ->
	// le=4, 5 -> le=8. Exact powers of two land in their own bucket.
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 8, 9} {
		h.Observe(v)
	}
	p := h.point(Key{0, "l", "n"})
	want := []Bucket{{Le: 1, Count: 2}, {Le: 2, Count: 1}, {Le: 4, Count: 2}, {Le: 8, Count: 2}, {Le: 16, Count: 1}}
	if len(p.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", p.Buckets, want)
	}
	for i, b := range p.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if p.Count != 8 || p.Min != 0 || p.Max != 9 || p.Sum != 32 {
		t.Fatalf("point = %+v", p)
	}
	// Negative observations clamp to zero; a huge value stays in the
	// last bucket instead of indexing out of range.
	h2 := &Histogram{}
	h2.Observe(-5)
	if h2.point(Key{}).Buckets[0].Le != 1 {
		t.Fatal("negative observation not clamped to the first bucket")
	}
	h2.Observe(1 << 62)
	if got := h2.point(Key{}).Buckets[1].Le; got != 1<<(histBuckets-1) {
		t.Fatalf("huge observation le = %d", got)
	}
}

func TestHistogramZeroObservations(t *testing.T) {
	h := &Histogram{}
	p := h.point(Key{1, "nic", "lat"})
	if p.Count != 0 || p.Sum != 0 || p.Min != 0 || p.Max != 0 || len(p.Buckets) != 0 {
		t.Fatalf("zero-observation point = %+v", p)
	}
	if q := p.Quantile(0.99); q != 0 {
		t.Fatalf("quantile on empty = %d", q)
	}
	// A zero-observation histogram still appears in the snapshot (with
	// count 0) so exports are stable whether or not traffic ran.
	r := NewRegistry()
	r.Histogram(1, "nic", "lat")
	s := r.Snapshot(0)
	if len(s.Hists) != 1 || s.Hists[0].Count != 0 {
		t.Fatalf("snapshot hists = %+v", s.Hists)
	}
	if !strings.Contains(s.Text(), `bcl_lat_count{layer="nic",node="1"} 0`) {
		t.Fatalf("text missing zero-count series:\n%s", s.Text())
	}
	var nilH *Histogram
	nilH.Observe(7) // must not panic
}

func TestHistogramQuantileClamped(t *testing.T) {
	h := &Histogram{}
	h.Observe(1000)
	h.Observe(1000)
	h.Observe(1100)
	p := h.point(Key{})
	// All values live in the (512, 1024] and (1024, 2048] buckets; the
	// quantile is clamped into [Min, Max] = [1000, 1100].
	if q := p.Quantile(0.5); q < 1000 || q > 1100 {
		t.Fatalf("p50 = %d, want within [1000, 1100]", q)
	}
	if q := p.Quantile(1); q != 1100 {
		t.Fatalf("p100 = %d, want 1100", q)
	}
	if q := p.Quantile(0); q < 1000 || q > 1100 {
		t.Fatalf("p0 = %d out of range", q)
	}
}

func TestRegistryCollectorsAccumulate(t *testing.T) {
	r := NewRegistry()
	// Collectors (e.g. ports on one node) sharing a key accumulate, also
	// within one collector.
	r.RegisterCollector(func(set Set) { set(0, "nic", "pkts", 5) })
	r.RegisterCollector(func(set Set) { set(0, "nic", "pkts", 10) })
	r.RegisterCollector(func(set Set) { set(0, "nic", "pkts", 1); set(0, "nic", "pkts", 1) })
	s := r.Snapshot(42)
	if v, ok := s.Counter(0, "nic", "pkts"); !ok || v != 17 {
		t.Fatalf("pkts = %d, %v", v, ok)
	}
	if s.At != 42 {
		t.Fatalf("at = %d", s.At)
	}
}

func TestSnapshotHelpers(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(set Set) {
		set(0, "fabric:myrinet", "drops", 3)
		set(1, "fabric:mesh", "drops", 4)
		set(0, "nic", "drops", 100)
	})
	s := r.Snapshot(0)
	if got := s.SumCounterPrefix("fabric:", "drops"); got != 7 {
		t.Fatalf("prefix sum = %d", got)
	}
	if got := s.SumCounter("nic", "drops"); got != 100 {
		t.Fatalf("sum = %d", got)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	var pkts uint64
	r.RegisterCollector(func(set Set) { set(0, "nic", "pkts", pkts) })
	h := r.Histogram(0, "nic", "lat")
	pkts += 5
	h.Observe(100)
	prev := r.Snapshot(10)
	pkts += 7
	h.Observe(100)
	h.Observe(3000)
	d := r.Snapshot(20).Diff(prev)
	if v, _ := d.Counter(0, "nic", "pkts"); v != 7 {
		t.Fatalf("diff counter = %d", v)
	}
	hp := d.hist(Key{0, "nic", "lat"})
	if hp.Count != 2 || hp.Sum != 3100 {
		t.Fatalf("diff hist = %+v", hp)
	}
}

func TestSnapshotDeterministicText(t *testing.T) {
	build := func() *Snapshot {
		r := NewRegistry()
		r.RegisterCollector(func(set Set) {
			set(1, "nic", "b", 2)
			set(0, "nic", "b", 1)
			set(0, "kernel", "a", 3)
		})
		r.RegisterGaugeCollector(func(set GaugeSet) { set(0, "nic", "queue", -4) })
		r.Histogram(0, "nic", "lat").Observe(900)
		return r.Snapshot(7)
	}
	a, b := build(), build()
	if a.Text() != b.Text() {
		t.Fatal("snapshot text not deterministic")
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := b.JSON()
	if string(aj) != string(bj) {
		t.Fatal("snapshot JSON not deterministic")
	}
	var parsed map[string]any
	if err := json.Unmarshal(aj, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// Keys sort by layer, then name, then node.
	want := []Key{{0, "kernel", "a"}, {0, "nic", "b"}, {1, "nic", "b"}}
	for i, c := range a.Counters {
		if c.Key != want[i] {
			t.Fatalf("counter %d key = %+v, want %+v", i, c.Key, want[i])
		}
	}
	if !strings.Contains(a.Text(), `bcl_queue{layer="nic",node="0"} -4`) {
		t.Fatalf("gauge line missing:\n%s", a.Text())
	}
}

func TestMergeSnapshots(t *testing.T) {
	r1 := NewRegistry()
	r1.RegisterCollector(func(set Set) { set(0, "nic", "pkts", 1) })
	r1.Histogram(0, "nic", "lat").Observe(10)
	r2 := NewRegistry()
	r2.RegisterCollector(func(set Set) { set(0, "nic", "pkts", 2) })
	r2.Histogram(0, "nic", "lat").Observe(20)
	m := Merge(r1.Snapshot(5), nil, r2.Snapshot(9))
	if v, _ := m.Counter(0, "nic", "pkts"); v != 3 {
		t.Fatalf("merged counter = %d", v)
	}
	if h := m.MergedHist("nic", "lat"); h.Count != 2 || h.Min != 10 || h.Max != 20 {
		t.Fatalf("merged hist = %+v", h)
	}
	if m.At != 9 {
		t.Fatalf("merged at = %d", m.At)
	}
}

func TestRecorderWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(sim.Time(i), i, "nic", "ev", 0, "")
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d", len(evs))
	}
	for i, e := range evs {
		if e.Node != 6+i {
			t.Fatalf("event %d node = %d, want %d (oldest-first after wrap)", i, e.Node, 6+i)
		}
	}
	if !strings.Contains(r.Text(2), "last 2 of 10 events") {
		t.Fatalf("text:\n%s", r.Text(2))
	}
	var nilR *Recorder
	nilR.Record(0, 0, "x", "y", 0, "")
	if nilR.Text(1) != "(flight recorder empty)\n" {
		t.Fatal("nil recorder text")
	}
}

func TestNilObsIsSafe(t *testing.T) {
	var o *Obs
	o.RegisterCollector(func(set Set) {})
	o.Event(0, 0, "nic", "x", 0, "")
	o.Observe(0, "nic", "lat", 5)
	o.StartSampler(sim.NewEnv(1), sim.Microsecond, 4)
	o.StopSampler()
	if s := o.Snapshot(3); s == nil || len(s.Counters) != 0 {
		t.Fatal("nil obs snapshot")
	}
	if o.NumSamples() != 0 {
		t.Fatal("nil obs samples")
	}
	if o.TimelineText(nil) != "(no samples)\n" {
		t.Fatal("nil obs timeline")
	}
}

func TestSamplerTerminatesAndBounds(t *testing.T) {
	o := New()
	env := sim.NewEnv(1)
	n := 0
	o.RegisterCollector(func(set Set) { set(0, "nic", "ticks", uint64(n)) })
	env.Go("work", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(sim.Millisecond)
			n++
		}
	})
	o.StartSampler(env, sim.Millisecond, 4)
	env.Run() // must terminate: the sampler stops once the env is idle
	if n != 10 {
		t.Fatalf("work ran %d times", n)
	}
	samples := samplesOf(o)
	if len(samples) == 0 || len(samples) > 4 {
		t.Fatalf("samples = %d, want 1..4", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At <= samples[i-1].At {
			t.Fatal("samples not strictly increasing in time")
		}
	}
	out := o.TimelineText([]TimelineCol{{Label: "ticks", Layer: "nic", Name: "ticks"}})
	if !strings.Contains(out, "ticks") {
		t.Fatalf("timeline:\n%s", out)
	}
}

// The sampler re-arms while other events are pending, and a cancelled
// timer is not one: beside a retransmit timeout that was armed far out
// and cancelled, the series ends with the first tick after the last
// event that ran, and Run returns that instant, not the timeout's.
func TestSamplerIgnoresCancelledTimer(t *testing.T) {
	o := New()
	env := sim.NewEnv(1)
	timeout := env.At(400*sim.Microsecond, func() { t.Error("cancelled timeout fired") })
	env.At(20*sim.Microsecond, func() { timeout.Cancel() })
	env.At(250*sim.Microsecond, func() {}) // the last live event
	o.StartSampler(env, 100*sim.Microsecond, 16)
	end := env.Run()
	var at []sim.Time
	for _, s := range samplesOf(o) {
		at = append(at, s.At/sim.Microsecond)
	}
	if want := []sim.Time{100, 200, 300}; !slices.Equal(at, want) || end != 300*sim.Microsecond {
		t.Fatalf("samples at %v µs and Run() = %d ns; want %v and 300000", at, end, want)
	}
}

func TestTimelineTextMultiColumn(t *testing.T) {
	o := New()
	env := sim.NewEnv(1)
	var sent, drops uint64
	o.RegisterCollector(func(set Set) {
		set(0, "nic", "sent", sent)
		set(1, "nic", "drops", drops)
	})
	env.Go("work", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(sim.Millisecond)
			sent += 10
			drops++
		}
	})
	o.StartSampler(env, sim.Millisecond, 8)
	env.Run()
	out := o.TimelineText([]TimelineCol{
		{Label: "sent", Layer: "nic", Name: "sent"},
		{Label: "drops", Layer: "nic", Name: "drops"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("timeline too short:\n%s", out)
	}
	// Header names both columns in order; every row has t + 2 cells.
	if !strings.Contains(lines[0], "sent") || !strings.Contains(lines[0], "drops") ||
		strings.Index(lines[0], "sent") > strings.Index(lines[0], "drops") {
		t.Fatalf("header:\n%s", lines[0])
	}
	for _, ln := range lines[1:] {
		if got := len(strings.Fields(ln)); got != 3 {
			t.Fatalf("row %q has %d fields, want 3", ln, got)
		}
	}
	// Cumulative counters: the last row holds the final totals.
	last := strings.Fields(lines[len(lines)-1])
	if last[1] != "30" || last[2] != "3" {
		t.Fatalf("final row = %v, want totals 30 and 3", last)
	}
}

func TestSamplerKeepEvictsOldestFirst(t *testing.T) {
	o := New()
	env := sim.NewEnv(1)
	env.Go("work", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(sim.Millisecond)
		}
	})
	o.StartSampler(env, sim.Millisecond, 3)
	env.Run()
	samples := samplesOf(o)
	if len(samples) != 3 {
		t.Fatalf("kept %d samples, want 3", len(samples))
	}
	// Ticks land at 1..11ms (one final tick after the work drains); the
	// retained window must be the NEWEST three, in order — eviction
	// drops the oldest sample.
	for i, s := range samples {
		want := sim.Time(9+i) * sim.Millisecond
		if s.At != want {
			t.Fatalf("sample %d at %v, want %v (oldest-first eviction)", i, s.At, want)
		}
	}
}

func TestOnSampleHookSeesEveryTick(t *testing.T) {
	o := New()
	env := sim.NewEnv(1)
	env.Go("work", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(sim.Millisecond)
		}
	})
	var ats []sim.Time
	o.OnSample = func(s Sample) { ats = append(ats, s.At) }
	o.StartSampler(env, sim.Millisecond, 2) // keep < ticks: hook still sees all
	env.Run()
	// Ticks at 1..6ms (one final tick after the work drains): the hook
	// must see every one, even though only 2 samples are retained.
	if len(ats) != 6 {
		t.Fatalf("hook saw %d ticks, want 6", len(ats))
	}
	for i := 1; i < len(ats); i++ {
		if ats[i] <= ats[i-1] {
			t.Fatal("hook ticks not strictly increasing")
		}
	}
}

func TestRecorderDroppedCounter(t *testing.T) {
	o := New()
	o.Rec = NewRecorder(4) // the collector reads o.Rec when it collects
	for i := 0; i < 10; i++ {
		o.Event(sim.Time(i), i, "nic", "ev", 0, "")
	}
	if d := o.Rec.Dropped(); d != 6 {
		t.Fatalf("dropped = %d, want 6", d)
	}
	s := o.Snapshot(1)
	if v, ok := s.Counter(-1, "obs", "rec_events"); !ok || v != 10 {
		t.Fatalf("rec_events = %d, %v", v, ok)
	}
	if v, ok := s.Counter(-1, "obs", "rec_dropped"); !ok || v != 6 {
		t.Fatalf("rec_dropped = %d, %v", v, ok)
	}
	var nilR *Recorder
	if nilR.Dropped() != 0 {
		t.Fatal("nil recorder dropped")
	}
}

func TestPrometheusTextEscapingAndHeaders(t *testing.T) {
	r := NewRegistry()
	// A layer value with every character the exposition format must
	// escape: backslash, double quote, newline.
	r.RegisterCollector(func(set Set) { set(0, `we"ird\layer`+"\n", "drops", 1) })
	// A metric name with characters outside [a-zA-Z0-9_:] must be
	// sanitized in the family name but NOT in the label value.
	r.RegisterGaugeCollector(func(set GaugeSet) { set(1, "nic", "queue-depth.max", 7) })
	r.Histogram(0, "nic", "lat").Observe(100)
	out := r.Snapshot(1).Text()
	if !strings.Contains(out, `layer="we\"ird\\layer\n"`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, "bcl_queue_depth_max") {
		t.Fatalf("metric name not sanitized:\n%s", out)
	}
	for _, want := range []string{
		"# HELP bcl_drops_total", "# TYPE bcl_drops_total counter",
		"# TYPE bcl_queue_depth_max gauge",
		"# TYPE bcl_lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Headers come once per family, immediately before its first sample.
	if strings.Count(out, "# TYPE bcl_drops_total counter") != 1 {
		t.Fatalf("duplicate family header:\n%s", out)
	}
}

// TestSnapshotTextExemplarAnnotation: buckets with exemplars carry the
// OpenMetrics "# {trace_id=...}" annotation; buckets without stay bare.
func TestSnapshotTextExemplarAnnotation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(0, "svc", "req_latency_ns")
	h.Observe(50)
	h.ObserveTrace(900, 0xbeef)
	text := r.Snapshot(1).Text()
	if !strings.Contains(text, `# {trace_id="beef"} 900`) {
		t.Fatalf("exemplar annotation missing:\n%s", text)
	}
	// The untraced bucket's line ends with its count, no annotation.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, `le="64"`) && strings.Contains(line, "trace_id") {
			t.Fatalf("untraced bucket grew an exemplar: %s", line)
		}
	}
	// Double snapshot: byte-identical, exemplars included.
	if r.Snapshot(1).Text() != text {
		t.Fatal("exemplar text not deterministic")
	}
}

// samplesOf returns the sampler's series, oldest first.
func samplesOf(o *Obs) []Sample {
	var out []Sample
	for i := range o.NumSamples() {
		out = append(out, o.SampleAt(i))
	}
	return out
}
