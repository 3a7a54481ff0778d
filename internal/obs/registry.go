package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"bcl/internal/sim"
)

// Key identifies one metric: (node, layer, name). Cluster-wide metrics
// (fabric link counters, rail failovers) use Node = -1.
type Key struct {
	Node  int    `json:"node"`
	Layer string `json:"layer"`
	Name  string `json:"name"`
}

func (k Key) String() string {
	if k.Node < 0 {
		return fmt.Sprintf("%s/%s", k.Layer, k.Name)
	}
	return fmt.Sprintf("%s/%s@%d", k.Layer, k.Name, k.Node)
}

// keyCmp orders metrics for deterministic output: by layer, then
// name, then node.
func keyCmp(a, b Key) int {
	if c := strings.Compare(a.Layer, b.Layer); c != 0 {
		return c
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

// Set is the sink a Collector publishes counters into. Repeated calls
// with the same key accumulate, so several components (e.g. all ports
// on a node) can share one key.
type Set func(node int, layer, name string, v uint64)

// Collector publishes a component's counters into a snapshot. The
// registry pulls collectors at snapshot time, so instrumented hot
// paths pay nothing and the registry values agree with the component's
// own Stats struct by construction.
type Collector func(set Set)

// GaugeSet is the sink a GaugeCollector publishes instantaneous values
// into. Repeated calls with the same key accumulate (several rings on
// one NIC sum into one depth gauge).
type GaugeSet func(node int, layer, name string, v int64)

// GaugeCollector publishes a component's instantaneous state (queue
// depths, in-flight message counts, pinned pages) into a snapshot.
// Like Collector it is pull-model: the value is read at snapshot time,
// so the instrumented structures pay nothing between samples.
type GaugeCollector func(set GaugeSet)

// keyTable accumulates one snapshot's collector output. It outlives
// the snapshot: each key keeps its slot, order lists the slots sorted
// by key (an insertion per new key, never a sort), and last remembers
// the slot the i-th set call of the previous snapshot hit. Collectors
// emit the same keys in the same order from one snapshot to the next,
// so a set call costs one key compare; a miss binary-searches order.
type keyTable[V uint64 | int64] struct {
	slots []keySlot[V]
	order []int32
	last  []int32
	calls int
	epoch uint64 // slots set in this snapshot carry it
	live  int    // slots set in this snapshot
}

type keySlot[V uint64 | int64] struct {
	key   Key
	v     V
	epoch uint64
}

// begin starts a snapshot: every slot reads as absent until set.
func (t *keyTable[V]) begin() { t.epoch, t.calls, t.live = t.epoch+1, 0, 0 }

// add accumulates v under k.
func (t *keyTable[V]) add(k Key, v V) {
	if t.calls == len(t.last) {
		t.last = append(t.last, t.find(k))
	} else if t.slots[t.last[t.calls]].key != k {
		t.last[t.calls] = t.find(k)
	}
	s := &t.slots[t.last[t.calls]]
	t.calls++
	if s.epoch != t.epoch {
		s.epoch, s.v = t.epoch, 0
		t.live++
	}
	s.v += v
}

// find returns k's slot, making one on first use.
func (t *keyTable[V]) find(k Key) int32 {
	pos, ok := slices.BinarySearchFunc(t.order, k, func(i int32, k Key) int { return keyCmp(t.slots[i].key, k) })
	if ok {
		return t.order[pos]
	}
	i := int32(len(t.slots))
	t.slots = append(t.slots, keySlot[V]{key: k})
	t.order = slices.Insert(t.order, pos, i)
	return i
}

// points lists the slots set in this snapshot in key order, refilling
// dst, which grows only when there are more of them; nil when there are
// none.
func points[V uint64 | int64, P any](t *keyTable[V], dst []P, mk func(Key, V) P) []P {
	if t.live == 0 {
		return nil
	}
	out := refill(dst, t.live)
	for _, i := range t.order {
		if s := &t.slots[i]; s.epoch == t.epoch {
			out = append(out, mk(s.key, s.v))
		}
	}
	return out
}

// refill returns dst emptied, or an exact-size slice if it lacks room.
func refill[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, 0, n)
	}
	return dst[:0]
}

// Registry holds one cluster's metrics. It is single-threaded like the
// simulator itself; snapshots are deterministic (sorted keys, no map
// iteration reaches the output).
type Registry struct {
	hists           []histEntry // sorted by key
	collectors      []Collector
	gaugeCollectors []GaugeCollector
	counters        keyTable[uint64]
	gauges          keyTable[int64]
	set             Set
	gaugeSet        GaugeSet
}

type histEntry struct {
	key Key
	h   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.set = func(node int, layer, name string, v uint64) { r.counters.add(Key{node, layer, name}, v) }
	r.gaugeSet = func(node int, layer, name string, v int64) { r.gauges.add(Key{node, layer, name}, v) }
	return r
}

// RegisterCollector adds a pull-model counter source.
func (r *Registry) RegisterCollector(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.collectors = append(r.collectors, c)
}

// RegisterGaugeCollector adds a pull-model gauge source (queue depths,
// in-flight counts).
func (r *Registry) RegisterGaugeCollector(c GaugeCollector) {
	if r == nil || c == nil {
		return
	}
	r.gaugeCollectors = append(r.gaugeCollectors, c)
}

// Histogram returns the named latency histogram, creating it on first
// use.
func (r *Registry) Histogram(node int, layer, name string) *Histogram {
	if r == nil {
		return nil
	}
	k := Key{node, layer, name}
	i, ok := slices.BinarySearchFunc(r.hists, k, func(e histEntry, k Key) int { return keyCmp(e.key, k) })
	if !ok {
		r.hists = slices.Insert(r.hists, i, histEntry{k, &Histogram{}})
	}
	return r.hists[i].h
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Key
	Value uint64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Key
	Value int64 `json:"value"`
}

// Snapshot is a copy of the registry at one virtual instant: counter,
// gauge and histogram points, each sorted by key. Nothing changes it but
// a SnapshotInto that is handed it to refill.
type Snapshot struct {
	At       sim.Time       `json:"at_ns"`
	Counters []CounterPoint `json:"counters"`
	Gauges   []GaugePoint   `json:"gauges,omitempty"`
	Hists    []HistPoint    `json:"histograms,omitempty"`

	// The arrays Hists' buckets and exemplars live in, kept for refills.
	buckets   []Bucket
	exemplars []Exemplar
}

// Snapshot captures the registry: collector outputs (accumulated per
// key; a key no collector sets this time is absent) and histogram
// state. The snapshot owns its slices.
func (r *Registry) Snapshot(at sim.Time) *Snapshot { return r.SnapshotInto(nil, at) }

// SnapshotInto is Snapshot written over s (a fresh snapshot when s is
// nil) and returned: each of its slices, and the bucket and exemplar
// arrays its histograms share, is refilled in place and grows only when
// the registry has more keys, buckets or exemplars than it held. So
// whatever still points into s sees the new values; the sampler
// refills only the sample its ring evicts.
func (r *Registry) SnapshotInto(s *Snapshot, at sim.Time) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	s.At = at
	if r == nil {
		s.Counters, s.Gauges, s.Hists = nil, nil, nil
		return s
	}
	r.counters.begin()
	for _, c := range r.collectors {
		c(r.set)
	}
	r.gauges.begin()
	for _, c := range r.gaugeCollectors {
		c(r.gaugeSet)
	}
	s.Counters = points(&r.counters, s.Counters, func(k Key, v uint64) CounterPoint { return CounterPoint{k, v} })
	s.Gauges = points(&r.gauges, s.Gauges, func(k Key, v int64) GaugePoint { return GaugePoint{k, v} })
	if len(r.hists) == 0 {
		s.Hists = nil
		return s
	}
	nb, nex := 0, 0
	for _, e := range r.hists {
		n, x := e.h.size()
		nb, nex = nb+n, nex+x
	}
	s.buckets, s.exemplars = refill(s.buckets, nb)[:nb], refill(s.exemplars, nex)
	bs, exs := s.buckets, s.exemplars
	s.Hists = refill(s.Hists, len(r.hists))
	for _, e := range r.hists {
		s.Hists = append(s.Hists, e.h.pointInto(e.key, &bs, &exs))
	}
	return s
}

// Counter looks up one counter value.
func (s *Snapshot) Counter(node int, layer, name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Node == node && c.Layer == layer && c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge looks up one gauge value.
func (s *Snapshot) Gauge(node int, layer, name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Node == node && g.Layer == layer && g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// SumGauge totals a gauge across all nodes of a layer.
func (s *Snapshot) SumGauge(layer, name string) int64 {
	var t int64
	for _, g := range s.Gauges {
		if g.Layer == layer && g.Name == name {
			t += g.Value
		}
	}
	return t
}

// SumCounter totals a counter across all nodes of a layer.
func (s *Snapshot) SumCounter(layer, name string) uint64 {
	var t uint64
	for _, c := range s.Counters {
		if c.Layer == layer && c.Name == name {
			t += c.Value
		}
	}
	return t
}

// SumCounterPrefix totals a counter across every layer sharing a
// prefix (e.g. prefix "fabric:" sums all rails of a composite).
func (s *Snapshot) SumCounterPrefix(prefix, name string) uint64 {
	var t uint64
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Layer, prefix) && c.Name == name {
			t += c.Value
		}
	}
	return t
}

// MergedHist merges the named histogram across all nodes of a layer
// (for cluster-wide quantiles). Returns a zero point if absent.
func (s *Snapshot) MergedHist(layer, name string) HistPoint {
	var f fold
	s.foldHist(&f, layer, name, 1)
	return f.owned()
}

// Window returns s.MergedHist(layer, name).Sub(prev.MergedHist(layer,
// name)) without exemplars, the observations recorded between the two
// snapshots, folded in one pass with its buckets written into buf: a
// caller keeping buf on its stack allocates nothing. A windowed
// quantile needs no exemplar, and a window that carries none cannot
// point into a snapshot the sampler refills.
func (s *Snapshot) Window(prev *Snapshot, layer, name string, buf *HistBuf) HistPoint {
	var f fold
	s.foldHist(&f, layer, name, 1)
	prev.foldHist(&f, layer, name, -1)
	return f.point(buf[:0], nil)
}

// foldHist adds (sign > 0) or subtracts every point of the named
// histogram across all nodes of a layer into f.
func (s *Snapshot) foldHist(f *fold, layer, name string, sign int64) {
	f.p.Key = Key{Node: -1, Layer: layer, Name: name}
	for _, h := range s.Hists {
		if h.Layer != layer || h.Name != name {
			continue
		}
		if sign > 0 {
			f.merge(h)
		} else {
			f.sub(h)
		}
	}
}

// Diff returns a snapshot holding s minus prev, counter-wise and
// histogram-wise (keys missing from prev count as zero). Gauges keep
// their current values: an instantaneous reading has no delta. Both
// snapshots are sorted by key, as every snapshot is, so one walk pairs
// them.
func (s *Snapshot) Diff(prev *Snapshot) *Snapshot {
	d := &Snapshot{At: s.At, Gauges: append([]GaugePoint(nil), s.Gauges...)}
	j := 0
	for _, c := range s.Counters {
		for j < len(prev.Counters) && keyCmp(prev.Counters[j].Key, c.Key) < 0 {
			j++
		}
		if j < len(prev.Counters) && prev.Counters[j].Key == c.Key {
			c.Value -= prev.Counters[j].Value
		}
		d.Counters = append(d.Counters, c)
	}
	j = 0
	for _, h := range s.Hists {
		for j < len(prev.Hists) && keyCmp(prev.Hists[j].Key, h.Key) < 0 {
			j++
		}
		var p HistPoint
		if j < len(prev.Hists) && prev.Hists[j].Key == h.Key {
			p = prev.Hists[j]
		}
		d.Hists = append(d.Hists, h.Sub(p))
	}
	return d
}

func (s *Snapshot) hist(k Key) HistPoint {
	if i, ok := slices.BinarySearchFunc(s.Hists, k, func(h HistPoint, k Key) int { return keyCmp(h.Key, k) }); ok {
		return s.Hists[i]
	}
	return HistPoint{Key: k}
}

// Hist looks up one histogram point (zero-valued if absent).
func (s *Snapshot) Hist(node int, layer, name string) HistPoint {
	return s.hist(Key{Node: node, Layer: layer, Name: name})
}

// Merge folds several snapshots (e.g. one per cluster in a multi-rig
// benchmark) into one: counters accumulate, gauges accumulate,
// histograms merge, At takes the latest.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{}
	var cs keyTable[uint64]
	var gs keyTable[int64]
	cs.begin()
	gs.begin()
	for _, s := range snaps {
		if s == nil {
			continue
		}
		out.At = max(out.At, s.At)
		for _, c := range s.Counters {
			cs.add(c.Key, c.Value)
		}
		for _, g := range s.Gauges {
			gs.add(g.Key, g.Value)
		}
		for _, h := range s.Hists {
			i, ok := slices.BinarySearchFunc(out.Hists, h.Key, func(p HistPoint, k Key) int { return keyCmp(p.Key, k) })
			if !ok {
				out.Hists = slices.Insert(out.Hists, i, HistPoint{Key: h.Key})
			}
			out.Hists[i].merge(h)
		}
	}
	out.Counters = points(&cs, nil, func(k Key, v uint64) CounterPoint { return CounterPoint{k, v} })
	out.Gauges = points(&gs, nil, func(k Key, v int64) GaugePoint { return GaugePoint{k, v} })
	return out
}

// promEscaper escapes a label value per the Prometheus exposition
// format: backslash, double quote and newline must be backslash-escaped
// inside the quotes.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promName sanitizes a metric-name fragment to the Prometheus charset
// [a-zA-Z0-9_:] (anything else becomes '_'). Our internal names are
// already clean; this guards externally supplied job labels and the
// like from producing an unparsable exposition.
func promName(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			continue
		}
		clean = false
		break
	}
	if clean {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			continue
		}
		b[i] = '_'
	}
	return string(b)
}

// labels renders the shared {layer=...,node=...} label set (node
// omitted for cluster-wide metrics). Label values are escaped per the
// exposition format.
func (k Key) labels(extra string) string {
	var b strings.Builder
	b.WriteByte('{')
	fmt.Fprintf(&b, `layer="%s"`, promEscaper.Replace(k.Layer))
	if k.Node >= 0 {
		fmt.Fprintf(&b, ",node=\"%d\"", k.Node)
	}
	if extra != "" {
		b.WriteByte(',')
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// famLess orders points for exposition output: metric families group
// together (by name), series inside a family sort by layer then node.
func famLess(a, b Key) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	return a.Node < b.Node
}

// header emits the # HELP / # TYPE preamble the first time a family
// appears, tracking the previously emitted family in *last.
func header(b *strings.Builder, last *string, fam, typ, help string) {
	if fam == *last {
		return
	}
	*last = fam
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", fam, promEscaper.Replace(help), fam, typ)
}

// Text renders the snapshot in Prometheus exposition format: families
// grouped with # HELP / # TYPE preambles, label values escaped.
// Counters get a _total suffix; histograms the usual _bucket (with
// cumulative counts and a +Inf bucket), _sum and _count series.
func (s *Snapshot) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# bcl metrics snapshot at %dns (virtual)\n", s.At)
	last := ""
	cs := append([]CounterPoint(nil), s.Counters...)
	sort.Slice(cs, func(i, j int) bool { return famLess(cs[i].Key, cs[j].Key) })
	for _, c := range cs {
		fam := "bcl_" + promName(c.Name) + "_total"
		header(&b, &last, fam, "counter", "cumulative "+c.Name+" events (virtual time)")
		fmt.Fprintf(&b, "%s%s %d\n", fam, c.Key.labels(""), c.Value)
	}
	gs := append([]GaugePoint(nil), s.Gauges...)
	sort.Slice(gs, func(i, j int) bool { return famLess(gs[i].Key, gs[j].Key) })
	for _, g := range gs {
		fam := "bcl_" + promName(g.Name)
		header(&b, &last, fam, "gauge", "instantaneous "+g.Name+" at snapshot time")
		fmt.Fprintf(&b, "%s%s %d\n", fam, g.Key.labels(""), g.Value)
	}
	hs := append([]HistPoint(nil), s.Hists...)
	sort.Slice(hs, func(i, j int) bool { return famLess(hs[i].Key, hs[j].Key) })
	for _, h := range hs {
		fam := "bcl_" + promName(h.Name)
		header(&b, &last, fam, "histogram", "log2-bucketed "+h.Name+" distribution")
		cum := uint64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket%s %d", fam,
				h.Key.labels(fmt.Sprintf("le=\"%d\"", bk.Le)), cum)
			if bk.Ex != nil {
				// OpenMetrics exemplar annotation: the trace id of a
				// sample that landed in this bucket plus its exact value.
				fmt.Fprintf(&b, " # {trace_id=\"%x\"} %d", bk.Ex.Trace, bk.Ex.Value)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", fam, h.Key.labels(`le="+Inf"`), h.Count)
		fmt.Fprintf(&b, "%s_sum%s %d\n", fam, h.Key.labels(""), h.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", fam, h.Key.labels(""), h.Count)
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
