package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"bcl/internal/sim"
)

// The key order, map-and-sort snapshot and merge, and map-based bucket
// merge that the key table and the bucket array replaced, kept as the
// models FuzzSnapshot and FuzzHistBuckets check against.

func keyLess(a, b Key) bool {
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Node < b.Node
}

func oldSnapshot(at sim.Time, cs []Collector, gs []GaugeCollector, hists map[Key]*Histogram) *Snapshot {
	s := &Snapshot{At: at}
	acc := make(map[Key]uint64)
	for _, c := range cs {
		c(func(node int, layer, name string, v uint64) { acc[Key{node, layer, name}] += v })
	}
	for k, v := range acc {
		s.Counters = append(s.Counters, CounterPoint{Key: k, Value: v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return keyLess(s.Counters[i].Key, s.Counters[j].Key) })
	gacc := make(map[Key]int64)
	for _, c := range gs {
		c(func(node int, layer, name string, v int64) { gacc[Key{node, layer, name}] += v })
	}
	for k, v := range gacc {
		s.Gauges = append(s.Gauges, GaugePoint{Key: k, Value: v})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return keyLess(s.Gauges[i].Key, s.Gauges[j].Key) })
	for k, h := range hists {
		s.Hists = append(s.Hists, oldPoint(h, k))
	}
	sort.Slice(s.Hists, func(i, j int) bool { return keyLess(s.Hists[i].Key, s.Hists[j].Key) })
	return s
}

func oldPoint(h *Histogram, k Key) HistPoint {
	p := HistPoint{Key: k}
	if h == nil || h.count == 0 {
		return p
	}
	p.Count, p.Sum, p.Min, p.Max = h.count, h.sum, h.min, h.max
	for i, c := range h.counts {
		if c > 0 {
			b := Bucket{Le: int64(1) << i, Count: c}
			if h.ex != nil && h.ex[i].Trace != 0 {
				e := h.ex[i]
				b.Ex = &e
			}
			p.Buckets = append(p.Buckets, b)
		}
	}
	return p
}

func oldAddBuckets(a, b []Bucket, sign int64) []Bucket {
	m := make(map[int64]uint64, len(a)+len(b))
	ex := make(map[int64]*Exemplar, len(a))
	for _, x := range a {
		m[x.Le] += x.Count
		if x.Ex != nil {
			ex[x.Le] = x.Ex
		}
	}
	for _, x := range b {
		if sign < 0 {
			m[x.Le] -= x.Count
		} else {
			m[x.Le] += x.Count
			if x.Ex != nil {
				ex[x.Le] = x.Ex
			}
		}
	}
	var les []int64
	for le, c := range m {
		if c != 0 {
			les = append(les, le)
		}
	}
	for i := 1; i < len(les); i++ {
		for j := i; j > 0 && les[j] < les[j-1]; j-- {
			les[j], les[j-1] = les[j-1], les[j]
		}
	}
	out := make([]Bucket, 0, len(les))
	for _, le := range les {
		out = append(out, Bucket{Le: le, Count: m[le], Ex: ex[le]})
	}
	return out
}

func oldMerge(p *HistPoint, o HistPoint) {
	if o.Count == 0 {
		return
	}
	if p.Count == 0 || o.Min < p.Min {
		p.Min = o.Min
	}
	if o.Max > p.Max {
		p.Max = o.Max
	}
	p.Count += o.Count
	p.Sum += o.Sum
	p.Buckets = oldAddBuckets(p.Buckets, o.Buckets, 1)
}

func oldSub(p, prev HistPoint) HistPoint {
	out := p
	out.Count -= prev.Count
	out.Sum -= prev.Sum
	out.Buckets = oldAddBuckets(append([]Bucket(nil), p.Buckets...), prev.Buckets, -1)
	return out
}

func oldMergedHist(s *Snapshot, layer, name string) HistPoint {
	out := HistPoint{Key: Key{Node: -1, Layer: layer, Name: name}}
	for _, h := range s.Hists {
		if h.Layer == layer && h.Name == name {
			oldMerge(&out, h)
		}
	}
	return out
}

func oldDiff(s, prev *Snapshot) *Snapshot {
	d := &Snapshot{At: s.At, Gauges: append([]GaugePoint(nil), s.Gauges...)}
	for _, c := range s.Counters {
		pv, _ := prev.Counter(c.Node, c.Layer, c.Name)
		d.Counters = append(d.Counters, CounterPoint{Key: c.Key, Value: c.Value - pv})
	}
	for _, h := range s.Hists {
		d.Hists = append(d.Hists, oldSub(h, oldHist(prev, h.Key)))
	}
	return d
}

func oldHist(s *Snapshot, k Key) HistPoint {
	for _, h := range s.Hists {
		if h.Key == k {
			return h
		}
	}
	return HistPoint{Key: k}
}

func oldMergeSnaps(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{}
	cacc := make(map[Key]uint64)
	gacc := make(map[Key]int64)
	hacc := make(map[Key]*HistPoint)
	var horder []Key
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if s.At > out.At {
			out.At = s.At
		}
		for _, c := range s.Counters {
			cacc[c.Key] += c.Value
		}
		for _, g := range s.Gauges {
			gacc[g.Key] += g.Value
		}
		for _, h := range s.Hists {
			hp, ok := hacc[h.Key]
			if !ok {
				hp = &HistPoint{Key: h.Key}
				hacc[h.Key] = hp
				horder = append(horder, h.Key)
			}
			oldMerge(hp, h)
		}
	}
	for k, v := range cacc {
		out.Counters = append(out.Counters, CounterPoint{Key: k, Value: v})
	}
	sort.Slice(out.Counters, func(i, j int) bool { return keyLess(out.Counters[i].Key, out.Counters[j].Key) })
	for k, v := range gacc {
		out.Gauges = append(out.Gauges, GaugePoint{Key: k, Value: v})
	}
	sort.Slice(out.Gauges, func(i, j int) bool { return keyLess(out.Gauges[i].Key, out.Gauges[j].Key) })
	sort.Slice(horder, func(i, j int) bool { return keyLess(horder[i], horder[j]) })
	for _, k := range horder {
		out.Hists = append(out.Hists, *hacc[k])
	}
	return out
}

// fuzzKeys are the keys the fuzz targets draw from: shared layers,
// names and nodes, so the three orderings all matter.
var fuzzKeys = func() []Key {
	var ks []Key
	for _, l := range []string{"nic", "fabric:a", "a", "svc"} {
		for _, n := range []string{"x", "drops", "lat"} {
			for node := -1; node < 3; node++ {
				ks = append(ks, Key{node, l, n})
			}
		}
	}
	return ks
}()

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

type fuzzEmit struct {
	k Key
	v uint64
}

// FuzzSnapshot replays histogram creation and observations, and three
// collectors (two counter, one gauge) whose emissions — subsets,
// permutations, duplicates — change between snapshots. Every snapshot,
// its Text, its Diff against the previous one and the Merge of the two
// must equal the old map-and-sort code's, and no snapshot may change
// after it was taken. A SnapshotInto over whatever an earlier snapshot
// of this registry or of an empty one left (more or fewer keys, buckets
// and exemplars) must equal the fresh snapshot, and one of the empty
// registry must hold nil slices.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{2, 3, 2, 3, 7, 1, 4, 0, 0, 5, 1, 9, 4, 0, 3, 1, 12, 40, 4, 0})
	f.Add([]byte{0, 7, 1, 7, 1, 200, 4, 0, 2, 7, 2, 7, 7, 5, 4, 0, 8, 2, 4, 0, 3, 2, 4, 0})
	f.Add([]byte{4, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRegistry()
		model := make(map[Key]*Histogram)
		var made []Key
		var plans [3][]fuzzEmit
		var cs []Collector
		for i := 0; i < 2; i++ {
			c := func(set Set) {
				for _, e := range plans[i] {
					set(e.k.Node, e.k.Layer, e.k.Name, e.v)
				}
			}
			r.RegisterCollector(c)
			cs = append(cs, c)
		}
		g := func(set GaugeSet) {
			for _, e := range plans[2] {
				set(e.k.Node, e.k.Layer, e.k.Name, int64(e.v)-100)
			}
		}
		r.RegisterGaugeCollector(g)
		gs := []GaugeCollector{g}

		var kept []*Snapshot
		var keptJSON []string
		var prev, prevOld *Snapshot
		var reuse [3]*Snapshot // refilled in turn, picked by the clock
		check := func(at sim.Time) {
			s, o := r.Snapshot(at), oldSnapshot(at, cs, gs, model)
			if got, want := mustJSON(t, s), mustJSON(t, o); got != want {
				t.Fatalf("snapshot\n got %s\nwant %s", got, want)
			}
			i, j := int(at)%3, int(at/3)%3
			reuse[i] = r.SnapshotInto(reuse[i], at)
			if got, want := mustJSON(t, reuse[i]), mustJSON(t, s); got != want {
				t.Fatalf("refilled snapshot\n got %s\nwant %s", got, want)
			}
			if i != j {
				reuse[j] = NewRegistry().SnapshotInto(reuse[j], at)
				if got, want := mustJSON(t, reuse[j]), mustJSON(t, &Snapshot{At: at}); got != want {
					t.Fatalf("empty registry refilled a snapshot\n got %s\nwant %s", got, want)
				}
			}
			if s.Text() != o.Text() {
				t.Fatalf("text\n got %s\nwant %s", s.Text(), o.Text())
			}
			if prev != nil {
				if got, want := mustJSON(t, s.Diff(prev)), mustJSON(t, oldDiff(o, prevOld)); got != want {
					t.Fatalf("diff\n got %s\nwant %s", got, want)
				}
			}
			if got, want := mustJSON(t, Merge(prev, nil, s, s)), mustJSON(t, oldMergeSnaps(prevOld, nil, o, o)); got != want {
				t.Fatalf("merge\n got %s\nwant %s", got, want)
			}
			for _, k := range made {
				if got, want := mustJSON(t, s.hist(k)), mustJSON(t, oldHist(o, k)); got != want {
					t.Fatalf("hist %v\n got %s\nwant %s", k, got, want)
				}
			}
			for i, old := range kept {
				if mustJSON(t, old) != keptJSON[i] {
					t.Fatalf("snapshot %d changed after it was taken", i)
				}
			}
			kept, keptJSON = append(kept, s), append(keptJSON, mustJSON(t, s))
			prev, prevOld = s, o
		}
		for at := sim.Time(1); len(data) >= 2; at++ {
			op, arg := data[0], data[1]
			data = data[2:]
			plan := &plans[int(op/8)%3]
			switch op % 8 {
			case 0: // create a histogram
				k := fuzzKeys[int(arg)%len(fuzzKeys)]
				if model[k] == nil {
					made = append(made, k)
				}
				model[k] = r.Histogram(k.Node, k.Layer, k.Name)
			case 1: // observe, traced on odd values
				if len(made) > 0 {
					var tr uint64
					if arg&1 == 1 {
						tr = uint64(arg) << 8
					}
					model[made[int(arg)%len(made)]].ObserveTrace(int64(arg)<<(arg%41), tr)
				}
			case 2, 3: // a collector emits one more key (duplicates allowed)
				*plan = append(*plan, fuzzEmit{fuzzKeys[int(arg)%len(fuzzKeys)], uint64(arg)})
			case 5: // a collector drops keys from the end
				*plan = (*plan)[:int(arg)%(len(*plan)+1)]
			case 6: // a collector emits its keys in another order
				if n := len(*plan); n > 1 {
					i, j := int(arg)%n, int(arg/16)%n
					(*plan)[i], (*plan)[j] = (*plan)[j], (*plan)[i]
				}
			case 7: // a value changes
				if n := len(*plan); n > 0 {
					(*plan)[int(arg)%n].v += uint64(arg)
				}
			default:
				check(at)
			}
		}
		check(1 << 40)
	})
}

func sameBuckets(a, b []Bucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Le != b[i].Le || a[i].Count != b[i].Count || (a[i].Ex == nil) != (b[i].Ex == nil) ||
			(a[i].Ex != nil && *a[i].Ex != *b[i].Ex) {
			return false
		}
	}
	return true
}

func samePoint(t *testing.T, what string, got, want HistPoint) {
	t.Helper()
	if got.Key != want.Key || got.Count != want.Count || got.Sum != want.Sum || got.Min != want.Min ||
		got.Max != want.Max || !sameBuckets(got.Buckets, want.Buckets) {
		t.Fatalf("%s\n got %+v\nwant %+v", what, got, want)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Fatalf("%s: q%v = %d, want %d", what, q, got.Quantile(q), want.Quantile(q))
		}
	}
}

// snapOf is a snapshot of the histograms as nodes 0.. of nic/lat, plus
// one point of another metric that windows must leave out.
func snapOf(hs []Histogram) *Snapshot {
	s := &Snapshot{}
	for i := range hs {
		s.Hists = append(s.Hists, hs[i].point(Key{Node: i, Layer: "nic", Name: "lat"}))
	}
	return s
}

// withoutExemplars returns p with buckets of its own that carry no
// exemplar.
func withoutExemplars(p HistPoint) HistPoint {
	p.Buckets = append([]Bucket(nil), p.Buckets...)
	for i := range p.Buckets {
		p.Buckets[i].Ex = nil
	}
	return p
}

// FuzzHistBuckets checks point, merge, sub, both Quantiles and Window
// against the old point and map-based addBuckets, on three histograms
// filled from the input (a third of them traced). Window, the one fold
// of cur − prev, must equal the old MergedHist(cur).Sub(MergedHist(prev))
// without its exemplars between a snapshot halfway through the input
// and one at its end.
func FuzzHistBuckets(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 2, 200, 0, 77, 1, 255})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hs [3]Histogram
		var half *Snapshot
		for i := 0; i+1 < len(data); i += 2 {
			if i == len(data)/4*2 {
				half = snapOf(hs[:])
			}
			sel, v := data[i], data[i+1]
			var tr uint64
			if sel%3 == 0 {
				tr = uint64(i + 1)
			}
			hs[int(sel)%3].ObserveTrace(int64(v)<<(sel%50), tr)
		}
		if half == nil {
			half = snapOf(hs[:])
		}
		end := snapOf(hs[:])
		var other Histogram
		other.ObserveTrace(7, 9)
		end.Hists = append(end.Hists, other.point(Key{Node: 0, Layer: "nic", Name: "other"}))
		for _, w := range [][2]*Snapshot{{end, half}, {end, end}, {half, half}, {end, &Snapshot{}}} {
			var buf HistBuf
			samePoint(t, "window", w[0].Window(w[1], "nic", "lat", &buf),
				withoutExemplars(oldSub(oldMergedHist(w[0], "nic", "lat"), oldMergedHist(w[1], "nic", "lat"))))
			samePoint(t, "merged", w[0].MergedHist("nic", "lat"), oldMergedHist(w[0], "nic", "lat"))
		}
		var cur, old [3]HistPoint
		for i := range hs {
			cur[i], old[i] = hs[i].point(Key{Node: -1}), oldPoint(&hs[i], Key{Node: -1})
			samePoint(t, "point", cur[i], old[i])
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				if got, want := hs[i].Quantile(q), old[i].Quantile(q); got != want {
					t.Fatalf("Histogram.Quantile(%v) = %d, want %d", q, got, want)
				}
			}
		}
		var m, mo HistPoint
		for i := range cur {
			m.merge(cur[i])
			oldMerge(&mo, old[i])
			samePoint(t, "merge", m, mo)
		}
		for i := range cur {
			samePoint(t, "sub", m.Sub(cur[i]), oldSub(mo, old[i]))
			samePoint(t, "sub of a superset", cur[i].Sub(m), oldSub(old[i], mo))
		}
		before := fmt.Sprint(cur)
		cur[0].Sub(cur[1])
		if fmt.Sprint(cur) != before {
			t.Fatal("sub changed its operands")
		}
	})
}

// shapedRegistry publishes nc counters from collectors of ten keys each
// (like per-node collectors), ng gauges from one gauge collector, and nh
// untraced histograms with observations.
func shapedRegistry(nc, ng, nh int) *Registry {
	r := NewRegistry()
	layers := []string{"bcl", "fabric:myrinet", "kernel", "nic", "svc"}
	key := func(i int, kind string) Key {
		return Key{i % 8, layers[i%len(layers)], fmt.Sprintf("%s%03d", kind, i/8)}
	}
	for lo := 0; lo < nc; lo += 10 {
		var part []Key
		for i := lo; i < min(lo+10, nc); i++ {
			part = append(part, key(i, "c"))
		}
		r.RegisterCollector(func(set Set) {
			for j, k := range part {
				set(k.Node, k.Layer, k.Name, uint64(j))
			}
		})
	}
	var gauges []Key
	for i := 0; i < ng; i++ {
		gauges = append(gauges, key(i, "g"))
	}
	r.RegisterGaugeCollector(func(set GaugeSet) {
		for j, k := range gauges {
			set(k.Node, k.Layer, k.Name, int64(j))
		}
	})
	for i := 0; i < nh; i++ {
		k := key(i, "h")
		h := r.Histogram(k.Node, k.Layer, k.Name)
		for v := int64(1); v < 1<<20; v *= 3 {
			h.Observe(v)
		}
	}
	return r
}

// A steady-state snapshot allocates the Snapshot, its three slices and
// one bucket array its histograms share, however many keys and
// histograms it has (untraced: no exemplar array); a refill allocates
// nothing.
func TestSnapshotSteadyStateAllocs(t *testing.T) {
	for _, shape := range [][3]int{{36, 5, 2}, {360, 55, 8}} {
		r := shapedRegistry(shape[0], shape[1], shape[2])
		r.Histogram(0, "nic", "empty") // no observations: no bucket slice
		r.Snapshot(0)
		at := sim.Time(0)
		got := testing.AllocsPerRun(20, func() { at++; r.Snapshot(at) })
		if want := float64(1 + 3 + 1); got != want {
			t.Errorf("shape %v: %v allocations per snapshot, want %v", shape, got, want)
		}
		// Refilling a snapshot of the same registry allocates nothing.
		reuse := r.Snapshot(at)
		if got := testing.AllocsPerRun(20, func() { at++; r.SnapshotInto(reuse, at) }); got != 0 {
			t.Errorf("shape %v: %v allocations per refill, want 0", shape, got)
		}
		s := r.Snapshot(at + 1)
		if len(s.Counters) != shape[0] || len(s.Gauges) != shape[1] || len(s.Hists) != shape[2]+1 {
			t.Fatalf("shape %v: snapshot has %d/%d/%d points", shape, len(s.Counters), len(s.Gauges), len(s.Hists))
		}
		// The points share one array: each is capped at its own end, so
		// an append to one cannot write into the next.
		for _, h := range s.Hists {
			if cap(h.Buckets) != len(h.Buckets) {
				t.Fatalf("shape %v: %v holds %d buckets in a slice of capacity %d", shape, h.Key, len(h.Buckets), cap(h.Buckets))
			}
		}
	}
}

// BenchmarkRegistrySnapshot takes one snapshot of the shape the
// svc_observed sampler sees: 360 counters, 55 gauges, 8 histograms,
// fresh and refilled over the last one (0 allocs/op).
func BenchmarkRegistrySnapshot(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		r := shapedRegistry(360, 55, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Snapshot(sim.Time(i))
		}
	})
	b.Run("reuse", func(b *testing.B) {
		r := shapedRegistry(360, 55, 8)
		s := r.Snapshot(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.SnapshotInto(s, sim.Time(i))
		}
	})
}
