package obs

import "math/bits"

// histBuckets is the bucket count of the log2 histogram: bucket i
// holds values in (2^(i-1), 2^i] nanoseconds (bucket 0 holds v <= 1),
// so 48 buckets cover everything up to ~2^47 ns — about 39 hours of
// virtual time, far beyond any simulated run.
const histBuckets = 48

// Histogram is a log2-bucketed latency histogram. Values are virtual
// nanoseconds (int64); negative observations clamp to zero.
//
// Buckets optionally carry an exemplar: the causal trace id (and exact
// value) of the most recent observation that landed in the bucket,
// recorded via ObserveTrace. Exemplars let an operator jump from a
// suspicious bucket straight to a retained request trace.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
	ex     *[histBuckets]Exemplar // nil until the first traced observation
}

// Exemplar links one histogram bucket to a causal trace id: Trace is
// the id of the latest traced observation landing in the bucket, Value
// its exact observed value in nanoseconds.
type Exemplar struct {
	Trace uint64 `json:"trace_id"`
	Value int64  `json:"value_ns"`
}

// bucketOf returns the index of the bucket covering v: the smallest i
// with v <= 1<<i, capped to the last bucket.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1)) // smallest i with v <= 1<<i
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value. A nil histogram is a no-op.
func (h *Histogram) Observe(v int64) {
	h.ObserveTrace(v, 0)
}

// ObserveTrace records one value and, when traceID is non-zero, stamps
// the landing bucket's exemplar with it (latest traced observation
// wins — deterministic because the simulator is single-threaded). A
// zero traceID behaves exactly like Observe, so untraced runs never
// allocate exemplar state.
func (h *Histogram) ObserveTrace(v int64, traceID uint64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	h.counts[b]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if traceID != 0 {
		if h.ex == nil {
			h.ex = new([histBuckets]Exemplar)
		}
		h.ex[b] = Exemplar{Trace: traceID, Value: v}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Bucket is one non-empty histogram bucket in a snapshot: Le is the
// inclusive upper bound in nanoseconds, Count the observations in
// (Le/2, Le] alone (not cumulative). Ex, when set, is the bucket's
// exemplar — the trace id of a sample that landed here. Le is always
// 1<<i for the bucket's index i: point is the only producer of
// buckets, and merge and sub index by it.
type Bucket struct {
	Le    int64     `json:"le"`
	Count uint64    `json:"count"`
	Ex    *Exemplar `json:"exemplar,omitempty"`
}

// HistPoint is one histogram in a snapshot. Only non-empty buckets are
// kept; a zero-observation histogram has Count 0, empty Buckets, and
// Min/Max/Sum 0.
type HistPoint struct {
	Key
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum_ns"`
	Min     int64    `json:"min_ns"`
	Max     int64    `json:"max_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile returns the q-th quantile as HistPoint.Quantile does, for
// callers that keep their own histogram outside a registry. The
// buckets are filled into a stack array, so nothing is allocated.
func (h *Histogram) Quantile(q float64) int64 {
	var buf [histBuckets]Bucket
	return h.fill(Key{}, buf[:0]).Quantile(q)
}

// fill appends the non-empty buckets, without exemplars, to buf and
// returns the point holding them.
func (h *Histogram) fill(k Key, buf []Bucket) HistPoint {
	p := HistPoint{Key: k}
	if h == nil || h.count == 0 {
		return p
	}
	p.Count, p.Sum, p.Min, p.Max = h.count, h.sum, h.min, h.max
	for i, c := range h.counts {
		if c > 0 {
			buf = append(buf, Bucket{Le: int64(1) << i, Count: c})
		}
	}
	p.Buckets = buf
	return p
}

// size returns how many buckets a snapshot of the histogram holds,
// and how many of them carry an exemplar.
func (h *Histogram) size() (n, nex int) {
	if h == nil || h.count == 0 {
		return 0, 0
	}
	for i, c := range h.counts {
		if c > 0 {
			n++
			if h.ex != nil && h.ex[i].Trace != 0 {
				nex++
			}
		}
	}
	return n, nex
}

// pointInto snapshots the histogram state under a key. Its buckets are
// carved from the front of *bs and its exemplars appended to *exs, both
// sized beforehand from size, so every point of one snapshot shares a
// bucket array and an exemplar array.
func (h *Histogram) pointInto(k Key, bs *[]Bucket, exs *[]Exemplar) HistPoint {
	p := h.fill(k, (*bs)[:0])
	n := len(p.Buckets)
	p.Buckets, *bs = p.Buckets[:n:n], (*bs)[n:]
	if h.ex == nil {
		return p
	}
	for j, b := range p.Buckets {
		if e := h.ex[bits.TrailingZeros64(uint64(b.Le))]; e.Trace != 0 {
			*exs = append(*exs, e)
			p.Buckets[j].Ex = &(*exs)[len(*exs)-1]
		}
	}
	return p
}

// HistBuf holds the buckets of one folded histogram point; see
// Snapshot.Window.
type HistBuf [histBuckets]Bucket

// fold sums histogram points in one array indexed by bucket (Le is
// always 1<<i): the one code path of merge, Sub, MergedHist and Window.
// On addition the added point's exemplar wins a bucket both carry (the
// latest-observation-wins rule of ObserveTrace, under the sorted merge
// order); on subtraction the bucket keeps its own. A folded point never
// points into its sources, which the sampler may refill.
type fold struct {
	p   HistPoint // all but Buckets
	acc [histBuckets]Bucket
}

// add folds the buckets bs in with the given sign.
func (f *fold) add(bs []Bucket, sign int64) {
	for _, x := range bs {
		s := &f.acc[bits.TrailingZeros64(uint64(x.Le))]
		if sign < 0 {
			s.Count -= x.Count
			continue
		}
		s.Count += x.Count
		if x.Ex != nil {
			s.Ex = x.Ex
		}
	}
}

// merge folds o in (same metric, different node, or successive runs).
func (f *fold) merge(o HistPoint) {
	if o.Count == 0 {
		return
	}
	if f.p.Count == 0 || o.Min < f.p.Min {
		f.p.Min = o.Min
	}
	if o.Max > f.p.Max {
		f.p.Max = o.Max
	}
	f.p.Count += o.Count
	f.p.Sum += o.Sum
	f.add(o.Buckets, 1)
}

// sub takes a previous point out. Min/Max keep the current values:
// extremes have no meaningful delta.
func (f *fold) sub(prev HistPoint) {
	f.p.Count -= prev.Count
	f.p.Sum -= prev.Sum
	f.add(prev.Buckets, -1)
}

// point returns the folded point, its non-empty buckets in ascending
// Le order written over bs. Their exemplars are copied over exs, which
// must have room for all of them; a nil exs drops them.
func (f *fold) point(bs []Bucket, exs []Exemplar) HistPoint {
	p := f.p
	p.Buckets = bs[:0]
	for i, x := range f.acc {
		if x.Count != 0 {
			x.Le = int64(1) << i
			if x.Ex != nil && exs != nil {
				exs = append(exs, *x.Ex)
				x.Ex = &exs[len(exs)-1]
			} else {
				x.Ex = nil
			}
			p.Buckets = append(p.Buckets, x)
		}
	}
	return p
}

// owned returns the folded point in bucket and exemplar arrays of its
// own.
func (f *fold) owned() HistPoint {
	n, nex := 0, 0
	for _, x := range f.acc {
		if x.Count != 0 {
			n++
			if x.Ex != nil {
				nex++
			}
		}
	}
	return f.point(make([]Bucket, 0, n), make([]Exemplar, 0, nex))
}

// merge folds another point into this one.
func (p *HistPoint) merge(o HistPoint) {
	if o.Count == 0 {
		return
	}
	f := fold{p: *p}
	f.add(p.Buckets, 1)
	f.merge(o)
	*p = f.owned()
}

// Sub returns p minus prev (the observations recorded between two
// snapshots of the same histogram), for windowed quantiles and Diff;
// p and prev are left alone. Min/Max keep the current values: extremes
// have no meaningful delta.
func (p HistPoint) Sub(prev HistPoint) HistPoint {
	f := fold{p: p}
	f.add(p.Buckets, 1)
	f.sub(prev)
	return f.owned()
}

// Quantile returns the q-th quantile in nanoseconds (0 on an empty
// histogram), interpolating linearly inside the bucket holding the
// quantile rank: a bucket (lo, le] contributing c observations is
// treated as c observations spread evenly across it. The result is
// clamped to the observed [Min, Max] range, so a single-valued
// histogram reports that exact value at every quantile.
func (p HistPoint) Quantile(q float64) int64 {
	if p.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(p.Count)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	v := float64(p.Max)
	for _, b := range p.Buckets {
		c := float64(b.Count)
		if cum+c >= rank {
			lo := 0.0
			if b.Le > 1 {
				lo = float64(b.Le) / 2
			}
			v = lo + (rank-cum)/c*(float64(b.Le)-lo)
			break
		}
		cum += c
	}
	out := int64(v + 0.5)
	if out > p.Max {
		out = p.Max
	}
	if out < p.Min {
		out = p.Min
	}
	return out
}

// P50 is the interpolated median.
func (p HistPoint) P50() int64 { return p.Quantile(0.5) }

// P90 is the interpolated 90th percentile.
func (p HistPoint) P90() int64 { return p.Quantile(0.9) }

// P99 is the interpolated 99th percentile.
func (p HistPoint) P99() int64 { return p.Quantile(0.99) }

// P999 is the interpolated 99.9th percentile — the headline tail metric
// of the multitenant and survival experiments.
func (p HistPoint) P999() int64 { return p.Quantile(0.999) }
