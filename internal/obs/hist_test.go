package obs

import "testing"

// point snapshots one histogram as Registry.Snapshot does, in a bucket
// and an exemplar array of its own.
func (h *Histogram) point(k Key) HistPoint {
	n, nex := h.size()
	bs, exs := make([]Bucket, n), make([]Exemplar, 0, nex)
	return h.pointInto(k, &bs, &exs)
}

// TestQuantileInterpolation: observations spread across buckets give
// interpolated (not bucket-upper-bound) quantiles.
func TestQuantileInterpolation(t *testing.T) {
	h := &Histogram{}
	// Two observations in the (2, 4] bucket. Rank p50 = 1 ->
	// halfway through the first observation's share: 2 + 0.5*2 = 3.
	h.Observe(3)
	h.Observe(4)
	p := h.point(Key{})
	if got := p.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %d, want interpolated 3", got)
	}
	// p100 lands at the bucket's top, clamped to Max = 4.
	if got := p.Quantile(1); got != 4 {
		t.Fatalf("p100 = %d, want 4", got)
	}
}

// TestQuantileBucketBoundary: a rank exactly on a bucket boundary
// takes the lower bucket's upper edge, and the next rank starts
// interpolating inside the upper bucket.
func TestQuantileBucketBoundary(t *testing.T) {
	h := &Histogram{}
	// 2 observations in (2, 4], 2 in (4, 8].
	h.Observe(3)
	h.Observe(4)
	h.Observe(6)
	h.Observe(8)
	p := h.point(Key{})
	// Rank 2 of 4 = exactly the boundary: end of the (2,4] bucket.
	if got := p.Quantile(0.5); got != 4 {
		t.Fatalf("p50 = %d, want 4 (bucket boundary)", got)
	}
	// Rank 3 = halfway into (4, 8]: 4 + 0.5*4 = 6.
	if got := p.Quantile(0.75); got != 6 {
		t.Fatalf("p75 = %d, want 6", got)
	}
	// Rank 4 = the top of (4, 8], clamped to Max = 8.
	if got := p.Quantile(1); got != 8 {
		t.Fatalf("p100 = %d, want 8", got)
	}
}

// TestQuantileSingleValue: every quantile of a single-valued
// histogram is that value (Min/Max clamping).
func TestQuantileSingleValue(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	p := h.point(Key{})
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := p.Quantile(q); got != 1000 {
			t.Fatalf("q%v = %d, want 1000", q, got)
		}
	}
}

// TestQuantileAccessors: P50/P90/P99 agree with Quantile and order
// correctly on a spread distribution.
func TestQuantileAccessors(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * 100) // 100..10000 ns
	}
	p := h.point(Key{})
	if p.P50() != p.Quantile(0.5) || p.P90() != p.Quantile(0.9) || p.P99() != p.Quantile(0.99) {
		t.Fatal("accessors disagree with Quantile")
	}
	if !(p.P50() < p.P90() && p.P90() <= p.P99()) {
		t.Fatalf("ordering violated: p50=%d p90=%d p99=%d", p.P50(), p.P90(), p.P99())
	}
	// The p50 of 100 evenly spread values must land in the right
	// bucket region: values 100..10000, median ~5000, log2 bucket
	// (4096, 8192]. Interpolation keeps it well inside, not at 8192.
	if p.P50() < 4096 || p.P50() >= 8192 {
		t.Fatalf("p50 = %d, want inside (4096, 8192)", p.P50())
	}
	// First bucket: the (0, 1] bucket interpolates from 0.
	h2 := &Histogram{}
	h2.Observe(0)
	h2.Observe(1)
	p2 := h2.point(Key{})
	if got := p2.Quantile(0.5); got != 1 { // interpolates to 0.5, rounds to 1, clamped >= Min=0
		t.Fatalf("first-bucket p50 = %d", got)
	}
	// Zero quantile on empty stays 0.
	var empty HistPoint
	if empty.P99() != 0 {
		t.Fatal("empty P99 != 0")
	}
}

// TestQuantileEdgeCases: out-of-range q clamps, empty histograms
// report 0 everywhere, and a one-bucket histogram stays inside it.
func TestQuantileEdgeCases(t *testing.T) {
	var empty HistPoint
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty q%v = %d", q, got)
		}
	}
	h := &Histogram{}
	h.Observe(10)
	h.Observe(12)
	h.Observe(14)
	p := h.point(Key{})
	// q below 0 clamps to 0, q above 1 clamps to 1.
	if p.Quantile(-0.5) != p.Quantile(0) {
		t.Fatal("negative q not clamped to 0")
	}
	if p.Quantile(3) != p.Quantile(1) {
		t.Fatal("q > 1 not clamped to 1")
	}
	// Every quantile of a single-bucket histogram lands in [Min, Max].
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := p.Quantile(q); got < 10 || got > 14 {
			t.Fatalf("q%v = %d escaped [10, 14]", q, got)
		}
	}
	// q=0 still reports the first observation's region, never 0.
	if got := p.Quantile(0); got < 10 {
		t.Fatalf("q0 = %d, want >= Min", got)
	}
	// Negative observations clamp to zero, not panic.
	h2 := &Histogram{}
	h2.Observe(-5)
	if p2 := h2.point(Key{}); p2.Min != 0 || p2.Quantile(1) != 0 {
		t.Fatalf("negative observation: %+v", p2)
	}
}

// TestExemplarPropagation: traced observations stamp the landing
// bucket, latest wins, untraced observations allocate nothing, and
// exemplars survive point/merge/Sub.
func TestExemplarPropagation(t *testing.T) {
	h := &Histogram{}
	h.Observe(100) // untraced: no exemplar state
	if h.ex != nil {
		t.Fatal("untraced observation allocated exemplar state")
	}
	h.ObserveTrace(100, 0xabc)
	h.ObserveTrace(120, 0xdef) // same (64, 128] bucket: latest wins
	h.ObserveTrace(5000, 0x42)
	p := h.point(Key{})
	var got []Exemplar
	for _, b := range p.Buckets {
		if b.Ex != nil {
			got = append(got, *b.Ex)
		}
	}
	if len(got) != 2 {
		t.Fatalf("exemplars = %+v", got)
	}
	if got[0] != (Exemplar{Trace: 0xdef, Value: 120}) {
		t.Fatalf("bucket exemplar = %+v, want latest (def, 120)", got[0])
	}
	if got[1] != (Exemplar{Trace: 0x42, Value: 5000}) {
		t.Fatalf("bucket exemplar = %+v", got[1])
	}
	// Sub keeps the current side's exemplars.
	prev := h.point(Key{})
	h.ObserveTrace(110, 0x99)
	win := h.point(Key{}).Sub(prev)
	found := false
	for _, b := range win.Buckets {
		if b.Ex != nil && b.Ex.Trace == 0x99 {
			found = true
		}
	}
	if !found {
		t.Fatalf("windowed exemplar lost: %+v", win.Buckets)
	}
}
