// Package health is the deterministic cluster health engine: it rides
// the obs sampler, derives time series from registry samples (windowed
// rates, deltas, gauges, quantiles, SLO bad-fractions), evaluates a
// declarative rule set (thresholds, error-budget burn rates, rail
// divergence — the generalized form of PR 6's gray-failure detector),
// and turns rule trips into an alert timeline with firing/resolved
// transitions at exact virtual timestamps plus schema'd postmortem
// bundles carrying the evidence.
//
// Everything runs on the virtual clock off sampler ticks, so two runs
// of the same seeded experiment produce byte-identical alert
// timelines and bundles — which is exactly what the healthwatch
// benchmark gate asserts.
//
// The package sits beside obs: it imports only obs, trace and sim.
package health

import (
	"fmt"

	"bcl/internal/obs"
)

// SourceKind selects how a Source turns two consecutive samples into
// one scalar.
type SourceKind int

const (
	// SrcRate is a windowed per-second rate of a counter sum.
	SrcRate SourceKind = iota
	// SrcDelta is the raw counter-sum increase across the window.
	SrcDelta
	// SrcGauge is the instantaneous gauge sum at the current sample.
	SrcGauge
	// SrcQuantile is a quantile (in nanoseconds) of the histogram
	// observations recorded inside the window, merged across nodes.
	SrcQuantile
	// SrcBadFrac is the fraction of windowed histogram observations
	// above BoundNs — the raw material of an SLO burn rate.
	SrcBadFrac
)

// Source names one derived series: a (layer, name) metric plus the
// derivation to apply. Layer is matched exactly.
type Source struct {
	Kind    SourceKind
	Layer   string
	Name    string
	Q       float64 // quantile for SrcQuantile
	BoundNs int64   // SLO bound for SrcBadFrac
}

// Rate derives the per-second rate of a counter summed across nodes.
func Rate(layer, name string) Source { return Source{Kind: SrcRate, Layer: layer, Name: name} }

// Delta derives the windowed increase of a counter summed across nodes.
func Delta(layer, name string) Source { return Source{Kind: SrcDelta, Layer: layer, Name: name} }

// GaugeOf derives the instantaneous gauge sum across nodes.
func GaugeOf(layer, name string) Source { return Source{Kind: SrcGauge, Layer: layer, Name: name} }

// QuantileOf derives a windowed histogram quantile in nanoseconds.
func QuantileOf(layer, name string, q float64) Source {
	return Source{Kind: SrcQuantile, Layer: layer, Name: name, Q: q}
}

// BadFrac derives the fraction of windowed observations above boundNs.
func BadFrac(layer, name string, boundNs int64) Source {
	return Source{Kind: SrcBadFrac, Layer: layer, Name: name, BoundNs: boundNs}
}

// String renders the derivation for rule descriptions and timelines.
func (s Source) String() string {
	m := s.Layer + "/" + s.Name
	switch s.Kind {
	case SrcRate:
		return "rate(" + m + ")/s"
	case SrcDelta:
		return "delta(" + m + ")"
	case SrcGauge:
		return "gauge(" + m + ")"
	case SrcQuantile:
		return fmt.Sprintf("p%g(%s)ns", s.Q*100, m)
	case SrcBadFrac:
		return fmt.Sprintf("frac(%s > %dns)", m, s.BoundNs)
	}
	return m
}

// Eval computes the derived value for the window (prev, cur]. Rates
// and deltas need a real window; with dt <= 0 they evaluate to zero.
func (s Source) Eval(prev, cur obs.Sample) float64 {
	switch s.Kind {
	case SrcRate:
		dt := float64(cur.At-prev.At) / 1e9
		if dt <= 0 {
			return 0
		}
		return float64(cur.Snap.SumCounter(s.Layer, s.Name)-prev.Snap.SumCounter(s.Layer, s.Name)) / dt
	case SrcDelta:
		return float64(cur.Snap.SumCounter(s.Layer, s.Name) - prev.Snap.SumCounter(s.Layer, s.Name))
	case SrcGauge:
		return float64(cur.Snap.SumGauge(s.Layer, s.Name))
	case SrcQuantile:
		var buf obs.HistBuf
		return float64(cur.Snap.Window(prev.Snap, s.Layer, s.Name, &buf).Quantile(s.Q))
	case SrcBadFrac:
		var buf obs.HistBuf
		return fracAbove(cur.Snap.Window(prev.Snap, s.Layer, s.Name, &buf), s.BoundNs)
	}
	return 0
}

// fracAbove estimates the fraction of observations above bound from
// the log2 buckets: a bucket (lo, le] straddling the bound contributes
// the linear share of its width above it, matching the interpolation
// Quantile uses.
func fracAbove(h obs.HistPoint, bound int64) float64 {
	if h.Count == 0 {
		return 0
	}
	var bad float64
	for _, b := range h.Buckets {
		lo := int64(0)
		if b.Le > 1 {
			lo = b.Le / 2
		}
		switch {
		case bound >= b.Le:
			// whole bucket within the objective
		case bound <= lo:
			bad += float64(b.Count)
		default:
			bad += float64(b.Count) * float64(b.Le-bound) / float64(b.Le-lo)
		}
	}
	return bad / float64(h.Count)
}

// round6 rounds to 6 decimal places so derived values survive a JSON
// round trip byte-identically (same convention as bench artifacts).
func round6(v float64) float64 {
	if v < 0 {
		return -round6(-v)
	}
	return float64(int64(v*1e6+0.5)) / 1e6
}
