package openloop

// Open-loop traffic generation for the service-tier experiments: the
// generator decides when the next request arrives and how big it is
// *independently* of how fast the system drains them — the defining
// property of an open-loop load test, and the one that surfaces
// queueing collapse that closed-loop (ping-pong-shaped) drivers hide.
//
// All three generators are deterministic given their seed, own their
// private PRNG (so pulling a sample never perturbs the simulation's
// RNG stream), and allocate nothing per sample.

import (
	"math"

	"bcl/internal/sim"
)

// olRand is a tiny private splitmix64 stream.
type olRand struct{ s uint64 }

func (r *olRand) next() uint64 { return sim.SplitmixNext(&r.s) }

// float returns a uniform draw in (0, 1]: never zero, so it is safe
// under a logarithm.
func (r *olRand) float() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// Poisson generates exponential interarrival gaps with the given mean
// — a Poisson arrival process in virtual time.
type Poisson struct {
	r    olRand
	mean float64
}

// NewPoisson returns a Poisson arrival generator with the given mean
// interarrival gap.
func NewPoisson(seed uint64, mean sim.Time) *Poisson {
	return &Poisson{r: olRand{s: seed}, mean: float64(mean)}
}

// Next returns the gap to the next arrival (at least 1 ns, so time
// always advances).
func (g *Poisson) Next() sim.Time {
	gap := sim.Time(-g.mean * math.Log(g.r.float()))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// Bursty is a two-state Markov-modulated Poisson process: arrivals are
// exponential with the quiet mean in the quiet state and with the
// (much shorter) burst mean inside a burst. State flips are sampled
// per arrival with probabilities chosen so the mean sojourn in each
// state is the configured number of arrivals. This is the classic
// on/off model for flash-crowd traffic.
type Bursty struct {
	r       olRand
	quiet   float64
	burst   float64
	pEnter  float64 // quiet -> burst flip probability per arrival
	pExit   float64 // burst -> quiet flip probability per arrival
	inBurst bool
}

// NewBursty returns a bursty arrival generator: quiet-state mean gap,
// burst-state mean gap, and the mean number of arrivals spent in each
// state before flipping.
func NewBursty(seed uint64, quiet, burst sim.Time, quietLen, burstLen int) *Bursty {
	if quietLen < 1 {
		quietLen = 1
	}
	if burstLen < 1 {
		burstLen = 1
	}
	return &Bursty{
		r:      olRand{s: seed},
		quiet:  float64(quiet),
		burst:  float64(burst),
		pEnter: 1 / float64(quietLen),
		pExit:  1 / float64(burstLen),
	}
}

// Next returns the gap to the next arrival.
func (g *Bursty) Next() sim.Time {
	if g.inBurst {
		if g.r.float() <= g.pExit {
			g.inBurst = false
		}
	} else if g.r.float() <= g.pEnter {
		g.inBurst = true
	}
	mean := g.quiet
	if g.inBurst {
		mean = g.burst
	}
	gap := sim.Time(-mean * math.Log(g.r.float()))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// BoundedPareto samples heavy-tailed sizes from a bounded Pareto
// distribution on [lo, hi] with tail index alpha — the standard model
// for value/flow sizes where most are small and a few are huge.
type BoundedPareto struct {
	r     olRand
	alpha float64
	// loA and hiA are lo^-alpha and hi^-alpha, precomputed for the
	// inverse-CDF draw.
	loA, hiA float64
}

// NewBoundedPareto returns a size generator on [lo, hi] with tail
// index alpha (alpha around 1.1-1.5 is heavily tailed; larger alpha
// concentrates near lo).
func NewBoundedPareto(seed uint64, lo, hi int, alpha float64) *BoundedPareto {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return &BoundedPareto{
		r:     olRand{s: seed},
		alpha: alpha,
		loA:   math.Pow(float64(lo), -alpha),
		hiA:   math.Pow(float64(hi), -alpha),
	}
}

// Next returns one size sample (inverse-CDF of the bounded Pareto).
func (g *BoundedPareto) Next() int {
	u := g.r.float()
	x := math.Pow(g.loA-u*(g.loA-g.hiA), -1/g.alpha)
	return int(x)
}
