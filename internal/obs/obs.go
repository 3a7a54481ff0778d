// Package obs is the cluster-wide observability layer: a metrics
// registry (counters, gauges, log-bucketed latency histograms keyed by
// (node, layer, name)), a flight recorder (bounded ring of recent
// protocol events), and a periodic virtual-time sampler producing
// time-series snapshots.
//
// Everything runs on the virtual clock and is fully deterministic:
// snapshots sort their entries, the sampler is driven by sim timer
// events only, and no wall-clock or map-iteration order ever reaches
// the output. The protocol layers publish their existing counters
// through pull-model Collectors, so the hot paths pay nothing and the
// registry can never drift from the per-package Stats structs.
//
// The package sits below every protocol layer: it imports only sim.
package obs

import (
	"fmt"
	"strings"

	"bcl/internal/sim"
)

// Obs bundles one cluster's observability state: the metrics registry,
// the flight recorder, and the sampler's time series. A nil *Obs is
// valid everywhere and records nothing, so components built outside a
// cluster keep working untraced.
type Obs struct {
	Reg *Registry
	Rec *Recorder

	// OnSample, when set, is called with each sampler tick right after
	// it is stored — the hook the health engine hangs off. It runs at
	// sampler cadence on the virtual clock, so anything it does stays
	// deterministic.
	OnSample func(Sample)

	samples    sim.Ring[Sample]
	keep       int
	sampler    sim.Timer
	samplerEnv *sim.Env
}

// Sample is one sampler tick: the registry state at a virtual instant.
type Sample struct {
	At   sim.Time
	Snap *Snapshot
}

// New returns an empty observability bundle with a 256-event flight
// recorder. The recorder's eviction count is published as the
// cluster-wide obs/rec_dropped counter so a truncated post-mortem dump
// is visible as such.
func New() *Obs {
	o := &Obs{Reg: NewRegistry(), Rec: NewRecorder(0)}
	o.Reg.RegisterCollector(func(set Set) {
		set(-1, "obs", "rec_events", o.Rec.Total())
		set(-1, "obs", "rec_dropped", o.Rec.Dropped())
	})
	return o
}

// RegisterCollector adds a pull-model counter source to the registry.
func (o *Obs) RegisterCollector(c Collector) {
	if o == nil {
		return
	}
	o.Reg.RegisterCollector(c)
}

// RegisterGaugeCollector adds a pull-model gauge source to the
// registry.
func (o *Obs) RegisterGaugeCollector(c GaugeCollector) {
	if o == nil {
		return
	}
	o.Reg.RegisterGaugeCollector(c)
}

// Event appends a protocol event to the flight recorder.
func (o *Obs) Event(t sim.Time, node int, layer, what string, trace uint64, detail string) {
	if o == nil {
		return
	}
	o.Rec.Record(t, node, layer, what, trace, detail)
}

// Observe records one value into the (node, layer, name) histogram.
func (o *Obs) Observe(node int, layer, name string, v int64) {
	if o == nil {
		return
	}
	o.Reg.Histogram(node, layer, name).Observe(v)
}

// Snapshot captures the registry at the given virtual time.
func (o *Obs) Snapshot(at sim.Time) *Snapshot {
	if o == nil {
		return &Snapshot{}
	}
	return o.Reg.Snapshot(at)
}

// StartSampler arms a periodic virtual-time sampler: every `every`
// virtual nanoseconds it snapshots the registry into a bounded series
// (the oldest of `keep` samples is dropped on overflow). The sampler
// re-arms only while other events are still pending, so an Env.Run()
// that would otherwise drain to idle still terminates: once the
// simulation has nothing left to do, the series is complete. A tick on
// a full series refills the snapshot of the sample it evicts.
func (o *Obs) StartSampler(env *sim.Env, every sim.Time, keep int) {
	if o == nil || env == nil || every <= 0 {
		return
	}
	if keep <= 0 {
		keep = 64
	}
	o.StopSampler()
	o.keep = keep
	o.samplerEnv = env
	var tick func()
	tick = func() {
		var s Sample
		if o.samples.Len() >= o.keep {
			s = o.samples.Pop() // its snapshot is refilled, not replaced
		}
		s.At, s.Snap = env.Now(), o.Reg.SnapshotInto(s.Snap, env.Now())
		o.samples.Push(s)
		if o.OnSample != nil {
			o.OnSample(s)
		}
		if env.Idle() {
			// Nothing else is scheduled: re-arming would keep the event
			// queue non-empty forever.
			o.sampler = sim.Timer{}
			return
		}
		o.sampler = env.After(every, tick)
	}
	o.sampler = env.After(every, tick)
}

// StopSampler cancels a pending sampler tick (the series is kept).
func (o *Obs) StopSampler() {
	if o == nil {
		return
	}
	o.sampler.Cancel()
	o.sampler = sim.Timer{}
}

// Samples returns a deep copy of the sampler's time series, oldest
// first: nothing the sampler does later changes it.
func (o *Obs) Samples() []Sample {
	if o == nil {
		return nil
	}
	out := o.samples.AppendTo(nil)
	for i := range out {
		out[i].Snap = Merge(out[i].Snap) // a merge of one is a copy
	}
	return out
}

// NumSamples returns how many samples the series holds.
func (o *Obs) NumSamples() int {
	if o == nil {
		return 0
	}
	return o.samples.Len()
}

// SampleAt returns the i-th oldest sample of the series, which must
// exist. The sampler refills its snapshot when it evicts it; a Diff,
// Merge or Window of it owns its storage.
func (o *Obs) SampleAt(i int) Sample { return *o.samples.At(i) }

// TimelineCol names one column of a metrics timeline: a counter summed
// across all nodes of the given layer.
type TimelineCol struct {
	Label string
	Layer string
	Name  string
}

// TimelineText renders the sampler series as a table: one row per
// sample, one column per counter (cumulative values, summed across
// nodes).
func (o *Obs) TimelineText(cols []TimelineCol) string {
	if o == nil || o.samples.Len() == 0 {
		return "(no samples)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10s", "t")
	for _, c := range cols {
		fmt.Fprintf(&b, " %14s", c.Label)
	}
	b.WriteByte('\n')
	for i := 0; i < o.samples.Len(); i++ {
		s := o.samples.At(i)
		fmt.Fprintf(&b, "%8.1fms", float64(s.At)/float64(sim.Millisecond))
		for _, c := range cols {
			fmt.Fprintf(&b, " %14d", s.Snap.SumCounter(c.Layer, c.Name))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
