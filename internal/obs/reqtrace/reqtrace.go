// Package reqtrace is the request-level observability layer: it
// assembles each service RPC's causal lifecycle (client enqueue → BCL
// send → wire → server exec → 2PC prepare/commit fan-out →
// invalidation-wait → reply) into a per-request span tree keyed by the
// svc flow id from the existing trace machinery, tail-samples the
// interesting ones, tracks heavy hitters with space-saving sketches,
// and renders a deterministic slow-request log.
//
// Tail-based sampling keeps full span trees only for requests that
// are forced-interesting (aborted, retransmitted, linearizability-
// flagged, or above the SLO) or discretionary-slow (latency above
// SlowFactor × a running quantile estimate), under a hard Budget. The
// classes rank abort > slo > flagged > retrans > slow: at full budget a
// forced trace evicts the oldest retained trace of the lowest rank
// below its own, and is dropped only when none ranks below it;
// discretionary traces beyond the budget are dropped. Both count.
// Everything runs on the virtual clock in the single-threaded
// simulator, so two same-seed runs produce byte-identical slow logs,
// exemplar sets and sampling decisions.
//
// The package sits beside health: it imports only obs, trace and sim.
package reqtrace

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"

	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// Config tunes the tail-sampling policy.
type Config struct {
	// Budget bounds the retained full span trees (default 64).
	Budget int
	// SlowFactor retains a request whose latency exceeds SlowFactor ×
	// the running Quantile estimate (default 2.0).
	SlowFactor float64
	// Quantile is the running estimate the factor applies to
	// (default 0.99).
	Quantile float64
	// SLO, when non-zero, force-retains every request slower than it.
	SLO sim.Time
	// Warmup is how many completions feed the running quantile before
	// the discretionary-slow rule arms (default 32).
	Warmup int
	// Shards, when non-zero, sizes the fair per-shard share the
	// hot-shard health rule compares against.
	Shards int
	// TopK is the candidate count of each heavy-hitter sketch
	// (default 8).
	TopK int
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 64
	}
	if c.SlowFactor <= 0 {
		c.SlowFactor = 2.0
	}
	if c.Quantile <= 0 || c.Quantile > 1 {
		c.Quantile = 0.99
	}
	if c.Warmup <= 0 {
		c.Warmup = 32
	}
	if c.TopK <= 0 {
		c.TopK = 8
	}
	return c
}

// Request is one svc RPC's assembled lifecycle. Spans hold the
// zero-width stage markers recorded along the flow (client issue,
// server exec, 2PC stages, reply consume), kept only when the request
// is sampled; trailing spans (participant commit applies landing
// after the reply) keep attaching to a retained request.
type Request struct {
	Flow    uint64       `json:"flow"`
	Kind    string       `json:"kind"`
	Key     string       `json:"key"`
	User    uint16       `json:"user"`
	Node    int          `json:"node"`
	Shard   int          `json:"shard"`
	Arrival sim.Time     `json:"arrival_ns"`
	Done    sim.Time     `json:"done_ns"`
	Latency sim.Time     `json:"latency_ns"`
	Aborted bool         `json:"aborted,omitempty"`
	Retrans int          `json:"retrans,omitempty"`
	Flagged bool         `json:"flagged,omitempty"`
	Why     string       `json:"why,omitempty"`
	Spans   []trace.Span `json:"spans,omitempty"`

	rank int // of its highest retention class
}

// The forced classes' ranks; a slow-only trace ranks 0.
const rankRetrans, rankFlagged, rankSLO, rankAbort = 1, 2, 3, 4

// Recorder assembles, samples and ranks request traces. A nil
// *Recorder is valid everywhere and records nothing, so the svc hot
// paths stay clean of conditionals.
type Recorder struct {
	cfg Config

	pending map[uint64]*Request // in flight, keyed by flow
	open    map[uint64]*Request // retained, still accepting trailing spans
	free    sim.FreeList[*Request]

	retained []*Request // sampled traces in completion order
	lat      obs.Histogram

	done       uint64
	sampled    uint64
	dropped    uint64 // interesting but lost to the budget
	forcedDrop uint64 // forced-class traces lost to the budget
	abortsSeen uint64
	sloSeen    uint64

	byKey   *Sketch[string]
	byUser  *Sketch[uint16] // rendered "u0007"
	byShard *Sketch[int]    // rendered "s2"

	digest uint64 // running fnv over every sampling decision
}

// New returns a recorder with the given policy.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:     cfg,
		pending: make(map[uint64]*Request),
		open:    make(map[uint64]*Request),
		byKey:   NewSketch(cfg.TopK, func(k string) string { return k }),
		byUser:  NewSketch(cfg.TopK, func(u uint16) string { return fmt.Sprintf("u%04d", u) }),
		byShard: NewSketch(cfg.TopK, func(s int) string { return fmt.Sprintf("s%d", s) }),
		digest:  1469598103934665603, // fnv-64a offset basis
	}
}

// Begin opens a request record at its arrival instant (client
// enqueue). The flow id is the svc causal trace id the stage markers
// carry.
func (r *Recorder) Begin(flow uint64, kind, key string, user uint16, node, shard int, at sim.Time) {
	if r == nil {
		return
	}
	req, ok := r.free.Get()
	if !ok {
		req = new(Request)
	}
	*req = Request{
		Flow: flow, Kind: kind, Key: key, User: user, Node: node, Shard: shard,
		Arrival: at, Spans: req.Spans[:0],
	}
	r.pending[flow] = req
	r.byKey.Offer(key)
	r.byUser.Offer(user)
	r.byShard.Offer(shard)
}

// Mark attaches one zero-width stage marker to the request's span
// tree. Markers on unknown flows (or flows already dropped by the
// sampler) are ignored.
func (r *Recorder) Mark(flow uint64, stage, where string, at sim.Time) {
	if r == nil {
		return
	}
	req := r.pending[flow]
	if req == nil {
		req = r.open[flow]
	}
	if req == nil {
		return
	}
	req.Spans = append(req.Spans, trace.Span{Stage: stage, Where: where, Start: at, End: at, Flow: flow})
}

// Retransmit counts one service-level retransmission on the flow.
func (r *Recorder) Retransmit(flow uint64) {
	if r == nil {
		return
	}
	if req := r.pending[flow]; req != nil {
		req.Retrans++
	}
}

// Flag marks the flow linearizability-suspect (e.g. a monotonic-read
// violation detected on the client).
func (r *Recorder) Flag(flow uint64) {
	if r == nil {
		return
	}
	if req := r.pending[flow]; req != nil {
		req.Flagged = true
	}
}

// End closes the request at its reply-consume instant and runs the
// tail-sampling decision. Returns whether the span tree was retained.
// A request that is not retained goes back to the free list for the
// next Begin; a retained one is held by the slow log and bundles, so
// it is never reused.
func (r *Recorder) End(flow uint64, at sim.Time, aborted bool) bool {
	if r == nil {
		return false
	}
	req := r.pending[flow]
	if req == nil {
		return false
	}
	delete(r.pending, flow)
	req.Done = at
	req.Latency = at - req.Arrival
	req.Aborted = aborted
	r.done++

	// Classify against the estimate built from *previous* completions,
	// then fold this one in.
	var why []string
	forced := false
	if aborted {
		why, forced = append(why, "abort"), true
		req.rank = rankAbort
		r.abortsSeen++
	}
	if req.Retrans > 0 {
		why, forced = append(why, "retrans"), true
		req.rank = max(req.rank, rankRetrans)
	}
	if req.Flagged {
		why, forced = append(why, "flagged"), true
		req.rank = max(req.rank, rankFlagged)
	}
	if r.cfg.SLO > 0 && req.Latency > r.cfg.SLO {
		why, forced = append(why, "slo"), true
		req.rank = max(req.rank, rankSLO)
		r.sloSeen++
	}
	if !forced && r.lat.Count() >= uint64(r.cfg.Warmup) {
		if thr := r.Threshold(); thr > 0 && req.Latency > thr {
			why = append(why, "slow")
		}
	}
	r.lat.Observe(int64(req.Latency))
	req.Why = strings.Join(why, ",")

	retain := len(why) > 0
	if retain && len(r.retained) >= r.cfg.Budget {
		if forced {
			if !r.evictBelow(req.rank) {
				retain = false
				r.forcedDrop++
			}
		} else {
			retain = false
		}
	}
	switch {
	case retain:
		r.retained = append(r.retained, req)
		r.open[flow] = req
		r.sampled++
	case len(why) > 0:
		r.dropped++
	}
	r.mix(flow, uint64(req.Latency), retain, req.Why)
	if retain {
		r.free.Abandon()
	} else {
		r.free.Put(req)
	}
	return retain
}

// evictBelow removes the oldest retained trace of the lowest rank
// below rank, to make room for a forced trace of that rank. Returns
// false when none ranks below it.
func (r *Recorder) evictBelow(rank int) bool {
	at := -1
	for i, q := range r.retained {
		if q.rank < rank && (at < 0 || q.rank < r.retained[at].rank) {
			at = i
		}
	}
	if at < 0 {
		return false
	}
	delete(r.open, r.retained[at].Flow)
	r.retained = append(r.retained[:at], r.retained[at+1:]...)
	r.dropped++
	return true
}

// mix folds one sampling decision into the running fnv-64a digest.
func (r *Recorder) mix(flow, lat uint64, retained bool, why string) {
	h := fnv.New64a()
	var b [17]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(flow >> (8 * i))
		b[8+i] = byte(lat >> (8 * i))
	}
	if retained {
		b[16] = 1
	}
	h.Write(b[:])
	h.Write([]byte(why))
	r.digest = r.digest*1099511628211 ^ h.Sum64()
}

// Threshold returns the current discretionary-slow latency bound
// (SlowFactor × running quantile), 0 before any completion.
func (r *Recorder) Threshold() sim.Time {
	if r == nil || r.lat.Count() == 0 {
		return 0
	}
	return sim.Time(r.cfg.SlowFactor * float64(r.lat.Quantile(r.cfg.Quantile)))
}

// Done returns the completed-request count.
func (r *Recorder) Done() uint64 {
	if r == nil {
		return 0
	}
	return r.done
}

// Sampled returns how many span trees were ever retained.
func (r *Recorder) Sampled() uint64 {
	if r == nil {
		return 0
	}
	return r.sampled
}

// Dropped returns how many interesting traces were lost to the budget
// (discretionary overflow plus evictions in favor of forced traces).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// ForcedDrops returns how many forced-class traces (abort, retransmit,
// flagged, >SLO) could not be retained: zero whenever the budget is
// sized to the workload.
func (r *Recorder) ForcedDrops() uint64 {
	if r == nil {
		return 0
	}
	return r.forcedDrop
}

// AbortsSeen returns how many completions were aborted.
func (r *Recorder) AbortsSeen() uint64 {
	if r == nil {
		return 0
	}
	return r.abortsSeen
}

// SLOSeen returns how many completions exceeded the configured SLO.
func (r *Recorder) SLOSeen() uint64 {
	if r == nil {
		return 0
	}
	return r.sloSeen
}

// Retained returns the currently retained traces in completion order.
func (r *Recorder) Retained() []*Request {
	if r == nil {
		return nil
	}
	return r.retained
}

// RetainedWhy counts currently retained traces whose retention reasons
// include any of the given ones.
func (r *Recorder) RetainedWhy(whys ...string) int {
	n := 0
	for _, q := range r.Retained() {
		for _, w := range strings.Split(q.Why, ",") {
			if slices.Contains(whys, w) {
				n++
				break
			}
		}
	}
	return n
}

// Digest fingerprints every sampling decision made so far (flow,
// latency, retained bit, reasons) — the determinism gate compares it
// across double runs.
func (r *Recorder) Digest() uint64 {
	if r == nil {
		return 0
	}
	return r.digest
}

// HotLine renders a one-line heavy-hitter summary for the bcltop live
// view.
func (r *Recorder) HotLine() string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("hot keys: %s | hot users: %s | shards: %s | traces %d kept / %d dropped",
		r.byKey.Line(3), r.byUser.Line(3), r.byShard.Line(3), r.sampled, r.dropped)
}

// Collector publishes the recorder's counters into a registry
// snapshot under the cluster-wide "reqtrace" layer.
func (r *Recorder) Collector() obs.Collector {
	return func(set obs.Set) {
		set(-1, "reqtrace", "req_done", r.Done())
		set(-1, "reqtrace", "traces_sampled", r.Sampled())
		set(-1, "reqtrace", "traces_dropped", r.Dropped())
		set(-1, "reqtrace", "forced_drops", r.ForcedDrops())
		set(-1, "reqtrace", "aborts_seen", r.AbortsSeen())
		set(-1, "reqtrace", "slo_seen", r.SLOSeen())
	}
}

// GaugeCollector publishes the heavy-hitter shares and the retained
// trace count. hot_shard_share_pct vs fair_shard_share_pct is the pair
// the health engine's hot-shard divergence rule compares.
func (r *Recorder) GaugeCollector() obs.GaugeCollector {
	return func(set obs.GaugeSet) {
		set(-1, "reqtrace", "retained_traces", int64(len(r.Retained())))
		set(-1, "reqtrace", "hot_key_share_pct", r.KeyShare())
		set(-1, "reqtrace", "hot_user_share_pct", r.UserShare())
		set(-1, "reqtrace", "hot_shard_share_pct", r.ShardShare())
		set(-1, "reqtrace", "fair_shard_share_pct", r.FairShare())
	}
}

// KeyShare returns the top key's share of the request stream, percent.
func (r *Recorder) KeyShare() int64 {
	if r == nil {
		return 0
	}
	return r.byKey.SharePct()
}

// UserShare returns the top user's share of the request stream, percent.
func (r *Recorder) UserShare() int64 {
	if r == nil {
		return 0
	}
	return r.byUser.SharePct()
}

// ShardShare returns the top shard's share of the request stream, percent.
func (r *Recorder) ShardShare() int64 {
	if r == nil {
		return 0
	}
	return r.byShard.SharePct()
}

// FairShare returns the uniform per-shard share (100/Shards), percent.
func (r *Recorder) FairShare() int64 {
	if r == nil || r.cfg.Shards <= 0 {
		return 0
	}
	return int64(100 / r.cfg.Shards)
}

// SlowLog returns the top-n retained traces ranked by latency
// descending (ties by flow id ascending) — deterministic by
// construction.
func (r *Recorder) SlowLog(n int) []*Request {
	if r == nil {
		return nil
	}
	out := append([]*Request(nil), r.retained...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency > out[j].Latency
		}
		return out[i].Flow < out[j].Flow
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// SlowLogText renders the ranked slow-request log with a per-phase
// breakdown: each stage marker prints its offset from arrival and the
// delta from the previous stage, so the line answers "where did the
// time go" (queue vs wire vs exec vs 2PC vs invalidation-wait).
func (r *Recorder) SlowLogText(n int) string {
	reqs := r.SlowLog(n)
	var b strings.Builder
	fmt.Fprintf(&b, "slow-request log: top %d of %d retained traces (%d requests, %d interesting dropped, est p%g %.2fus)\n",
		len(reqs), len(r.Retained()), r.Done(), r.Dropped(),
		r.cfg.Quantile*100, float64(r.lat.Quantile(r.cfg.Quantile))/1000)
	for i, q := range reqs {
		fmt.Fprintf(&b, "#%-3d %9.2fus  %-4s key=%-8s u%04d node%d shard%d flow=%x  [%s]\n",
			i+1, float64(q.Latency)/1000, q.Kind, q.Key, q.User, q.Node, q.Shard, q.Flow, q.Why)
		prev := q.Arrival
		spans := append([]trace.Span(nil), q.Spans...)
		sort.SliceStable(spans, func(a, c int) bool { return spans[a].Start < spans[c].Start })
		for _, s := range spans {
			fmt.Fprintf(&b, "     %9.2fus  +%-9.2fus %-34s %s\n",
				float64(s.Start-q.Arrival)/1000, float64(s.Start-prev)/1000, s.Stage, s.Where)
			prev = s.Start
		}
	}
	if len(reqs) == 0 {
		b.WriteString("(no retained traces)\n")
	}
	return b.String()
}
