package reqtrace

import (
	"strings"
	"testing"

	"bcl/internal/sim"
)

// endAt drives one request through the recorder with the given latency.
func endAt(r *Recorder, flow uint64, lat sim.Time, aborted bool) bool {
	r.Begin(flow, "get", "k", 1, 0, 0, 0)
	return r.End(flow, lat, aborted)
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Begin(1, "get", "k", 0, 0, 0, 0)
	r.Mark(1, "stage", "host0", 0)
	r.Retransmit(1)
	r.Flag(1)
	if r.End(1, 10, false) {
		t.Fatal("nil recorder retained a trace")
	}
	if r.Done() != 0 || r.Sampled() != 0 || r.Dropped() != 0 || r.ForcedDrops() != 0 ||
		r.AbortsSeen() != 0 || r.SLOSeen() != 0 || r.Digest() != 0 || r.Threshold() != 0 {
		t.Fatal("nil recorder returned data")
	}
	if r.Retained() != nil || r.SlowLog(5) != nil {
		t.Fatal("nil recorder returned slices")
	}
	if r.HotLine() != "" {
		t.Fatal("nil recorder hot line")
	}
	if r.KeyShare() != 0 || r.ShardShare() != 0 || r.FairShare() != 0 {
		t.Fatal("nil recorder shares")
	}
}

func TestForcedClassesAlwaysRetain(t *testing.T) {
	r := New(Config{Budget: 8, SLO: 100})
	// Abort.
	if !endAt(r, 1, 10, true) {
		t.Fatal("abort not retained")
	}
	// Retransmit.
	r.Begin(2, "put", "k", 1, 0, 0, 0)
	r.Retransmit(2)
	if !r.End(2, 10, false) {
		t.Fatal("retransmitted request not retained")
	}
	// Linearizability flag.
	r.Begin(3, "get", "k", 1, 0, 0, 0)
	r.Flag(3)
	if !r.End(3, 10, false) {
		t.Fatal("flagged request not retained")
	}
	// SLO violation.
	if !endAt(r, 4, 500, false) {
		t.Fatal("SLO violation not retained")
	}
	// Plain fast request: skipped, not even counted as dropped.
	if endAt(r, 5, 10, false) {
		t.Fatal("boring request retained")
	}
	if r.Sampled() != 4 || r.Dropped() != 0 || r.Done() != 5 {
		t.Fatalf("sampled=%d dropped=%d done=%d", r.Sampled(), r.Dropped(), r.Done())
	}
	if r.AbortsSeen() != 1 || r.SLOSeen() != 1 {
		t.Fatalf("aborts=%d slo=%d", r.AbortsSeen(), r.SLOSeen())
	}
	for i, want := range []string{"abort", "retrans", "flagged", "slo"} {
		if got := r.Retained()[i].Why; got != want {
			t.Fatalf("retained[%d].Why = %q, want %q", i, got, want)
		}
	}
	if r.RetainedWhy("abort") != 1 || r.RetainedWhy("slow") != 0 {
		t.Fatal("RetainedWhy miscounts")
	}
}

func TestDiscretionarySlowArmsAfterWarmup(t *testing.T) {
	r := New(Config{Budget: 8, Warmup: 4, SlowFactor: 2, Quantile: 0.5})
	// During warmup nothing discretionary is retained, however slow.
	for f := uint64(1); f <= 4; f++ {
		if endAt(r, f, 100, false) {
			t.Fatalf("flow %d retained during warmup", f)
		}
	}
	// Running p50 of four identical 100ns completions is 100 (Min/Max
	// clamp), so the threshold is 200.
	if thr := r.Threshold(); thr != 200 {
		t.Fatalf("threshold = %d, want 200", thr)
	}
	if endAt(r, 5, 150, false) {
		t.Fatal("sub-threshold request retained")
	}
	if !endAt(r, 6, 1000, false) {
		t.Fatal("slow request not retained after warmup")
	}
	if r.Retained()[0].Why != "slow" {
		t.Fatalf("why = %q", r.Retained()[0].Why)
	}
}

func TestBudgetEvictsDiscretionaryForForced(t *testing.T) {
	r := New(Config{Budget: 2, Warmup: 1, SlowFactor: 1, Quantile: 0.5})
	endAt(r, 1, 100, false) // warmup
	// Two discretionary-slow traces fill the budget.
	if !endAt(r, 2, 1000, false) || !endAt(r, 3, 1000, false) {
		t.Fatal("slow traces not retained")
	}
	// A third discretionary one is over budget: dropped, not retained.
	if endAt(r, 4, 5000, false) {
		t.Fatal("over-budget discretionary trace retained")
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r.Dropped())
	}
	// A forced trace evicts the oldest discretionary one (flow 2).
	if !endAt(r, 5, 10, true) {
		t.Fatal("forced trace not retained at full budget")
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2 (eviction counts)", r.Dropped())
	}
	flows := []uint64{r.Retained()[0].Flow, r.Retained()[1].Flow}
	if flows[0] != 3 || flows[1] != 5 {
		t.Fatalf("retained flows = %v, want [3 5]", flows)
	}
	// Another forced trace: everything retained is now forced or newer
	// discretionary... flow 3 is still "slow", so it gets evicted too.
	if !endAt(r, 6, 10, true) {
		t.Fatal("second forced trace not retained")
	}
	// Now both retained traces are forced; a third forced one cannot be
	// placed and counts as a forced drop.
	if endAt(r, 7, 10, true) {
		t.Fatal("forced trace retained beyond an all-forced budget")
	}
	if r.ForcedDrops() != 1 {
		t.Fatalf("forcedDrops = %d, want 1", r.ForcedDrops())
	}
}

// TestForcedTraceEvictsLowerRank: with the budget full of
// retransmit-only traces, an abort (or an SLO breach) still evicts the
// oldest trace of the lowest rank below its own; a forced trace is
// dropped only when nothing retained ranks below it.
func TestForcedTraceEvictsLowerRank(t *testing.T) {
	r := New(Config{Budget: 3, SLO: 100})
	retrans := func(flow uint64) bool {
		r.Begin(flow, "put", "k", 1, 0, 0, 0)
		r.Retransmit(flow)
		return r.End(flow, 10, false)
	}
	for f := uint64(1); f <= 3; f++ {
		if !retrans(f) {
			t.Fatalf("retransmitted flow %d not retained", f)
		}
	}
	if retrans(4) || r.ForcedDrops() != 1 {
		t.Fatalf("a fourth retransmit-only trace was retained (forced drops %d)", r.ForcedDrops())
	}
	if !endAt(r, 5, 10, true) {
		t.Fatal("an abort was dropped from a budget full of retransmit-only traces")
	}
	if !endAt(r, 6, 500, false) {
		t.Fatal("an SLO breach was dropped from a budget holding retransmit-only traces")
	}
	if !endAt(r, 7, 10, true) {
		t.Fatal("an abort did not evict the last retransmit-only trace")
	}
	var flows []uint64
	for _, q := range r.Retained() {
		flows = append(flows, q.Flow)
	}
	if len(flows) != 3 || flows[0] != 5 || flows[1] != 6 || flows[2] != 7 || r.Dropped() != 4 {
		t.Fatalf("retained flows %v, dropped %d; want [5 6 7], and flow 4 plus three evictions dropped", flows, r.Dropped())
	}
	if r.RetainedWhy("abort", "slo") != 3 || r.RetainedWhy("retrans") != 0 {
		t.Fatalf("RetainedWhy: abort or slo %d, retrans %d; want 3, 0", r.RetainedWhy("abort", "slo"), r.RetainedWhy("retrans"))
	}
	// The SLO breach is now the lowest rank: an abort takes its place,
	// and the budget is full of aborts.
	if !endAt(r, 8, 10, true) || r.RetainedWhy("abort") != 3 || r.RetainedWhy("slo") != 0 {
		t.Fatalf("abort over an SLO breach: %d aborts and %d SLO breaches retained", r.RetainedWhy("abort"), r.RetainedWhy("slo"))
	}
	if endAt(r, 9, 10, true) || r.ForcedDrops() != 2 {
		t.Fatalf("an abort was retained beyond a budget of aborts (forced drops %d)", r.ForcedDrops())
	}
}

func TestMarksAttachToPendingAndRetained(t *testing.T) {
	r := New(Config{Budget: 4})
	r.Begin(1, "txn", "pa0", 2, 3, 1, 100)
	r.Mark(1, "svc-issue", "host3", 100)
	r.Mark(99, "ghost", "nowhere", 100) // unknown flow: ignored
	if !r.End(1, 600, true) {
		t.Fatal("abort not retained")
	}
	// Trailing span (participant commit apply after the reply) still
	// attaches to the retained request.
	r.Mark(1, "txn-apply", "host1", 700)
	req := r.Retained()[0]
	if len(req.Spans) != 2 || req.Spans[0].Stage != "svc-issue" || req.Spans[1].Stage != "txn-apply" {
		t.Fatalf("spans = %+v", req.Spans)
	}
	if req.Latency != 500 || req.Kind != "txn" || req.User != 2 || req.Node != 3 || req.Shard != 1 {
		t.Fatalf("request = %+v", req)
	}
	// Dropped flows do not accumulate spans.
	endAt(r, 2, 10, false)
	r.Mark(2, "late", "host0", 999)
	if r.Retained()[0] != req || len(r.Retained()) != 1 {
		t.Fatal("dropped flow leaked into retained set")
	}
}

func TestSlowLogRankingAndText(t *testing.T) {
	r := New(Config{Budget: 8, SLO: 1})
	endAt(r, 3, 100, false)
	endAt(r, 1, 300, false)
	endAt(r, 2, 300, false)
	endAt(r, 4, 900, false)
	log := r.SlowLog(3)
	if len(log) != 3 {
		t.Fatalf("slow log has %d entries", len(log))
	}
	// Latency descending, ties by flow ascending.
	if log[0].Flow != 4 || log[1].Flow != 1 || log[2].Flow != 2 {
		t.Fatalf("slow log order: %d %d %d", log[0].Flow, log[1].Flow, log[2].Flow)
	}
	text := r.SlowLogText(3)
	if !strings.Contains(text, "slow-request log: top 3 of 4 retained traces") {
		t.Fatalf("slow log header:\n%s", text)
	}
	empty := New(Config{})
	if !strings.Contains(empty.SlowLogText(5), "(no retained traces)") {
		t.Fatal("empty slow log text")
	}
}

func TestDigestReflectsEveryDecision(t *testing.T) {
	run := func(latB sim.Time) uint64 {
		r := New(Config{Budget: 4, SLO: 100})
		endAt(r, 1, 50, false)
		endAt(r, 2, latB, false)
		endAt(r, 3, 10, true)
		return r.Digest()
	}
	if run(500) != run(500) {
		t.Fatal("identical runs produced different digests")
	}
	if run(500) == run(501) {
		t.Fatal("different latencies produced identical digests")
	}
}

func TestSharesAndHotLine(t *testing.T) {
	r := New(Config{Shards: 4})
	for i := 0; i < 3; i++ {
		r.Begin(uint64(10+i), "get", "hot", 7, 0, 2, 0)
		r.End(uint64(10+i), 5, false)
	}
	r.Begin(20, "get", "cold", 8, 0, 1, 0)
	r.End(20, 5, false)
	if r.KeyShare() != 75 {
		t.Fatalf("key share = %d, want 75", r.KeyShare())
	}
	if r.ShardShare() != 75 || r.FairShare() != 25 {
		t.Fatalf("shard share = %d fair = %d", r.ShardShare(), r.FairShare())
	}
	line := r.HotLine()
	if !strings.Contains(line, "hot×3") || !strings.Contains(line, "u0007×3") {
		t.Fatalf("hot line:\n%s", line)
	}
}

// A request the sampler drops is recycled: after warm-up, Begin, three
// Marks and End allocate nothing, and the free list lends out exactly
// the pending requests.
func TestRecorderUnretainedAllocs(t *testing.T) {
	r := New(Config{Shards: 3})
	r.Begin(1, "get", "k1", 7, 0, 1, 0) // stays pending throughout
	r.Begin(2, "put", "k2", 8, 1, 2, 0)
	flow := uint64(100)
	cycle := func() {
		flow++
		r.Begin(flow, "get", "k1", 7, 0, 1, 10)
		r.Mark(flow, "svc-issue", "host0", 11)
		r.Mark(flow, "svc-exec", "host3", 12)
		r.Mark(flow, "svc-reply", "host0", 13)
		if r.End(flow, 20, false) {
			t.Fatal("a steady request was retained")
		}
	}
	for i := 0; i < 64; i++ { // past the warm-up: Threshold runs too
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%v allocations per unretained request", n)
	}
	if got := r.free.InUse(); got != len(r.pending) || got != 2 {
		t.Fatalf("free list lends %d requests, %d pending", got, len(r.pending))
	}
	// A retained request is abandoned, not recycled.
	r.Begin(3, "get", "k1", 7, 0, 1, 0)
	if !r.End(3, 30, true) || r.free.InUse() != 2 || r.Retained()[0].Flow != 3 {
		t.Fatalf("retained request: in use %d, retained %+v", r.free.InUse(), r.Retained())
	}
	r.Begin(4, "get", "k1", 7, 0, 1, 0)
	if r.Retained()[0].Flow != 3 {
		t.Fatal("a retained request was reused")
	}
}
