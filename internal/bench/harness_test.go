package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/sim"
)

// seed1 is one sweep of every experiment at the baseline seed, shared
// by the tests that hold goldens to it (read-only).
var seed1 = sync.OnceValue(func() map[string]*Report {
	byID := make(map[string]*Report)
	for _, r := range All(1) {
		byID[r.ID] = r
	}
	return byID
})

// mustPanic runs f and returns what it panicked with.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg, _ = r.(string)
	}()
	f()
	return ""
}

// TestRigPanicsOnFailedOpen: a port that cannot be opened stops the
// experiment at the rig, naming the port — not later, as a nil
// dereference inside a measurement loop.
func TestRigPanicsOnFailedOpen(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, NIC: ibcl.DefaultNICConfig()})
	// Endpoint 1 on node 0 already belongs to someone else, so the
	// rig's first open there is refused by the kernel.
	squatter := c.Nodes[0].Kernel.Spawn()
	if err := c.Nodes[0].Kernel.BindEndpoint(squatter.PID, 1); err != nil {
		t.Fatal(err)
	}
	msg := mustPanic(t, "newRig over a taken endpoint", func() {
		newRig(c, []int{0, 1}, ibcl.Options{SystemBuffers: 4}, 20*sim.Millisecond)
	})
	if !strings.Contains(msg, "open port") || !strings.Contains(msg, "node 0") {
		t.Fatalf("panic does not name the failed open: %q", msg)
	}
}

// TestFaultInstallPanicsWithoutLinkDown: the hetero composite has no
// fabric-wide LinkDown, so a scheduled shard outage cannot be injected
// there. The installer must refuse, not run the "chaos" phase clean.
func TestFaultInstallPanicsWithoutLinkDown(t *testing.T) {
	outage := svcFaults{outNode: 1, outAt: sim.Millisecond, outDur: sim.Millisecond}
	c := cluster.New(cluster.Config{Nodes: 4, Fabric: cluster.Hetero, NIC: ibcl.DefaultNICConfig()})
	msg := mustPanic(t, "install on a fabric without LinkDown", func() { outage.install(c) })
	if !strings.Contains(msg, "LinkDown") {
		t.Fatalf("panic does not say what is missing: %q", msg)
	}
	// The same schedule installs on the switched fabric the service
	// experiments run on, and a schedule without an outage installs
	// anywhere.
	outage.install(cluster.New(cluster.Config{Nodes: 4, NIC: ibcl.DefaultNICConfig()}))
	svcFaults{dupEvery: 3}.install(c)
}

// formerlyListedExact are the 45 names Check used to look up in a
// name map in artifact.go, before exactness moved to the emission site
// (flag/exact).
var formerlyListedExact = []string{
	"deterministic", "deadlocked", "corrupt", "delivered", "byte_errors",
	"registry_agrees", "finished",
	"security_rejects", "teardown_ok", "qos_beats_fifo", "backfill_beats_fifo",
	"exactly_once", "crc_drops_nonzero", "nic_reboots_nonzero",
	"adaptive_beats_fixed", "gray_failover_nonzero",
	"clean_alerts", "fired_crc_spike", "fired_watchdog_trip",
	"fired_rail_divergence", "bundle_deterministic", "timeline_deterministic",
	"atomicity_ok", "linearizable_ok", "coherent_caches", "swarm_drained",
	"dedup_nonzero", "retrans_nonzero", "txn_commits_nonzero",
	"hot_rule_fired", "hot_rule_silent_baseline", "bundle_has_slowlog",
	"aborts_all_retained", "slo_all_retained", "chaos_aborts_nonzero",
	"chaos_slo_nonzero", "budget_respected", "budget_dropped_nonzero",
	"exemplars_nonzero", "trace_cap_respected", "trace_evictions_nonzero",
	"slowlog_deterministic", "exemplar_deterministic", "sampling_deterministic",
	"drained",
}

// TestExactMetricsStayExact is the proof that moving exactness to the
// emission site weakened no gate: on every committed baseline, each of
// the formerly listed names it carries is still compared bit for bit
// (perturbing the baseline by 1e-6 is a regression), and nothing else
// became exact (the same perturbation of any other metric passes).
func TestExactMetricsStayExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every gated experiment")
	}
	listed := make(map[string]bool)
	for _, name := range formerlyListedExact {
		listed[name] = true
	}
	if len(listed) != 45 {
		t.Fatalf("the pinned list has %d distinct names, want 45", len(listed))
	}
	seen := make(map[string]bool)
	for _, e := range List() {
		if e.Gate == "" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("../../baselines", ArtifactFile(e.Gate)))
		if err != nil {
			t.Fatal(err)
		}
		fresh := FromReport(seed1()[e.ID])
		for name := range fresh.Metrics {
			base, err := DecodeArtifact(raw)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := base.Metrics[name]; !ok {
				continue
			}
			base.Metrics[name] += 1e-6
			flagged := len(Check(fresh, base)) > 0
			if flagged != listed[name] {
				t.Errorf("%s: %s exact = %v, was %v on the parent", e.Gate, name, flagged, listed[name])
			}
			seen[name] = seen[name] || listed[name]
		}
	}
	for _, name := range formerlyListedExact {
		if !seen[name] {
			t.Errorf("%s is on no baseline: the pin is vacuous for it", name)
		}
	}
}

// TestHealthwatchBannerTripsOnCorruptPayload: riding the shared soak
// gave healthwatch payload verification; a damaged payload must raise
// the FAILED banner (and only the banner: no metric moves, so the
// committed artifact is untouched).
func TestHealthwatchBannerTripsOnCorruptPayload(t *testing.T) {
	const banner = "*** HEALTHWATCH GAUNTLET FAILED ***"
	x, y := runHealthWatchOnce(1), runHealthWatchOnce(1)
	clean := healthWatchReport(1, x, y)
	if strings.Contains(clean.Text, banner) {
		t.Fatalf("seed-1 gauntlet failed:\n%s", clean.Text)
	}
	if x.clean.corrupt != 0 || x.faulty.corrupt != 0 {
		t.Fatalf("soak payloads arrived damaged: clean %d, fault %d", x.clean.corrupt, x.faulty.corrupt)
	}
	x.faulty.corrupt = 1
	damaged := healthWatchReport(1, x, y)
	if !strings.Contains(damaged.Text, banner) {
		t.Fatalf("a corrupt soak payload did not raise the banner:\n%s", damaged.Text)
	}
	for k, v := range clean.Metrics {
		if damaged.Metrics[k] != v {
			t.Errorf("metric %s moved %v -> %v: the banner condition must not touch the artifact", k, v, damaged.Metrics[k])
		}
	}
}

// TestTranscriptIsCurrent treats EXPERIMENTS.md's "Full output" block
// as the golden it claims to be: every "== id:" section in it must
// equal what bclbench prints for Run(id, 1) today (All(1) is Run(id, 1)
// for every id).
func TestTranscriptIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	const doc = "../../EXPERIMENTS.md"
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(raw), "Captured verbatim from `go run ./cmd/bclbench all`")
	if !ok {
		t.Fatalf("%s has no captured transcript", doc)
	}
	_, after, _ = strings.Cut(after, "\n```\n")
	block, _, ok := strings.Cut(after, "\n```\n")
	if !ok {
		t.Fatalf("%s: the transcript's fenced block is not closed", doc)
	}
	header := regexp.MustCompile(`(?m)^== ([a-z0-9-]+): `)
	starts := header.FindAllStringSubmatchIndex(block, -1)
	if len(starts) == 0 {
		t.Fatalf("%s: the transcript has no == id: sections", doc)
	}
	for i, m := range starts {
		end := len(block)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		id, got := block[m[2]:m[3]], strings.TrimRight(block[m[0]:end], "\n")
		r := seed1()[id]
		if r == nil {
			t.Errorf("%s: section %q is not an experiment", doc, id)
			continue
		}
		if want := r.String() + r.Summary; got != want {
			t.Errorf("%s: section %q is stale; regenerate the block from `go run ./cmd/bclbench all`\n--- doc\n%s\n--- run\n%s", doc, id, got, want)
		}
	}
}
