package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPingPongRegistryAgrees is the acceptance check for the metrics
// registry: the snapshot's NIC counters must equal nic.Stats for the
// same run (the experiment cross-checks them field by field and
// reports the verdict registry_agrees, which TestVerdicts judges), and
// the snapshot, histogram, sampler and summary must all be populated.
func TestPingPongRegistryAgrees(t *testing.T) {
	r := Run("pingpong", 1)
	if r.Metrics["hist_count"] == 0 {
		t.Fatal("latency histogram recorded no observations")
	}
	if r.Metrics["samples"] == 0 {
		t.Fatal("sampler took no samples")
	}
	if r.Snap == nil {
		t.Fatal("report has no snapshot")
	}
	if !strings.Contains(r.Snap.Text(), "bcl_msgs_sent_total") {
		t.Fatalf("snapshot text missing nic counters:\n%s", r.Snap.Text())
	}
	if !strings.Contains(r.Summary, "msgs=") {
		t.Fatalf("summary = %q", r.Summary)
	}
}

// TestPingPongSnapshotDeterministic: same seed, same workload -> the
// exported snapshot must be byte-identical across runs, in both text
// and JSON form.
func TestPingPongSnapshotDeterministic(t *testing.T) {
	a, b := Run("pingpong", 1), Run("pingpong", 1)
	if a.Snap.Text() != b.Snap.Text() {
		t.Fatal("snapshot text differs across same-seed runs")
	}
	aj, err := a.Snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := b.Snap.JSON()
	if string(aj) != string(bj) {
		t.Fatal("snapshot JSON differs across same-seed runs")
	}
	if a.Text != b.Text {
		t.Fatal("report text differs across same-seed runs")
	}
}

// TestFlowTraceCrossesLayers is the acceptance check for causal
// tracing: one message's flow must include spans on at least three
// rows (host, NIC, wire) and a retransmission under the injected drop.
func TestFlowTraceCrossesLayers(t *testing.T) {
	r := Run("flowtrace", 1)
	if r.Metrics["flows"] < 1 {
		t.Fatalf("no flows traced:\n%s", r.Text)
	}
	if r.Metrics["flow_rows"] < 3 {
		t.Fatalf("flow spans %v rows, want >= 3:\n%s", r.Metrics["flow_rows"], r.Text)
	}
	if r.Metrics["retransmit_spans"] < 1 {
		t.Fatalf("flow has no retransmit span:\n%s", r.Text)
	}
	if r.Metrics["wire_spans"] < 2 {
		t.Fatalf("flow wire spans = %v, want the drop and the retransmitted copy", r.Metrics["wire_spans"])
	}
	if !strings.Contains(r.Text, "wire: DATA dropped (fault)") {
		t.Fatalf("timeline missing the injected drop:\n%s", r.Text)
	}
}

// TestFlowChromeJSONGolden: the Chrome trace must be valid JSON, carry
// flow (s/t/f) events linking >= 3 rows, and be byte-identical across
// two same-seed runs.
func TestFlowChromeJSONGolden(t *testing.T) {
	a, err := ChromeJSON("flowtrace")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChromeJSON("flowtrace")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("chrome trace differs across same-seed runs")
	}
	var events []map[string]any
	if err := json.Unmarshal(a, &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var flowEvents int
	tids := map[float64]bool{}
	var finishes int
	for _, e := range events {
		switch e["ph"] {
		case "s", "t", "f":
			flowEvents++
			tids[e["tid"].(float64)] = true
			if e["ph"] == "f" {
				finishes++
				if e["bp"] != "e" {
					t.Fatalf("finish event missing bp=e: %+v", e)
				}
			}
		}
	}
	if flowEvents < 3 || finishes != 1 {
		t.Fatalf("flow events = %d (finishes %d)", flowEvents, finishes)
	}
	if len(tids) < 3 {
		t.Fatalf("flow links %d rows, want >= 3 (host, NIC, wire)", len(tids))
	}
	// The retransmitted copy appears as its own span row in the trace.
	var hasRetx bool
	for _, e := range events {
		if e["name"] == "nic: retransmit" {
			hasRetx = true
		}
	}
	if !hasRetx {
		t.Fatal("chrome trace missing the retransmit span")
	}
}

// TestFig7ChromeDeterministic covers the pre-existing traced-message
// path too: with the fabric tracer attached the plain Chrome trace is
// still byte-stable.
func TestFig7ChromeDeterministic(t *testing.T) {
	a, err := ChromeJSON("fig7")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ChromeJSON("fig7")
	if string(a) != string(b) {
		t.Fatal("fig7 chrome trace differs across same-seed runs")
	}
	var events []map[string]any
	if err := json.Unmarshal(a, &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
}

// TestChaosReportsFromRegistry: the chaos report must carry its
// snapshot (fault counters sourced from the registry) and the sampler
// timeline.
func TestChaosReportsFromRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is slow")
	}
	r := chaos(3)
	if r.Snap == nil {
		t.Fatal("chaos report has no snapshot")
	}
	if got := r.Snap.SumCounter("nic", "retransmits"); got != uint64(r.Metrics["retransmits"]) {
		t.Fatalf("snapshot retransmits %d != metric %v", got, r.Metrics["retransmits"])
	}
	if !strings.Contains(r.Text, "fault-counter timeline") {
		t.Fatalf("report missing timeline:\n%s", r.Text)
	}
}
