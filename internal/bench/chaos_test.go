package bench

import "testing"

// TestChaosDeterministic runs the seeded soak and demands: every
// message arrives exactly once and intact, and nothing deadlocks — with
// the full fault machinery demonstrably exercised. (That a same-seed
// rerun is the same execution is TestArtifactDeterminism's check.)
func TestChaosDeterministic(t *testing.T) {
	r := chaos(1)
	if r.Metrics["deadlocked"] != 0 {
		t.Fatal("chaos soak deadlocked")
	}
	if r.Metrics["corrupt"] != 0 {
		t.Fatalf("%v corrupt payloads", r.Metrics["corrupt"])
	}
	want := float64(soakNodes * (soakNodes - 1) * chaosRounds)
	if r.Metrics["delivered"] != want {
		t.Fatalf("delivered %v messages, want %v", r.Metrics["delivered"], want)
	}
	// The seed-1 schedule must actually exercise the fault paths:
	// failovers on single-rail cuts, deaths + probe recoveries on node
	// isolation, retransmits from background loss.
	for _, k := range []string{"failovers", "peer_deaths", "peer_recoveries", "retransmits", "resends"} {
		if r.Metrics[k] == 0 {
			t.Errorf("seed-1 soak exercised no %s", k)
		}
	}
	if r.Metrics["peer_deaths"] != r.Metrics["peer_recoveries"] {
		t.Errorf("%v deaths but %v recoveries: a peer stayed dead",
			r.Metrics["peer_deaths"], r.Metrics["peer_recoveries"])
	}
}

// TestChaosSeedsVary: different seeds produce different fault
// schedules, and so different executions (event_fp) — the knob is
// real.
func TestChaosSeedsVary(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	a, b := FromReport(Run("chaos", 2)), FromReport(Run("chaos", 3))
	if a.EventFP == b.EventFP {
		t.Fatalf("seeds 2 and 3 executed the same events (event_fp %s)", a.EventFP)
	}
	for _, x := range []*Artifact{a, b} {
		if x.Metrics["deadlocked"] != 0 {
			t.Fatalf("%s: soak deadlocked", x.Title)
		}
		if x.Metrics["corrupt"] != 0 {
			t.Fatalf("%s: corrupt payloads", x.Title)
		}
	}
}
