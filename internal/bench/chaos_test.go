package bench

import "testing"

// TestChaosSeedsVary: different seeds produce different fault
// schedules, and so different executions (event_fp) and different
// packets and completions (model_fp) — the knob is real.
func TestChaosSeedsVary(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	a, b := FromReport(Run("chaos", 2)), FromReport(Run("chaos", 3))
	if a.EventFP == b.EventFP {
		t.Fatalf("seeds 2 and 3 executed the same events (event_fp %s)", a.EventFP)
	}
	if a.ModelFP == b.ModelFP {
		t.Fatalf("seeds 2 and 3 produced the same model (model_fp %s)", a.ModelFP)
	}
	for _, x := range []*Artifact{a, b} {
		for v, out := range x.Verdicts {
			if out != Pass {
				t.Errorf("%s: %s reads %s", x.Title, v, out)
			}
		}
	}
}
