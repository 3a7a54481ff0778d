package bench

import "testing"

// TestMultitenantIsolation pins the experiment's acceptance criteria
// beyond its verdicts (TestVerdicts): every submitted job finishes, QoS
// arbitration keeps the pingpong tail under a concurrent stream hog
// near its uncontended latency, and both wins actually arbitrated.
func TestMultitenantIsolation(t *testing.T) {
	r := Run("multitenant", 1)
	m := r.Metrics

	if got := m["finished"]; got != 17 {
		t.Errorf("finished = %v jobs, want 17", got)
	}

	// The QoS win (verdict qos_beats_fifo) must also keep the weighted
	// pingpong's tail under contention within 10x of its uncontended
	// latency: an order of magnitude, vs the ~200x FIFO blowup.
	if m["p99_qos_us"] > 10*m["p99_alone_us"] {
		t.Errorf("QoS p99 %v us more than 10x the uncontended p99 %v us", m["p99_qos_us"], m["p99_alone_us"])
	}
	if m["qos_frags"] <= 0 {
		t.Errorf("qos_frags = %v, want > 0 (WRR never arbitrated)", m["qos_frags"])
	}

	// The scheduler win (verdict backfill_beats_fifo) actually
	// backfilled.
	if m["backfills"] <= 0 {
		t.Errorf("backfills = %v, want > 0", m["backfills"])
	}
}

// TestMultitenantArtifactDeterminism is TestArtifactDeterminism's
// comparison for multitenant: two seed-1 runs, the same artifact bytes
// and report text.
func TestMultitenantArtifactDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment once and multitenant again")
	}
	sameRun(t, 1, seed1()["multitenant"], Run("multitenant", 1))
}
