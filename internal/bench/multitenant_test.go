package bench

import (
	"bytes"
	"testing"
)

// TestMultitenantIsolation pins the experiment's acceptance criteria:
// every staged attack is rejected by the kernel, the victim's bytes
// arrive exactly, and QoS arbitration keeps the pingpong tail under a
// concurrent stream hog far below the strict-FIFO tail.
func TestMultitenantIsolation(t *testing.T) {
	r := Run("multitenant", 1)
	m := r.Metrics

	if got := m["security_rejects"]; got != 3 {
		t.Errorf("security_rejects = %v, want 3 (bad VA, foreign endpoint, rebind)", got)
	}
	if got := m["byte_errors"]; got != 0 {
		t.Errorf("byte_errors = %v, want 0", got)
	}
	if got := m["teardown_ok"]; got != 1 {
		t.Errorf("teardown_ok = %v, want 1", got)
	}
	if got := m["registry_agrees"]; got != 1 {
		t.Errorf("registry_agrees = %v, want 1", got)
	}
	if got := m["deterministic"]; got != 1 {
		t.Errorf("deterministic = %v, want 1", got)
	}
	if got := m["finished"]; got != 19 {
		t.Errorf("finished = %v jobs, want 19", got)
	}

	// The QoS win: the weighted pingpong's tail under contention must
	// beat the strict-FIFO tail by a wide margin, and stay within 10x
	// of its uncontended latency (ISSUE tolerance for "within
	// tolerance": an order of magnitude, vs the ~200x FIFO blowup).
	if m["p99_qos_us"] >= m["p99_shared_us"] {
		t.Errorf("QoS p99 %v us did not beat FIFO p99 %v us", m["p99_qos_us"], m["p99_shared_us"])
	}
	if m["p99_qos_us"] > 10*m["p99_alone_us"] {
		t.Errorf("QoS p99 %v us more than 10x the uncontended p99 %v us", m["p99_qos_us"], m["p99_alone_us"])
	}
	if m["qos_frags"] <= 0 {
		t.Errorf("qos_frags = %v, want > 0 (WRR never arbitrated)", m["qos_frags"])
	}

	// The scheduler win: conservative backfill finishes the batch
	// sooner than strict FIFO and actually backfilled.
	if m["makespan_backfill_us"] >= m["makespan_fifo_us"] {
		t.Errorf("backfill makespan %v us not better than FIFO %v us",
			m["makespan_backfill_us"], m["makespan_fifo_us"])
	}
	if m["backfills"] <= 0 {
		t.Errorf("backfills = %v, want > 0", m["backfills"])
	}
}

// TestMultitenantArtifactDeterminism demands byte-identical artifact
// bytes across two same-seed runs (the experiment also carries its own
// internal double-run digest, surfaced as the "deterministic" metric).
func TestMultitenantArtifactDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multitenant runs the interference scenarios four times")
	}
	encode := func() []byte {
		b, err := FromReport(Run("multitenant", 1)).Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return b
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Errorf("multitenant artifact bytes differ across same-seed runs:\nrun1:\n%s\nrun2:\n%s", a, b)
	}
}
