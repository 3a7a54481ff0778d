package bench

import "testing"

// TestCollectivesGolden runs the full collectives experiment and pins
// the acceptance properties beyond its verdicts (TestVerdicts: faulted
// collectives finish with byte-correct results): the seed-1 schedule
// hits collective packets, the 32-node offloaded barrier beats the host
// dissemination, and the trap counts show the O(1)-per-root /
// one-per-rank offload shape instead of the host's per-round traps.
func TestCollectivesGolden(t *testing.T) {
	r := collectives(1)
	if r.Metrics["fault_drops"] == 0 || r.Metrics["fault_dups"] == 0 {
		t.Fatal("seed-1 schedule exercised no drops/dups on collective packets")
	}
	host, offl := r.Metrics["barrier_host_32_us"], r.Metrics["barrier_offl_32_us"]
	if offl <= 0 || host <= offl {
		t.Fatalf("32-node offloaded barrier (%vus) not faster than host (%vus)", offl, host)
	}
	// Offloaded traps: exactly one per rank for barrier, one total for
	// bcast (the root's injection); the host path traps every round.
	if got := r.Metrics["traps_offl_barrier_32"]; got != 32 {
		t.Fatalf("offloaded 32-rank barrier took %v traps, want 32 (one per rank)", got)
	}
	if got := r.Metrics["traps_offl_bcast_32"]; got != 1 {
		t.Fatalf("offloaded 32-rank bcast took %v traps, want 1 (root only)", got)
	}
	if r.Metrics["traps_host_barrier_32"] <= 32 {
		t.Fatalf("host 32-rank barrier took only %v traps — offload comparison is vacuous",
			r.Metrics["traps_host_barrier_32"])
	}
}

// TestCollFlow checks the collective flow trace actually follows the
// message through the NIC tree: fanout forwards and landing-ring DMAs
// must appear under the broadcast's trace id.
func TestCollFlow(t *testing.T) {
	r := Run("collflow", 1)
	if r.Metrics["flows"] == 0 {
		t.Fatal("no flows traced")
	}
	if r.Metrics["coll_forwards"] == 0 {
		t.Fatal("no NIC tree forwards in the flow")
	}
	if r.Metrics["result_dmas"] == 0 {
		t.Fatal("no landing-ring result DMAs in the flow")
	}
	if r.Metrics["flow_rows"] < 3 {
		t.Fatalf("flow covers only %v rows, want host+nic+wire", r.Metrics["flow_rows"])
	}
}
