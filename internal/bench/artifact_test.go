package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGateSetMatchesBaselines holds the gate set and baselines/
// one-to-one: every gated experiment in the table (List is the table
// Run resolves against, consulted here without running anything) has a
// committed BENCH_<gate>.json, and every committed BENCH_*.json has a
// gated experiment — so removing an experiment cannot strand a
// baseline, or the reverse, silently.
func TestGateSetMatchesBaselines(t *testing.T) {
	const dir = "../../baselines"
	want := make(map[string]bool)
	for _, e := range List() {
		if e.Gate == "" {
			continue
		}
		if want[ArtifactFile(e.Gate)] {
			t.Errorf("gate name %q appears twice in the experiments table", e.Gate)
		}
		want[ArtifactFile(e.Gate)] = true
		if _, err := os.Stat(filepath.Join(dir, ArtifactFile(e.Gate))); err != nil {
			t.Errorf("gate %q has no committed baseline: %v", e.Gate, err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, ArtifactFile("*")))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !want[filepath.Base(f)] {
			t.Errorf("%s has no gated experiment", f)
		}
	}
}

// TestArtifactDeterminism demands byte-identical BENCH_*.json bytes
// across two same-seed runs of the fast gated experiments (the slow
// ones — chaos, collectives, scale — carry their own run-twice
// digest checks inside the experiment).
func TestArtifactDeterminism(t *testing.T) {
	for _, id := range []string{"pingpong", "profile", "logp"} {
		encode := func() []byte {
			b, err := FromReport(Run(id, 1)).Encode()
			if err != nil {
				t.Fatalf("%s: encode: %v", id, err)
			}
			return b
		}
		a, b := encode(), encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: artifact bytes differ across same-seed runs:\nrun1:\n%s\nrun2:\n%s", id, a, b)
		}
	}
}

// TestLogPFitStable pins the physically-required shape of the fitted
// model (it also runs under -race in CI, so a schedule-dependent fit
// would be caught there).
func TestLogPFitStable(t *testing.T) {
	m1, m2 := logpFit(), logpFit()
	if m1.G != m2.G || m1.SmallG != m2.SmallG || m1.BandwidthMBps != m2.BandwidthMBps {
		t.Fatalf("LogP fit drifted between identical runs: %+v vs %+v", m1, m2)
	}
	if m1.G <= 0 {
		t.Fatalf("per-byte gap G = %v ns/byte, want > 0", m1.G)
	}
	if m1.SmallG <= 0 {
		t.Fatalf("small-message gap g = %v, want > 0", m1.SmallG)
	}
	for _, pt := range m1.Points {
		if pt.Os <= 0 || pt.Or <= 0 {
			t.Errorf("size %d: overheads o_s=%v o_r=%v, want both > 0", pt.Size, pt.Os, pt.Or)
		}
		if pt.L <= 0 {
			t.Errorf("size %d: latency L=%v, want > 0", pt.Size, pt.L)
		}
		if pt.OneWay < pt.Os+pt.Or {
			t.Errorf("size %d: oneway %v < o_s+o_r %v", pt.Size, pt.OneWay, pt.Os+pt.Or)
		}
	}
}

// TestProfileAttribution checks the acceptance criterion of the
// profiler: an 8-byte eager send must show kernel time on the send
// side (the one trap) and none on the receive side.
func TestProfileAttribution(t *testing.T) {
	r := Run("profile", 1)
	if got := r.Metrics["send_kernel_us"]; got <= 0 {
		t.Errorf("send-side kernel time = %v µs, want > 0 (the send trap)", got)
	}
	if got := r.Metrics["recv_kernel_us"]; got != 0 {
		t.Errorf("recv-side kernel time = %v µs, want exactly 0 (pure user-level receive)", got)
	}
	if got := r.Metrics["oneway_us"]; got <= 0 {
		t.Errorf("oneway_us = %v, want > 0", got)
	}
	if r.Attribution == nil || len(r.Attribution.Rows) == 0 {
		t.Fatalf("profile report carries no attribution rows")
	}
}

// TestCheckPassesOnSelf runs Check(fresh, fresh-as-baseline): a run
// compared against its own artifact must pass.
func TestCheckPassesOnSelf(t *testing.T) {
	r := Run("pingpong", 1)
	fresh := FromReport(r)
	raw, err := fresh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	base, err := DecodeArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
	if bad := Check(fresh, base); len(bad) != 0 {
		t.Fatalf("self-check reported regressions: %v", bad)
	}
}

// TestCheckCatchesPerturbation proves the gate trips: perturb one
// metric beyond its tolerance band, one exact-match flag minimally,
// and one counter, and Check must flag each.
func TestCheckCatchesPerturbation(t *testing.T) {
	fresh := FromReport(Run("pingpong", 1))
	reload := func() *Artifact {
		raw, err := fresh.Encode()
		if err != nil {
			t.Fatal(err)
		}
		a, err := DecodeArtifact(raw)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	base := reload()
	base.Metrics["half_rtt_us"] *= 1.5 // far outside the 10% band
	if bad := Check(fresh, base); len(bad) == 0 {
		t.Error("50% latency regression not flagged")
	}

	base = reload()
	base.Metrics["registry_agrees"] = 0 // exact-match flag
	if bad := Check(fresh, base); len(bad) == 0 {
		t.Error("exact-match flag drift not flagged")
	}

	base = reload()
	base.Counters["nic/msgs_sent"] *= 3
	if bad := Check(fresh, base); len(bad) == 0 {
		t.Error("counter drift not flagged")
	}

	base = reload()
	base.Metrics["some_new_metric"] = 1 // baseline metric absent from fresh
	if bad := Check(fresh, base); len(bad) == 0 {
		t.Error("missing metric not flagged")
	}

	base = reload()
	base.Schema = "bcl-bench/v0"
	if bad := Check(fresh, base); len(bad) == 0 {
		t.Error("schema mismatch not flagged")
	}
}
