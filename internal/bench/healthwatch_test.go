package bench

import (
	"strings"
	"testing"

	"bcl/internal/obs/health"
)

func TestHealthWatchGauntlet(t *testing.T) {
	r := Run("healthwatch", 1)
	for _, m := range []string{
		"clean_alerts", "deadlocked",
	} {
		if r.Metrics[m] != 0 {
			t.Fatalf("%s = %v, want 0\n%s", m, r.Metrics[m], r.Text)
		}
	}
	for _, m := range []string{
		"fired_crc_spike", "fired_watchdog_trip", "fired_rail_divergence",
	} {
		if r.Metrics[m] != 1 {
			t.Fatalf("%s = %v, want 1\n%s", m, r.Metrics[m], r.Text)
		}
	}
	if r.Metrics["fault_bundles"] < 1 {
		t.Fatalf("fault_bundles = %v", r.Metrics["fault_bundles"])
	}
	if !strings.Contains(r.Text, "FIRING") || !strings.Contains(r.Text, "bcltop") {
		t.Fatalf("report text missing timeline/bcltop:\n%s", r.Text)
	}
	if r.Flight == nil {
		t.Fatal("harness did not capture the flight recorder")
	}
}

// A second seed must satisfy the same invariants: the fault schedule
// moves but the rules still catch the injected faults, and the clean
// phase stays silent.
func TestHealthWatchSeedRobust(t *testing.T) {
	r := Run("healthwatch", 2)
	if r.Metrics["clean_alerts"] != 0 || r.Metrics["fired_watchdog_trip"] != 1 {
		t.Fatalf("seed 2 gauntlet failed:\n%s", r.Text)
	}
}

func TestHealthWatchBundleRoundTrip(t *testing.T) {
	data := HealthWatchBundle(1)
	if data == nil {
		t.Fatal("fault phase emitted no bundle")
	}
	b, err := health.DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != "alert" || b.Trigger == nil {
		t.Fatalf("bundle = kind=%s trigger=%v", b.Kind, b.Trigger)
	}
	if len(b.Flight) == 0 || b.Diff == nil {
		t.Fatal("bundle missing flight recorder or window diff")
	}
	if !strings.Contains(b.Text(), "postmortem bundle") {
		t.Fatal("bundle text")
	}
	frames := HealthWatchFrames(1)
	if len(frames) < 10 {
		t.Fatalf("frames = %d", len(frames))
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "bcltop  t=") {
			t.Fatalf("frame header:\n%s", f)
		}
	}
}
