package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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

// encode encodes a report's artifact.
func encode(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := FromReport(r).Encode()
	if err != nil {
		t.Fatalf("%s: encode: %v", r.ID, err)
	}
	return b
}

// encodeRun runs one experiment at seed 1 and encodes its artifact.
func encodeRun(t *testing.T, id string) []byte {
	t.Helper()
	return encode(t, Run(id, 1))
}

// TestArtifactDeterminism is the same-seed check: every gated
// experiment at seed 1 (seed1's sweep is the first run) and every
// seeded one at seed 7 (seed7's) runs again, and the two artifacts —
// events and event_fp included — must be the same bytes and the two
// reports the same text. A failure names every moved leaf and the
// first line of text that differs. Under -short only the five cheap
// gates (the unseeded ones but multitenant) run, twice each.
// Multitenant's comparison is TestMultitenantArtifactDeterminism.
func TestArtifactDeterminism(t *testing.T) {
	for _, e := range List() {
		switch {
		case e.Gate == "" || e.ID == "multitenant":
			// not gated, or TestMultitenantArtifactDeterminism's
		case testing.Short():
			if !e.Seeded {
				sameRun(t, 1, Run(e.ID, 1), Run(e.ID, 1))
			}
		default:
			sameRun(t, 1, seed1()[e.ID], Run(e.ID, 1))
			if e.Seeded {
				sameRun(t, 7, seed7()[e.ID], Run(e.ID, 7))
			}
		}
	}
}

// sameRun compares two runs of one experiment at one seed.
func sameRun(t *testing.T, seed uint64, first, again *Report) {
	t.Helper()
	if moved := Diff(encode(t, again), encode(t, first)); moved != nil {
		t.Errorf("%s seed %d: same seed, different artifact:\n  %s", first.ID, seed, strings.Join(moved, "\n  "))
	}
	if d := lineDiff("first", first.String()+first.Summary, "again", again.String()+again.Summary); d != nil {
		t.Errorf("%s seed %d: same seed, different text at %s", first.ID, seed, d[0])
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

// TestDiffNamesEveryMovedLeaf perturbs the baselines of real pingpong,
// logp and profile runs: first by amounts the old tolerance bands let
// through (a metric +5 %, a counter +1, a percentile +0.001, a LogP
// value, an attribution row), then in fields no band looked at (title,
// an added key, a removed key, the schema). Diff must name each moved
// leaf exactly once, with both values, alone or all together in path
// order.
func TestDiffNamesEveryMovedLeaf(t *testing.T) {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	line := func(path, base, fresh string) []string { return []string{path + ": " + base + " -> " + fresh} }
	type edit func(base *Artifact) (want []string)
	for _, tc := range []struct {
		id    string
		edits []edit // in the path order of the lines they expect
	}{
		{"pingpong", []edit{
			func(a *Artifact) []string {
				old := a.Counters["nic/retransmits"]
				a.Counters["nic/retransmits"]++
				return line("counters.nic/retransmits", num(old+1), num(old))
			},
			func(a *Artifact) []string {
				old := a.Latency.P50Us
				a.Latency.P50Us = round6(old + 0.001)
				return line("latency.p50_us", num(a.Latency.P50Us), num(old))
			},
			func(a *Artifact) []string {
				a.Metrics["added_metric"] = 1
				return line("metrics.added_metric", "1", "(absent)")
			},
			func(a *Artifact) []string {
				old := a.Metrics["half_rtt_us"]
				a.Metrics["half_rtt_us"] = round6(old * 1.05)
				return line("metrics.half_rtt_us", num(a.Metrics["half_rtt_us"]), num(old))
			},
			func(a *Artifact) []string {
				old := a.Metrics["samples"]
				delete(a.Metrics, "samples")
				return line("metrics.samples", "(absent)", num(old))
			},
			func(a *Artifact) []string {
				a.Schema = "bcl-bench/v0"
				return line("schema", `"bcl-bench/v0"`, strconv.Quote(ArtifactSchema))
			},
			func(a *Artifact) []string {
				old := a.Title
				a.Title = "renamed"
				return line("title", `"renamed"`, strconv.Quote(old))
			},
		}},
		{"logp", []edit{
			func(a *Artifact) []string {
				old := a.LogP.GapUs
				a.LogP.GapUs = round6(old + 0.001)
				return line("logp.g_us", num(a.LogP.GapUs), num(old))
			},
		}},
		{"profile", []edit{
			func(a *Artifact) []string {
				old := a.Attribution[3].Us
				a.Attribution[3].Us = round6(old + 0.001)
				return line("attribution[3].us", num(a.Attribution[3].Us), num(old))
			},
		}},
	} {
		fresh := encodeRun(t, tc.id)
		perturb := func(edits ...edit) (base []byte, want []string) {
			var a Artifact
			if err := json.Unmarshal(fresh, &a); err != nil {
				t.Fatal(err)
			}
			for _, e := range edits {
				want = append(want, e(&a)...)
			}
			base, err := a.Encode()
			if err != nil {
				t.Fatal(err)
			}
			return base, want
		}
		if base, _ := perturb(); !bytes.Equal(base, fresh) {
			t.Fatalf("%s: a decoded and re-encoded artifact is not its own bytes:\n%s", tc.id, strings.Join(Diff(fresh, base), "\n"))
		}
		for i, e := range tc.edits {
			if base, want := perturb(e); !slices.Equal(Diff(fresh, base), want) {
				t.Errorf("%s edit %d: Diff = %q, want %q", tc.id, i, Diff(fresh, base), want)
			}
		}
		if base, want := perturb(tc.edits...); !slices.Equal(Diff(fresh, base), want) {
			t.Errorf("%s, every edit at once: Diff = %q, want %q", tc.id, Diff(fresh, base), want)
		}
	}
}

// readBaselines returns every committed BENCH_*.json by file name.
func readBaselines(t *testing.T) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("../../baselines", ArtifactFile("*")))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed baselines: %v", err)
	}
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = b
	}
	return out
}

// TestCheckPassesOnSelf holds the gate's premise on every committed
// baseline: compared with its own bytes it gives nil, and decoding it
// and encoding it again reproduces those bytes, so a run that
// reproduces every value reproduces the file.
func TestCheckPassesOnSelf(t *testing.T) {
	for name, b := range readBaselines(t) {
		if got := Diff(b, b); got != nil {
			t.Errorf("%s: identical bytes give %q, want nil", name, got)
		}
		var a Artifact
		if err := json.Unmarshal(b, &a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, err := a.Encode(); err != nil || !bytes.Equal(again, b) {
			t.Errorf("%s: decoded and re-encoded bytes differ (err %v):\n%s", name, err, strings.Join(Diff(again, b), "\n"))
		}
	}
}

// TestCheckCatchesPerturbation replays the drift the old tolerance
// bands passed — BENCH_chaos.json's nic/retransmits counter +3 and
// BENCH_pingpong.json's half round trip +5 % — on the committed
// baselines, and checks that Diff names exactly that leaf with both
// values. A truncated baseline gives one decode-error line, and bytes
// that differ in no value give one layout line.
func TestCheckCatchesPerturbation(t *testing.T) {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	bases := readBaselines(t)
	for _, tc := range []struct {
		gate string
		edit func(a *Artifact) (path string, old, moved float64)
	}{
		{"chaos", func(a *Artifact) (string, float64, float64) {
			old := a.Counters["nic/retransmits"]
			a.Counters["nic/retransmits"] = old + 3
			return "counters.nic/retransmits", old, old + 3
		}},
		{"pingpong", func(a *Artifact) (string, float64, float64) {
			old := a.Metrics["half_rtt_us"]
			a.Metrics["half_rtt_us"] = round6(old * 1.05)
			return "metrics.half_rtt_us", old, a.Metrics["half_rtt_us"]
		}},
	} {
		fresh := bases[ArtifactFile(tc.gate)]
		var a Artifact
		if err := json.Unmarshal(fresh, &a); err != nil {
			t.Fatalf("%s: %v", tc.gate, err)
		}
		path, old, moved := tc.edit(&a)
		base, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{path + ": " + num(moved) + " -> " + num(old)}
		if got := Diff(fresh, base); !slices.Equal(got, want) {
			t.Errorf("%s: Diff = %q, want %q", tc.gate, got, want)
		}
		got := Diff(fresh, fresh[:len(fresh)/2])
		if len(got) != 1 || !strings.HasPrefix(got[0], "baseline: cannot decode: ") {
			t.Errorf("%s: a truncated baseline gives %q, want one decode-error line", tc.gate, got)
		}
		if got := Diff(fresh, append(slices.Clip(fresh), '\n')); len(got) != 1 || !strings.HasPrefix(got[0], "layout: ") {
			t.Errorf("%s: bytes that differ in no value give %q, want one layout line", tc.gate, got)
		}
	}
}

// TestClassify labels -check's lines for a failing gate, made by Diff
// from the committed pingpong baseline: a move of events and event_fp
// alone leaves the model untouched; any other moved leaf, model_fp
// first, or a failing verdict, a layout or a decode line, moves it.
func TestClassify(t *testing.T) {
	base := readBaselines(t)[ArtifactFile("pingpong")]
	moved := func(edits ...func(a *Artifact)) []string {
		var a Artifact
		if err := json.Unmarshal(base, &a); err != nil {
			t.Fatal(err)
		}
		for _, e := range edits {
			e(&a)
		}
		fresh, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return Diff(fresh, base)
	}
	events := func(a *Artifact) { a.Events++ }
	eventFP := func(a *Artifact) { a.EventFP = "0123456789abcdef" }
	for _, lines := range [][]string{moved(events), moved(eventFP), moved(events, eventFP)} {
		if got := Classify(lines); got != modelUntouched {
			t.Errorf("Classify(%q) = %q, want %q", lines, got, modelUntouched)
		}
	}
	for name, other := range map[string]func(a *Artifact){
		"model_fp": func(a *Artifact) { a.ModelFP = "0123456789abcdef" },
		"metric":   func(a *Artifact) { a.Metrics["half_rtt_us"]++ },
		"counter":  func(a *Artifact) { a.Counters["nic/retransmits"]++ },
		"latency":  func(a *Artifact) { a.Latency.P99Us++ },
		"summary":  func(a *Artifact) { a.Summary += " " },
		"verdict":  func(a *Artifact) { a.Verdicts["fresh"] = Fail },
	} {
		for _, lines := range [][]string{moved(other), moved(events, eventFP, other)} {
			if got := Classify(lines); got != modelMoved {
				t.Errorf("%s: Classify(%q) = %q, want %q", name, lines, got, modelMoved)
			}
		}
	}
	for _, line := range []string{"verdict no_loss: fail", "layout: every value is equal but the bytes differ (whitespace, key order or trailing data)", "baseline: cannot decode: EOF"} {
		if got := Classify(append(moved(events), line)); got != modelMoved {
			t.Errorf("Classify(events, %q) = %q, want %q", line, got, modelMoved)
		}
	}
}

// FuzzDiff holds the gate's one comparison to its contract on arbitrary
// bytes: Diff never panics, returns nil exactly when the two slices are
// equal, and names at least one line otherwise. Seeded with two real
// baselines, each against itself, the other and a truncated copy.
func FuzzDiff(f *testing.F) {
	var docs [][]byte
	for _, name := range []string{"pingpong", "chaos"} {
		b, err := os.ReadFile(filepath.Join("../../baselines", ArtifactFile(name)))
		if err != nil {
			f.Fatal(err)
		}
		docs = append(docs, b)
	}
	a, b := docs[0], docs[1]
	f.Add(a, a)
	f.Add(a, b)
	f.Add(b, b[:len(b)/2])
	f.Add([]byte(`{"a":[1,{"b":2}]}`), []byte(`{"a":[1,{"b":2.0}]} `))
	f.Fuzz(func(t *testing.T, fresh, base []byte) {
		lines := Diff(fresh, base)
		if bytes.Equal(fresh, base) {
			if lines != nil {
				t.Fatalf("equal bytes diff as %q", lines)
			}
		} else if len(lines) == 0 {
			t.Fatal("different bytes diff as nothing")
		}
	})
}
