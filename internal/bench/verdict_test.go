package bench

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// knownRed reads the committed ledger of known failures: the whole
// file and its lines that are neither blank nor comments.
func knownRed(t *testing.T) (raw string, lines []string) {
	t.Helper()
	b, err := os.ReadFile("../../baselines/" + KnownRedFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	return string(b), lines
}

// reds lists the ledger lines a report fails at seed.
func reds(r *Report, seed uint64) []string {
	var out []string
	for _, v := range r.Failing() {
		out = append(out, fmt.Sprintf("%s %d %s", r.ID, seed, v))
	}
	return out
}

// TestVerdicts judges every verdict of the cached runs: at seed 1 every
// one passes, and at seed 7 the seeded experiments fail exactly the
// ledger's seed-7 lines. Each report's verdict names are unique, and a
// prerequisite names an earlier verdict of the same report.
func TestVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	_, ledger := knownRed(t)
	var want7, got7 []string
	for _, l := range ledger {
		if f := strings.Fields(l); len(f) > 1 && f[1] == "7" {
			want7 = append(want7, l)
		}
	}
	for _, id := range IDs() {
		r := seed1()[id]
		if f := r.Failing(); f != nil {
			t.Errorf("%s seed 1: verdicts %v fail\n%s", id, f, r)
		}
		if r7 := seed7()[id]; r7 != nil {
			got7 = append(got7, reds(r7, 7)...)
		}
		for i, v := range r.Verdicts {
			if r.Outcome(v.Name) == Unjudged {
				t.Errorf("%s seed 1: %s is unjudged", id, v.Name)
			}
			if slices.IndexFunc(r.Verdicts, func(w Verdict) bool { return w.Name == v.Name }) != i {
				t.Errorf("%s: verdict %s appears twice", id, v.Name)
			}
			if v.Needs != "" && !slices.ContainsFunc(r.Verdicts[:i], func(w Verdict) bool { return w.Name == v.Needs }) {
				t.Errorf("%s: %s needs %s, which is not an earlier verdict", id, v.Name, v.Needs)
			}
		}
	}
	slices.Sort(got7)
	slices.Sort(want7)
	if !slices.Equal(got7, want7) {
		t.Errorf("seed 7 fails %q, the ledger lists %q", got7, want7)
	}
}

// TestVerdictNeedsItsPrerequisite: a verdict whose prerequisite does
// not pass reads unjudged, whatever its own value, and is not failing;
// an unjudged prerequisite leaves its dependents unjudged too.
func TestVerdictNeedsItsPrerequisite(t *testing.T) {
	r := newReport("x", "x")
	r.verdict("drained", false)
	r.Verdicts = append(r.Verdicts,
		Verdict{Name: "coherent", OK: false, Needs: "drained"},
		Verdict{Name: "atomic", OK: true, Needs: "coherent"})
	r.verdict("linearizable", false)
	for name, want := range map[string]string{"drained": Fail, "coherent": Unjudged, "atomic": Unjudged, "linearizable": Fail, "absent": ""} {
		if got := r.Outcome(name); got != want {
			t.Errorf("%s reads %q, want %q", name, got, want)
		}
	}
	if got := r.Failing(); !slices.Equal(got, []string{"drained", "linearizable"}) {
		t.Errorf("failing = %q", got)
	}
	if got := FromReport(r).Verdicts; got["coherent"] != Unjudged || got["drained"] != Fail || len(got) != 4 {
		t.Errorf("artifact verdicts = %v", got)
	}
	if s := r.String(); !strings.Contains(s, "\nverdicts:\n") || !strings.Contains(s, "unjudged (needs drained)") {
		t.Errorf("rendered:\n%s", s)
	}
	r.Verdicts[0].OK = true
	if r.Outcome("coherent") != Fail || r.Outcome("atomic") != Unjudged {
		t.Errorf("with drained passing: coherent %s, atomic %s", r.Outcome("coherent"), r.Outcome("atomic"))
	}
}

// TestKnownRedLedger holds the ledger's form: every line is
// "<experiment> <seed> <verdict>" (single spaces, a decimal seed) and
// names a seeded experiment, a seed in SweepFirst..SweepLast and a
// verdict that experiment emits; lines are unique, sorted (experiment,
// seed, verdict) within their group, and every group opens with a
// "# item N: …" owner comment.
func TestKnownRedLedger(t *testing.T) {
	raw, lines := knownRed(t)
	seeded := make(map[string]bool)
	for _, e := range List() {
		seeded[e.ID] = e.Seeded
	}
	owner, prev := "", []string(nil)
	for i, l := range strings.Split(strings.TrimRight(raw, "\n"), "\n") {
		switch {
		case l == "":
			owner, prev = "", nil
			continue
		case strings.HasPrefix(l, "# item "):
			owner, prev = l, nil
			continue
		case strings.HasPrefix(l, "#"):
			continue
		}
		f := strings.Fields(l)
		if len(f) != 3 {
			t.Errorf("line %d %q is not <experiment> <seed> <verdict>", i+1, l)
			continue
		}
		seed, err := strconv.Atoi(f[1])
		if err != nil || fmt.Sprintf("%s %d %s", f[0], seed, f[2]) != l {
			t.Errorf("line %d %q is not <experiment> <seed> <verdict>", i+1, l)
		}
		if owner == "" {
			t.Errorf("line %d %q sits under no # item comment", i+1, l)
		}
		if !seeded[f[0]] {
			t.Errorf("line %d %q: %s is not a seeded experiment", i+1, l, f[0])
		} else if !testing.Short() && seed7()[f[0]].Outcome(f[2]) == "" {
			t.Errorf("line %d %q: %s emits no verdict %s", i+1, l, f[0], f[2])
		}
		if seed < SweepFirst || seed > SweepLast {
			t.Errorf("line %d %q: seed outside %d..%d", i+1, l, SweepFirst, SweepLast)
		}
		if prev != nil {
			p, _ := strconv.Atoi(prev[1])
			if f[0] < prev[0] || f[0] == prev[0] && (seed < p || seed == p && f[2] <= prev[2]) {
				t.Errorf("line %d %q is not after %q", i+1, l, strings.Join(prev, " "))
			}
		}
		prev = f
	}
	seen := make(map[string]bool)
	for _, l := range lines {
		if seen[l] {
			t.Errorf("%q appears twice", l)
		}
		seen[l] = true
	}
}

// TestSeed1ExercisesFaultPaths: the seed-1 fault schedules reach every
// path they exist to exercise. These are coverage facts, not
// invariants, so they are counts here rather than verdicts.
func TestSeed1ExercisesFaultPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, tc := range []struct {
		id   string
		keys []string // a metric, or a "layer/name" counter
	}{
		// Failovers on single-rail cuts, deaths and probe recoveries on
		// node isolation, retransmits from background loss.
		{"chaos", []string{"failovers", "peer_deaths", "peer_recoveries", "retransmits", "resends"}},
		{"survival", []string{"crc_drops", "nic_reboots", "gray_failovers"}},
		{"serve", []string{"svc/dedup_replays", "chaos_retransmits", "chaos_txn_committed"}},
		{"reqobs", []string{"chaos_aborts_seen", "chaos_slo_seen", "hot_dropped", "chaos_exemplars", "chaos_exemplars_annotated", "chaos_trace_evictions"}},
	} {
		a := FromReport(seed1()[tc.id])
		for _, k := range tc.keys {
			v, ok := a.Metrics[k]
			if !ok {
				v, ok = a.Counters[k]
			}
			if !ok || v <= 0 {
				t.Errorf("%s seed 1: %s = %v (present %v), want > 0", tc.id, k, v, ok)
			}
		}
	}
	if m := seed1()["chaos"].Metrics; m["peer_deaths"] != m["peer_recoveries"] {
		t.Errorf("chaos: %v deaths but %v recoveries: a peer stayed dead", m["peer_deaths"], m["peer_recoveries"])
	}
}
