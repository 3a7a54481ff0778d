package bcl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// outputs is every command line whose standard output is committed:
// the golden it must equal byte for byte, and the command (a binary
// built from this module, then its flags). This is where the paper's
// tables, figures, flow traces and the examples reach a reader; a
// change that claims to move no event moves none of them. Seed 1 of
// bclbench's seeded experiments is pinned by EXPERIMENTS.md's
// transcript (TestTranscriptIsCurrent), so only seeds 7 and 42 are here.
var outputs = []struct{ golden, cmd string }{
	{"testdata/bcltrace.golden", "bcltrace"},
	{"testdata/bcltrace-side-send.golden", "bcltrace -side send"},
	{"testdata/bcltrace-side-recv.golden", "bcltrace -side recv"},
	{"testdata/bcltrace-chrome.golden", "bcltrace -chrome"},
	{"testdata/bcltrace-flow.golden", "bcltrace -flow"},
	{"testdata/bcltrace-coll.golden", "bcltrace -coll"},
	{"testdata/bcltrace-crash.golden", "bcltrace -crash"},
	{"testdata/bcltrace-rpc.golden", "bcltrace -rpc"},
	{"testdata/bcltrace-prof.golden", "bcltrace -prof"},
	{"testdata/bcltrace-health.golden", "bcltrace -health"},
	{"testdata/bcltrace-slow-seed1.golden", "bcltrace -slow -seed 1"},
	{"testdata/bcltrace-slow-seed7.golden", "bcltrace -slow -seed 7"},
	{"testdata/bcltrace-slow-seed42.golden", "bcltrace -slow -seed 42"},
	{"testdata/bclbench-seeded-seed7.golden", "bclbench -seed 7 chaos survival collectives healthwatch serve reqobs"},
	{"testdata/bclbench-seeded-seed42.golden", "bclbench -seed 42 chaos survival collectives healthwatch serve reqobs"},
	{"testdata/bclbench-metrics-pingpong.golden", "bclbench -metrics pingpong"},
	{"testdata/bclbench-list.golden", "bclbench -list"},
	{"testdata/bclbench-watch-seed1.golden", "bclbench -seed 1 -watch"},
	{"testdata/bclbench-watch-seed7.golden", "bclbench -seed 7 -watch"},
	{"testdata/bclbench-watch-seed42.golden", "bclbench -seed 42 -watch"},
	{"testdata/bclbench-watch-reqobs-seed1.golden", "bclbench -seed 1 -watch reqobs"},
	{"testdata/bclbench-watch-reqobs-seed7.golden", "bclbench -seed 7 -watch reqobs"},
	{"testdata/bclbench-watch-reqobs-seed42.golden", "bclbench -seed 42 -watch reqobs"},
	// Each example also panics on a wrong result.
	{"examples/quickstart/stdout.golden", "quickstart"},
	{"examples/stencil/stdout.golden", "stencil"},
	{"examples/masterworker/stdout.golden", "masterworker"},
	{"examples/rma/stdout.golden", "rma"},
}

// hostModel is the golden of the host benchmark's model lines: the
// first line of `benchmark --workload W --seed S --seconds 2 --trace 0`
// (ops, events, model digest: deterministic per seed and size) for each
// workload at each seed, seed by seed. It holds the event order of five
// workloads the baselines do not reach.
const hostModel = "baselines/HOSTBENCH_model.txt"

var (
	hostWorkloads = []string{"eager_pingpong", "bulk_stream", "mpi_halo70", "svc_openloop", "svc_observed"}
	hostSeeds     = []string{"1", "7", "42"}
)

// hostBudgets bound the host benchmark's seed-1 runs, each read from
// the last (JSON) line of `benchmark --workload W --seed 1 --seconds N
// --trace 0`. Objects and bytes per op move by well under 1 % from run
// to run; CHANGES.md keeps each bound's history. A row with per set bounds the
// metric at a multiple of its own value at --seconds per.
var hostBudgets = []struct {
	workload string
	seconds  int
	metric   string
	max      float64
	per      int
}{
	// A message makes no garbage: a warm round trip allocates nothing.
	{"eager_pingpong", 2, "allocs_per_op", 1, 0},
	// Nothing per message either; the ~155 objects per iteration are the
	// workload's own verification reads.
	{"mpi_halo70", 2, "allocs_per_op", 300, 0},
	// A request makes no garbage, so a 2PC or reply-cache core that
	// allocates per request fails.
	{"svc_openloop", 2, "allocs_per_op", 0.48, 0},
	{"svc_observed", 2, "allocs_per_op", 1.1, 0},
	// The service tables grow in packed slots.
	{"svc_openloop", 2, "alloc_bytes_per_op", 310, 0},
	// At 6 s the 64-deep sample ring wraps: the sampler refills the
	// snapshot it evicts.
	{"svc_observed", 6, "alloc_bytes_per_op", 530, 0},
	// Peak RSS is flat in work done.
	{"mpi_halo70", 8, "peak_rss_mb", 1.5, 2},
	// A simulated frame stores the half of its page it uses.
	{"mpi_halo70", 8, "peak_rss_mb", 45, 0},
}

// TestOutputs builds every command and example once, runs each entry
// of outputs and the host benchmark at every workload and seed, and
// requires each output to equal its committed golden; then it holds the
// benchmark's seed-1 runs to hostBudgets, and every benchmark run to
// verifying every op. A moved output is named with its first differing
// line. The fresh outputs of every moved golden are written under a
// temporary directory, and the one step that adopts them all, a `cp`
// from the repository root, is printed: take it only for a change
// meant to move them, and say so.
func TestOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every command")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...", "./benchmark", "./examples/...")
	build.Env = append(os.Environ(), "GOFLAGS=") // -race or -cover runs of the suite build ordinary children
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(argv ...string) []byte {
		cmd := exec.Command(filepath.Join(bin, argv[0]), argv[1:]...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Errorf("%s: %v\n%s", strings.Join(argv, " "), err, stderr.Bytes())
		}
		return out
	}

	type golden struct {
		path  string
		fresh []byte
	}
	var goldens []golden
	for _, o := range outputs {
		goldens = append(goldens, golden{o.golden, run(strings.Fields(o.cmd)...)})
	}
	type hostRun struct {
		workload string
		seconds  int
	}
	seed1 := map[hostRun]map[string]float64{} // each seed-1 run's metrics by name
	bench := func(w, seed string, seconds int) []byte {
		argv := []string{"benchmark", "--workload", w, "--seed", seed, "--seconds", fmt.Sprint(seconds), "--trace", "0"}
		out := run(argv...)
		var res struct {
			Correct bool
			Failed  uint64
			Metrics map[string]struct{ Value float64 }
		}
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || res.Failed != 0 {
			t.Errorf("%s: an op failed verification (%v): %s", strings.Join(argv, " "), err, lines[len(lines)-1])
		}
		if seed == "1" {
			m := map[string]float64{}
			for name, v := range res.Metrics {
				m[name] = v.Value
			}
			seed1[hostRun{w, seconds}] = m
		}
		return []byte(lines[0] + "\n")
	}
	var model []byte
	for _, seed := range hostSeeds {
		for _, w := range hostWorkloads {
			model = append(model, bench(w, seed, 2)...)
		}
	}
	goldens = append(goldens, golden{hostModel, model})

	var moved []golden
	for _, g := range goldens {
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Error(err)
		}
		if d := firstDiff(want, g.fresh); d != "" {
			t.Errorf("%s moved: %s", g.path, d)
			moved = append(moved, g)
		}
	}
	if len(moved) > 0 {
		dir, err := os.MkdirTemp("", "outputs-")
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range moved {
			path := filepath.Join(dir, g.path)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.fresh, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("fresh outputs of the %d moved goldens are in %s; adopt them from the repository root with:\n\tcp -r %s/. .", len(moved), dir, dir)
	}

	for _, b := range hostBudgets {
		value := func(seconds int) (float64, bool) {
			r := hostRun{b.workload, seconds}
			if _, ran := seed1[r]; !ran {
				bench(b.workload, "1", seconds)
			}
			v, ok := seed1[r][b.metric]
			return v, ok
		}
		got, ok := value(b.seconds)
		limit, what := b.max, fmt.Sprint(b.max)
		if b.per != 0 {
			base, baseOK := value(b.per)
			limit, what = b.max*base, fmt.Sprintf("%gx its %g at --seconds %d", b.max, base, b.per)
			ok = ok && baseOK && base > 0
		}
		switch at := fmt.Sprintf("%s at --seconds %d: %s", b.workload, b.seconds, b.metric); {
		case !ok:
			t.Errorf("%s is not reported", at)
		case got > limit:
			t.Errorf("%s = %g, over its budget of %s", at, got, what)
		default:
			t.Logf("%s = %g, budget %s", at, got, what)
		}
	}
}

// firstDiff describes the first line where fresh departs from want, or
// returns "" when they are equal.
func firstDiff(want, fresh []byte) string {
	if bytes.Equal(want, fresh) {
		return ""
	}
	w, f := strings.Split(string(want), "\n"), strings.Split(string(fresh), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of output)"
	}
	i := 0
	for i < len(w) && i < len(f) && w[i] == f[i] {
		i++
	}
	return fmt.Sprintf("line %d\n\tgolden: %s\n\tfresh:  %s", i+1, line(w, i), line(f, i))
}
