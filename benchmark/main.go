// Command benchmark is the repository's two-clock benchmark: five
// fixed-work workloads over the public simulator API, reported on the
// host clock (what the simulator costs to run) and the model clock
// (what the simulated machine did), with per-layer attribution measured
// from outside the program. See README.md in this directory.
//
//	go run ./benchmark                      # all five workloads, both passes, a report
//	go run ./benchmark -only bulk_stream    # one of them
//	go run ./benchmark --workload eager_pingpong --seed 3 --seconds 15 --trace 0
//
// The last form is the driver contract: one workload, one pass, and a
// single JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// result is the contract's last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// document is the bcl-hostbench/v1 file -out writes.
type document struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NProc      int           `json:"nproc"`
	BCLShards  string        `json:"bcl_shards"`
	Commit     string        `json:"git_commit"`
	Seed       uint64        `json:"seed"`
	Scale      float64       `json:"scale"`
	Workloads  []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name        string  `json:"name"`
	Attempted   uint64  `json:"ops_attempted"`
	Failed      uint64  `json:"ops_failed"`
	Events      uint64  `json:"events,omitempty"`
	ModelDigest string  `json:"model_digest,omitempty"`
	EndToEnd    metrics `json:"end_to_end,omitempty"`
	PerLayer    metrics `json:"per_layer,omitempty"`
	Batches     []batch `json:"batches,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and end with the contract's JSON line")
		only    = flag.String("only", "", "with no -workload: restrict the report to this workload")
		seed    = flag.Uint64("seed", 1, "payload bytes and every svc arrival/size/key stream derive from it; nothing else does")
		seconds = flag.Float64("seconds", refSeconds, "size of the fixed work: the timed region takes about this long on the reference runner")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics from one untraced pass; 1: per-layer metrics from the traced passes")
		out     = flag.String("out", "", "write the bcl-hostbench/v1 JSON result to this file")
		cpuDir  = flag.String("cpuprofile", "", "with -trace 1: keep the raw pprof CPU profiles in this directory")
		epochs  = flag.Float64("epochs", 0, "svc_*: serve this many epochs instead of the sized plan")
		epochMS = flag.Int("epoch-ms", 0, "svc_*: virtual milliseconds per epoch (default 300)")
		svcBuf  = flag.Int("svc-buf", 0, "svc_*: system-buffer bytes (default 4096; 2048 reproduces the oversized-2PC stall)")
	)
	flag.Parse()
	cfg := config{seed: *seed, scale: *seconds / refSeconds, epochs: *epochs, epochMS: *epochMS, svcBuf: *svcBuf}
	if flag.NArg() > 0 || cfg.scale <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "hostbench: bad arguments; see -help")
		os.Exit(2)
	}
	var err error
	if *name != "" {
		// Under the driver a slow machine must not turn fixed work into
		// a blown budget: timed work stops at 2.5x its intended length.
		cfg.deadline = time.Now().Add(time.Duration((2.5**seconds + 10) * float64(time.Second)))
		err = runOne(*name, cfg, *traceOn == 1, *out, *cpuDir)
	} else {
		err = runAll(*only, cfg, *out, *cpuDir, flag.CommandLine)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

// runOne is the contract: one workload, one kind of pass, every metric
// printed by name with its unit, the JSON object last.
func runOne(name string, cfg config, traceOn bool, out, cpuDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	doc := workloadDoc{Name: w.name}
	var passes []*pass
	if traceOn {
		t := runTraced(w, cfg)
		passes = []*pass{t.base, t.cpu, t.mem}
		if t.spans != nil {
			passes = append(passes, t.spans)
		}
		if doc.PerLayer, err = perLayer(w, t); err != nil {
			return err
		}
		for i, p := range t.cpu.profiles {
			if cpuDir == "" {
				break
			}
			if err := os.MkdirAll(cpuDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(cpuDir, fmt.Sprintf("%s.%d.pprof", w.name, i)), p, 0o644); err != nil {
				return err
			}
		}
	} else {
		ps := &pass{deadline: cfg.deadline}
		w.run(ps, cfg, 1, nil)
		passes = []*pass{ps}
		doc.EndToEnd = endToEnd(ps)
		doc.Batches = ps.batches
	}
	for _, ps := range passes {
		doc.Attempted += ps.ops + ps.failed + ps.unfinished
		doc.Failed += ps.failed + ps.unfinished
		if ps.truncated {
			fmt.Fprintf(os.Stderr, "hostbench: %s: deadline reached after %d ops; model numbers are not comparable\n", w.name, ps.ops)
		}
	}
	doc.Events = passes[0].events
	doc.ModelDigest = fmt.Sprintf("%016x", passes[0].model)

	shown := doc.EndToEnd
	if traceOn {
		shown = doc.PerLayer
	}
	fmt.Printf("%s seed=%d scale=%.4g ops=%d failed=%d events=%d batches=%d model_digest=%s\n",
		w.name, cfg.seed, cfg.scale, doc.Attempted, doc.Failed, doc.Events, len(passes[0].batches), doc.ModelDigest)
	printMetrics(shown)
	if out != "" {
		if err := writeDocument(out, cfg, []workloadDoc{doc}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(result{
		Correct: doc.Failed == 0 && doc.Attempted > 0, Attempted: max(doc.Attempted, 1), Failed: doc.Failed, Metrics: shown,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// runAll is the report a person runs: every workload (or one), each
// pass in its own child process of this binary so that resident memory,
// heap sizing and profiler state never leak from one measurement into
// the next.
func runAll(only string, cfg config, out, cpuDir string, flags *flag.FlagSet) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var pass []string // flags the children inherit
	flags.Visit(func(f *flag.Flag) {
		if f.Name != "only" && f.Name != "out" {
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	var docs []workloadDoc
	failed := false
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		doc := workloadDoc{Name: w.name}
		for trace := 0; trace <= 1; trace++ {
			part, err := os.CreateTemp("", "hostbench-*.json")
			if err != nil {
				return err
			}
			part.Close()
			defer os.Remove(part.Name())
			args := append([]string{"-workload", w.name, "-trace", fmt.Sprint(trace), "-out", part.Name()}, pass...)
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %d: %w", w.name, trace, err)
			}
			var d document
			raw, err := os.ReadFile(part.Name())
			if err == nil {
				err = json.Unmarshal(raw, &d)
			}
			if err != nil || len(d.Workloads) != 1 {
				return errors.Join(fmt.Errorf("%s -trace %d: no result", w.name, trace), err)
			}
			got := d.Workloads[0]
			doc.Attempted += got.Attempted
			doc.Failed += got.Failed
			if trace == 0 {
				doc.Events, doc.ModelDigest = got.Events, got.ModelDigest
				doc.EndToEnd, doc.Batches = got.EndToEnd, got.Batches
			} else {
				doc.PerLayer = got.PerLayer
			}
		}
		failed = failed || doc.Failed > 0
		docs = append(docs, doc)
	}
	if len(docs) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	if out != "" {
		if err := writeDocument(out, cfg, docs); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("some ops failed verification")
	}
	return nil
}

func writeDocument(path string, cfg config, docs []workloadDoc) error {
	commit := "unknown"
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(rev))
	}
	raw, err := json.MarshalIndent(document{
		Schema: "bcl-hostbench/v1", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		BCLShards: os.Getenv("BCL_SHARDS"), Commit: commit,
		Seed: cfg.seed, Scale: cfg.scale, Workloads: docs,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
