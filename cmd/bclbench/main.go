// Command bclbench regenerates the paper's evaluation tables and
// figures from the simulated cluster, and runs the continuous
// benchmark gate against committed baselines.
//
// Usage:
//
//	bclbench -list             # show experiment ids
//	bclbench all               # run everything, in paper order
//	bclbench table1 fig7 ...   # run selected experiments
//	bclbench -metrics pingpong # append the registry snapshot
//	                           # (Prometheus text + JSON) to each report
//	bclbench -baseline         # (re)write baselines/BENCH_*.json
//	bclbench -check            # rerun the gated experiments, exit 1 naming
//	                           # every JSON leaf that moved from baselines/
//	bclbench -check -out dir   # also write the fresh artifacts to dir
//	bclbench -check -postmortem dir
//	                           # additionally write a bcl-postmortem/v1
//	                           # bundle per failing gate to dir
//	bclbench -watch            # replay the healthwatch fault phase as
//	                           # live bcltop frames (terminal "top" view)
//	bclbench -watch reqobs     # replay the reqobs hotkey phase instead:
//	                           # frames carry the sampled/dropped trace
//	                           # counters and the heavy-hitter line
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bcl/internal/bench"
	"bcl/internal/obs/health"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	seed := flag.Uint64("seed", 1, "fault/traffic-schedule seed for the seeded experiments (marked in -list), also under all and -watch; -check and -baseline take only 1, the baselines' seed")
	metrics := flag.Bool("metrics", false, "print each experiment's metrics registry snapshot (text and JSON)")
	check := flag.Bool("check", false, "run the gated experiments and require each artifact to equal its committed baseline byte for byte (exit 1 naming every moved leaf)")
	baseline := flag.Bool("baseline", false, "run the gated experiments and (re)write the baselines")
	dir := flag.String("dir", "baselines", "baseline directory for -check / -baseline")
	out := flag.String("out", "", "also write fresh BENCH_<name>.json artifacts to this directory")
	watch := flag.Bool("watch", false, "replay the healthwatch fault phase (or the reqobs hotkey phase: -watch reqobs) as bcltop frames")
	post := flag.String("postmortem", "", "with -check: write POSTMORTEM_<name>.json bundles for failing gates to this directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bclbench [-list] [-seed N] [-metrics] [-out dir] all | <experiment> ...\n")
		fmt.Fprintf(os.Stderr, "       bclbench (-check [-postmortem dir] | -baseline) [-dir baselines] [-out dir]   (seed 1 only)\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(bench.IDs(), " "))
	}
	flag.Parse()
	if *list {
		for _, e := range bench.List() {
			var marks []string
			if len(e.Aliases) > 0 {
				marks = append(marks, "alias: "+strings.Join(e.Aliases, ", "))
			}
			if e.Seeded {
				marks = append(marks, "seeded: varies with -seed N")
			}
			if e.Gate != "" {
				marks = append(marks, "gated: baselines/"+bench.ArtifactFile(e.Gate))
			}
			suffix := ""
			if len(marks) > 0 {
				suffix = "  [" + strings.Join(marks, "; ") + "]"
			}
			fmt.Printf("%-22s %s%s\n", e.ID, e.Title, suffix)
		}
		fmt.Print(faultVocabulary)
		return
	}
	if *watch {
		frames := bench.HealthWatchFrames
		if flag.NArg() > 0 {
			switch flag.Arg(0) {
			case "reqobs", "reqtrace":
				frames = bench.ReqObsFrames
			case "healthwatch", "health":
			default:
				fmt.Fprintf(os.Stderr, "bclbench: -watch takes healthwatch or reqobs, not %q\n", flag.Arg(0))
				os.Exit(2)
			}
		}
		for i, f := range frames(*seed) {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(f)
		}
		return
	}
	if *check || *baseline {
		if flag.NArg() != 0 || *check && *baseline || *seed != 1 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(runGate(*check, *dir, *out, *post))
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var reports []*bench.Report
	if len(args) == 1 && args[0] == "all" {
		reports = bench.All(*seed)
	} else {
		for _, id := range args {
			r := bench.Run(id, *seed)
			if r == nil {
				fmt.Fprintf(os.Stderr, "bclbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			reports = append(reports, r)
		}
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.String())
		fmt.Println(r.Summary)
		if *out != "" {
			b, err := bench.FromReport(r).Encode()
			if err == nil {
				err = writeFile(*out, bench.ArtifactFile(r.Artifact), b)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bclbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *metrics && r.Snap != nil {
			fmt.Println()
			fmt.Print(r.Snap.Text())
			js, err := r.Snap.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bclbench: metrics JSON: %v\n", err)
				os.Exit(1)
			}
			os.Stdout.Write(js)
			fmt.Println()
		}
	}
}

// writeFile writes data to dir/name, creating dir.
func writeFile(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// runGate runs every gated experiment once at the baselines' seed and
// either rewrites the baselines (check=false) or requires each fresh
// artifact to equal its baseline byte for byte (check=true), printing
// every leaf that moved. Returns the process exit code.
func runGate(check bool, dir, out, post string) int {
	failed := false
	for _, e := range bench.List() {
		if e.Gate == "" {
			continue
		}
		r := bench.Run(e.ID, 1)
		name := bench.ArtifactFile(e.Gate)
		b, err := bench.FromReport(r).Encode()
		if err == nil && out != "" {
			err = writeFile(out, name, b)
		}
		if err == nil && !check {
			err = writeFile(dir, name, b)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bclbench: %v\n", err)
			return 1
		}
		path := filepath.Join(dir, name)
		if !check {
			fmt.Printf("baseline %-12s -> %s (%d metrics)\n", e.Gate, path, len(r.Metrics))
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bclbench: %s: %v (run `bclbench -baseline` to create it)\n", e.Gate, err)
			failed = true
			writePostmortem(post, r, []string{err.Error()})
			continue
		}
		moved := bench.Diff(b, raw)
		if moved == nil {
			fmt.Printf("check %-12s PASS (byte-identical)\n", e.Gate)
			continue
		}
		failed = true
		fmt.Printf("check %-12s FAIL\n", e.Gate)
		for _, m := range moved {
			fmt.Printf("  %s\n", m)
		}
		writePostmortem(post, r, moved)
	}
	if failed {
		return 1
	}
	if check {
		fmt.Println("baselines reproduce byte for byte")
	}
	return 0
}

// writePostmortem dumps a gate-failure evidence bundle (the failure
// reasons, the experiment's final registry snapshot, and its flight
// recorder) as POSTMORTEM_<name>.json, so CI can attach it to the
// failing run. A no-op when -postmortem was not given.
func writePostmortem(dir string, r *bench.Report, reasons []string) {
	if dir == "" {
		return
	}
	name := "POSTMORTEM_" + r.Artifact + ".json"
	data, err := health.GateBundle(r.Artifact, int64(r.Snap.At), reasons, r.Snap, r.Flight).Encode()
	if err == nil {
		err = writeFile(dir, name, data)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bclbench: postmortem %s: %v\n", r.Artifact, err)
		return
	}
	fmt.Printf("  postmortem -> %s\n", filepath.Join(dir, name))
}

// faultVocabulary documents the fault vocabulary the seeded
// experiments draw from (the authoritative description lives on
// fabric.Schedule). -list prints it so the vocabulary is discoverable
// without reading source.
const faultVocabulary = `
faults are data: one fabric.Schedule per phase, armed by (*cluster.Cluster).Install
(seeded by -seed N; a malformed entry panics at Install, naming it):
  packet rules            Rule{Kind, K | Every | P, Do: Drop|Duplicate|Corrupt, Rail}:
                          the K-th, every n-th, or (seeded RNG) each matching
                          packet with probability p; one rail or every rail
  outage windows          Window{Node | AllNodes, Rail, From, To}: crash-stop,
                          every packet touching the component is lost
  gray (slow) windows     Window{..., Slow: factor}: latency multiplied,
                          nothing lost -- degraded but alive
  firmware crashes        Crash{Node, At}: MCP dies and SRAM state is wiped
                          until the kernel watchdog reboots the NIC and replays
                          its journal (cluster Watchdog: true)
`
