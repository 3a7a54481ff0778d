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
//	bclbench -check            # rerun the gated experiments, exit 1 naming every
//	                           # JSON leaf that moved from baselines/ and failing
//	                           # verdict, each failing gate labelled "model moved"
//	                           # or "model untouched (only events, event_fp moved)";
//	                           # sweep seeds 2..32 against KNOWN_RED.txt
//	bclbench -check -out dir   # also write the fresh artifacts to dir
//	bclbench -check -postmortem dir
//	                           # additionally write a bcl-postmortem/v1
//	                           # bundle per failing gate or red run to dir
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
	"slices"
	"strings"

	"bcl/internal/bench"
	"bcl/internal/obs/health"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	seed := flag.Uint64("seed", 1, "fault/traffic-schedule seed for the seeded experiments (marked in -list), also under all and -watch; -check and -baseline take only 1, the baselines' seed")
	metrics := flag.Bool("metrics", false, "print each experiment's metrics registry snapshot (text and JSON)")
	check := flag.Bool("check", false, "run the gated experiments and require each artifact to equal its committed baseline byte for byte and every verdict to pass, then the seeded ones at seeds 2..32 to fail exactly the ledger's lines (exit 1 naming every moved leaf and red line)")
	baseline := flag.Bool("baseline", false, "run the gated experiments and (re)write the baselines")
	dir := flag.String("dir", "baselines", "baseline directory for -check / -baseline")
	out := flag.String("out", "", "also write fresh BENCH_<name>.json artifacts to this directory")
	watch := flag.Bool("watch", false, "replay the healthwatch fault phase (or the reqobs hotkey phase: -watch reqobs) as bcltop frames")
	post := flag.String("postmortem", "", "with -check: write POSTMORTEM_<name>.json bundles for failing gates and red sweep runs to this directory")
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
// artifact to equal its baseline byte for byte and each verdict to
// pass, printing every leaf that moved and every failing verdict, and
// then sweeps (check=true). Returns the process exit code.
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
			fmt.Printf("baseline %-12s -> %s (%d metrics, %d verdicts)\n", e.Gate, path, len(r.Metrics), len(r.Verdicts))
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bclbench: %s: %v (run `bclbench -baseline` to create it)\n", e.Gate, err)
			failed = true
			writePostmortem(post, r.Artifact, r, []string{err.Error()})
			continue
		}
		moved := bench.Diff(b, raw)
		for _, v := range r.Failing() {
			moved = append(moved, "verdict "+v+": fail")
		}
		if moved == nil {
			fmt.Printf("check %-12s PASS (byte-identical)\n", e.Gate)
			continue
		}
		failed = true
		fmt.Printf("check %-12s FAIL: %s\n", e.Gate, bench.Classify(moved))
		for _, m := range moved {
			fmt.Printf("  %s\n", m)
		}
		writePostmortem(post, r.Artifact, r, moved)
	}
	if !failed && check {
		fmt.Println("baselines reproduce byte for byte")
	}
	if check && !sweep(dir, post) || failed {
		return 1
	}
	return 0
}

// sweep runs every seeded experiment at seeds SweepFirst..SweepLast and
// requires the verdicts failing there to be exactly the ledger's
// lines: a red line the ledger lacks fails, and so does a ledger line
// that no longer fails. Each red run gets a postmortem bundle naming
// its red lines. Returns whether the sweep passed.
func sweep(dir, post string) bool {
	ledger := filepath.Join(dir, bench.KnownRedFile)
	raw, err := os.ReadFile(ledger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bclbench: %v\n", err)
		return false
	}
	known := slices.DeleteFunc(strings.Split(string(raw), "\n"), func(l string) bool { return l == "" || l[0] == '#' })
	var red []string
	ok := true
	for _, e := range bench.List() {
		for s := uint64(bench.SweepFirst); e.Seeded && s <= bench.SweepLast; s++ {
			r, n := bench.Run(e.ID, s), len(red)
			for _, v := range r.Failing() {
				line, status := fmt.Sprintf("%s %d %s", e.ID, s, v), "red (known)"
				if !slices.Contains(known, line) {
					status, ok = "FAIL (red, not in "+ledger+")", false
				}
				fmt.Printf("sweep %s: %s\n", line, status)
				red = append(red, line)
			}
			if len(red) > n {
				writePostmortem(post, fmt.Sprintf("%s_seed%d", r.Artifact, s), r, red[n:])
			}
		}
	}
	for _, l := range known {
		if !slices.Contains(red, l) {
			fmt.Printf("sweep %s: FAIL (no longer red; delete it from %s)\n", l, ledger)
			ok = false
		}
	}
	if ok {
		fmt.Printf("sweep: seeds %d..%d fail exactly the %d lines of %s\n", bench.SweepFirst, bench.SweepLast, len(known), ledger)
	}
	return ok
}

// writePostmortem dumps a gate-failure evidence bundle (the failure
// reasons, the experiment's final registry snapshot, and its flight
// recorder) as POSTMORTEM_<name>.json, so CI can attach it to the
// failing run. A no-op when -postmortem was not given.
func writePostmortem(dir, name string, r *bench.Report, reasons []string) {
	if dir == "" {
		return
	}
	file := "POSTMORTEM_" + name + ".json"
	data, err := health.GateBundle(name, int64(r.Snap.At), reasons, r.Snap, r.Flight).Encode()
	if err == nil {
		err = writeFile(dir, file, data)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bclbench: postmortem %s: %v\n", name, err)
		return
	}
	fmt.Printf("  postmortem -> %s\n", filepath.Join(dir, file))
}

// faultVocabulary documents the fault vocabulary the seeded
// experiments draw from (the authoritative description lives on
// fabric.Schedule). -list prints it so the vocabulary is discoverable
// without reading source.
const faultVocabulary = `
faults are data: one fabric.Schedule per phase, armed by (*cluster.Cluster).Install
(seeded by -seed N; a malformed entry panics at Install, naming it):
  packet rules            Rule{K | Every | P, Do: Drop|Duplicate|Corrupt, Rail}:
                          the K-th, every n-th, or (seeded RNG) each data
                          packet with probability p; one rail or every rail
  outage windows          Window{Node | AllNodes, Rail, From, To}: crash-stop,
                          every packet touching the component is lost
  gray (slow) windows     Window{..., Slow: factor}: latency multiplied,
                          nothing lost -- degraded but alive
  firmware crashes        Crash{Node, At}: MCP dies and SRAM state is wiped
                          until the kernel watchdog reboots the NIC and replays
                          its journal (cluster Watchdog: true)
`
