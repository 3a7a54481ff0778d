package bench

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/hw"
	"bcl/internal/sim"
)

// seed1 is one sweep of every experiment at the baseline seed, shared
// by the tests that hold goldens to it (read-only).
var seed1 = sync.OnceValue(func() map[string]*Report {
	byID := make(map[string]*Report)
	for _, r := range All(1) {
		byID[r.ID] = r
	}
	return byID
})

// seed7 is one run of every seeded experiment at seed 7, shared by the
// event-order golden and the same-seed check (read-only).
var seed7 = sync.OnceValue(func() map[string]*Report {
	byID := make(map[string]*Report)
	for _, e := range List() {
		if e.Seeded {
			byID[e.ID] = Run(e.ID, 7)
		}
	}
	return byID
})

// lineDiff lists every line at which x and y differ, one-based, as
// "line N:\n  <xName> <x's line>\n  <yName> <y's line>", with
// "(absent)" past the end of either.
func lineDiff(xName, x, yName, y string) []string {
	xs, ys := strings.Split(x, "\n"), strings.Split(y, "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(absent)"
	}
	var out []string
	for i := range max(len(xs), len(ys)) {
		if a, b := at(xs, i), at(ys, i); a != b {
			out = append(out, fmt.Sprintf("line %d:\n  %s %s\n  %s %s", i+1, xName, a, yName, b))
		}
	}
	return out
}

// mustPanic runs f and returns what it panicked with.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg, _ = r.(string)
	}()
	f()
	return ""
}

// TestRigPanicsOnFailedOpen: a port that cannot be opened stops the
// experiment at the rig, naming the port — not later, as a nil
// dereference inside a measurement loop.
func TestRigPanicsOnFailedOpen(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, NIC: ibcl.DefaultNICConfig()})
	// Endpoint 1 on node 0 already belongs to someone else, so the
	// rig's first open there is refused by the kernel.
	squatter := c.Nodes[0].Kernel.Spawn()
	if err := c.Nodes[0].Kernel.BindEndpoint(squatter.PID, 1); err != nil {
		t.Fatal(err)
	}
	msg := mustPanic(t, "newRig over a taken endpoint", func() {
		newRig(c, []int{0, 1}, ibcl.Options{SystemBuffers: 4}, 20*sim.Millisecond)
	})
	if !strings.Contains(msg, "open port") || !strings.Contains(msg, "node 0") {
		t.Fatalf("panic does not name the failed open: %q", msg)
	}
}

// TestScheduleInstallsOnEveryFabric: one installer arms a schedule on
// every fabric. serve's chaos schedule takes shard 1 down for exactly
// its window on Myrinet, the mesh and the dual-rail composite (both
// rails); a window on one rail of the composite leaves the node up and
// its traffic fails over to the other.
func TestScheduleInstallsOnEveryFabric(t *testing.T) {
	faults := serveSchedule(1)
	out := faults.Windows[0]
	for _, kind := range []cluster.FabricKind{cluster.Myrinet, cluster.Mesh, cluster.Hetero} {
		c := cluster.New(cluster.Config{Nodes: 5, Fabric: kind, NIC: ibcl.DefaultNICConfig()})
		c.Install(faults)
		for _, at := range []sim.Time{out.From - 1, out.From, out.To - 1, out.To} {
			c.Env.RunUntil(at)
			if want := at >= out.From && at < out.To; c.Fabric.NodeDown(1) != want {
				t.Errorf("%s at %d ns: NodeDown(1) = %v, want %v (window [%d, %d))", kind, at, !want, want, out.From, out.To)
			}
		}
		c.Env.Close()
	}

	env := sim.NewEnv(1)
	defer env.Close()
	hf := hetero.New(env, hw.DAWNING3000(), 4, nil)
	hf.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, Rail: fabric.OnRail(0), To: sim.Millisecond}}})
	env.Go("tx", func(p *sim.Proc) {
		if hf.NodeDown(1) {
			t.Error("a one-rail window took node 1 down on the composite")
		}
		hf.Attach(0).Inject(p, &fabric.Packet{Kind: fabric.KindData, Src: 0, Dst: 1})
	})
	env.Run()
	if hf.Failovers() == 0 || hf.Attach(1).RX.Len() != 1 {
		t.Fatalf("%d failovers, %d packets delivered; want the packet failed over to the mesh", hf.Failovers(), hf.Attach(1).RX.Len())
	}
}

// TestHealthwatchVerdictTripsOnCorruptPayload: riding the shared soak
// gave healthwatch payload verification; a damaged payload must fail
// the no_corrupt_payload verdict, and only it: no other verdict and no
// metric moves.
func TestHealthwatchVerdictTripsOnCorruptPayload(t *testing.T) {
	cl, fa := healthRun(1, false), healthRun(1, true)
	clean := healthWatchReport(1, cl, fa)
	if f := clean.Failing(); f != nil {
		t.Fatalf("seed-1 gauntlet fails %v:\n%s", f, clean)
	}
	if cl.corrupt != 0 || fa.corrupt != 0 {
		t.Fatalf("soak payloads arrived damaged: clean %d, fault %d", cl.corrupt, fa.corrupt)
	}
	fa.corrupt = 1
	damaged := healthWatchReport(1, cl, fa)
	if f := damaged.Failing(); !slices.Equal(f, []string{"no_corrupt_payload"}) {
		t.Fatalf("a corrupt soak payload fails %q, want [no_corrupt_payload]:\n%s", f, damaged)
	}
	for k, v := range clean.Metrics {
		if damaged.Metrics[k] != v {
			t.Errorf("metric %s moved %v -> %v: only the verdict may", k, v, damaged.Metrics[k])
		}
	}
}

// TestTranscriptIsCurrent treats EXPERIMENTS.md's "Full output" block
// as the golden it claims to be: every "== id:" section in it must
// equal what bclbench prints for Run(id, 1) today (All(1) is Run(id, 1)
// for every id).
func TestTranscriptIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	const doc = "../../EXPERIMENTS.md"
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(raw), "Captured verbatim from `go run ./cmd/bclbench all`")
	if !ok {
		t.Fatalf("%s has no captured transcript", doc)
	}
	_, after, _ = strings.Cut(after, "\n```\n")
	block, _, ok := strings.Cut(after, "\n```\n")
	if !ok {
		t.Fatalf("%s: the transcript's fenced block is not closed", doc)
	}
	header := regexp.MustCompile(`(?m)^== ([a-z0-9-]+): `)
	starts := header.FindAllStringSubmatchIndex(block, -1)
	if len(starts) == 0 {
		t.Fatalf("%s: the transcript has no == id: sections", doc)
	}
	for i, m := range starts {
		end := len(block)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		id, got := block[m[2]:m[3]], strings.TrimRight(block[m[0]:end], "\n")
		r := seed1()[id]
		if r == nil {
			t.Errorf("%s: section %q is not an experiment", doc, id)
			continue
		}
		if want := r.String() + r.Summary; got != want {
			t.Errorf("%s: section %q is stale; regenerate the block from `go run ./cmd/bclbench all`\n--- doc\n%s\n--- run\n%s", doc, id, got, want)
		}
	}
}
