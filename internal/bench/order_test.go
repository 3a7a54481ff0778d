package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// eventOrderSeeds are the seeds TestEventOrder runs the seeded
// experiments at besides seed 1.
var eventOrderSeeds = []uint64{7, 42}

// eventOrder renders one line per experiment run: every experiment at
// seed 1, then each seeded one at eventOrderSeeds, with the events its
// clusters executed and their fingerprint.
func eventOrder() string {
	var b strings.Builder
	line := func(r *Report, seed uint64) {
		fmt.Fprintf(&b, "%s seed=%d events=%d fp=%016x\n", r.ID, seed, r.Events, r.EventFP)
	}
	for _, id := range IDs() {
		line(seed1()[id], 1)
	}
	for _, e := range List() {
		if !e.Seeded {
			continue
		}
		for _, seed := range eventOrderSeeds {
			line(Run(e.ID, seed), seed)
		}
	}
	return b.String()
}

// TestEventOrder is the event-order oracle: which events every
// experiment executes, and in which order, must match
// testdata/event_order.golden line for line. The twelve baselines do
// not see every reordering (dropping a zero-time event can leave all
// twelve identical); the fingerprint folds the (time, sequence) key of
// every event executed. A change that moves events on purpose
// regenerates the file from the fresh lines this test prints, and says
// which lines moved and why.
func TestEventOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want, err := os.ReadFile("testdata/event_order.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := eventOrder()
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, g := range strings.Split(got, "\n") {
		if i >= len(wantLines) || g != wantLines[i] {
			w := "(absent)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("line %d moved:\n  golden %s\n  fresh  %s", i+1, w, g)
		}
	}
	t.Logf("fresh golden:\n%s", got)
}
