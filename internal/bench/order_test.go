package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// eventOrder renders one line per experiment run: every experiment at
// seed 1, then each seeded one at seeds 7 and 42, with the events its
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
		line(seed7()[e.ID], 7)
		line(Run(e.ID, 42), 42)
	}
	return b.String()
}

// TestEventOrder is the event-order oracle: which events every
// experiment executes, and in which order, must match
// testdata/event_order.golden line for line. The fingerprint folds the
// (time, sequence) key of every event executed. The twelve baselines
// carry the same events and event_fp for the gated experiments at seed
// 1; this golden adds the ungated ones and seeds 7 and 42. A change
// that moves events on purpose regenerates the file from the fresh
// lines this test prints, and says which lines moved and why.
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
	for _, d := range lineDiff("golden", string(want), "fresh ", got) {
		t.Errorf("moved %s", d)
	}
	t.Logf("fresh golden:\n%s", got)
}
