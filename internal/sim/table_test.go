package sim

import (
	"math/rand"
	"testing"
)

// Table against the map it stands in for: same lookups, same count,
// and All walks the keys in ascending order.
func TestTableMatchesMap(t *testing.T) {
	var tab Table[*int]
	want := map[int]*int{}
	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 5000; step++ {
		id := rng.Intn(40)
		switch rng.Intn(3) {
		case 0:
			v := new(int)
			tab.Set(id, v)
			want[id] = v
		case 1:
			tab.Set(id, nil)
			delete(want, id)
		}
		probe := rng.Intn(60) - 10 // below, inside and beyond the table
		if got := tab.Get(probe); got != want[probe] {
			t.Fatalf("step %d: Get(%d) = %p, map has %p", step, probe, got, want[probe])
		}
		if tab.Len() != len(want) {
			t.Fatalf("step %d: Len %d, map has %d", step, tab.Len(), len(want))
		}
	}
	seen := 0
	for id, v := range tab.All() {
		if v != want[id] {
			t.Fatalf("All()[%d] = %p, map has %p", id, v, want[id])
		}
		if v != nil {
			seen++
		}
	}
	if seen != len(want) {
		t.Fatalf("All() holds %d entries, map %d", seen, len(want))
	}
	var ids Table[int]
	ids.Set(3, 7)
	ids.Set(9, 0) // removing beyond the end grows nothing
	if ids.Get(3) != 7 || ids.Len() != 1 || len(ids.All()) != 4 {
		t.Fatalf("Table[int]: Get(3) %d, Len %d, %d slots", ids.Get(3), ids.Len(), len(ids.All()))
	}
}
