package reqtrace

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// strSketch is a sketch over string keys, each its own label.
func strSketch(k int) *Sketch[string] { return NewSketch(k, func(s string) string { return s }) }

func TestTopKExactBelowCapacity(t *testing.T) {
	s := strSketch(4)
	for _, k := range []string{"a", "b", "a", "c", "a", "b"} {
		s.Offer(k)
	}
	top := s.Top()
	if len(top) != 3 || s.total != 6 {
		t.Fatalf("top = %+v total = %d", top, s.total)
	}
	// Exact counts, zero error, count-desc/key-asc order.
	want := []HH{{"a", 3, 0}, {"b", 2, 0}, {"c", 1, 0}}
	for i, h := range top {
		if h != want[i] {
			t.Fatalf("top[%d] = %+v, want %+v", i, h, want[i])
		}
	}
	if s.SharePct() != 50 {
		t.Fatalf("share = %d, want 50", s.SharePct())
	}
}

func TestTopKEvictionInheritsErrorBound(t *testing.T) {
	s := strSketch(2)
	s.Offer("a")
	s.Offer("a")
	s.Offer("b")
	s.Offer("c") // evicts b (count 1): c gets count 2, err 1
	top := s.Top()
	if top[0] != (HH{"a", 2, 0}) && top[0] != (HH{"c", 2, 1}) {
		t.Fatalf("top[0] = %+v", top[0])
	}
	var c HH
	for _, h := range top {
		if h.Key == "c" {
			c = h
		}
	}
	if c.Count != 2 || c.Err != 1 {
		t.Fatalf("c = %+v, want count 2 err 1", c)
	}
	// Space-saving invariant: estimate >= true count >= estimate - err.
	if true1 := uint64(1); c.Count < true1 || c.Count-c.Err > true1 {
		t.Fatalf("error bound violated: %+v vs true 1", c)
	}
}

func TestTopKDeterministicFirstMinimumEviction(t *testing.T) {
	// Two candidates at the same minimum count: eviction must take the
	// first in insertion order ("a"), every run.
	build := func() []HH {
		s := strSketch(2)
		s.Offer("a")
		s.Offer("b")
		s.Offer("c")
		return s.Top()
	}
	top := build()
	for _, h := range top {
		if h.Key == "a" {
			t.Fatalf("eviction took the wrong minimum: %+v", top)
		}
	}
	for i := 0; i < 10; i++ {
		again := build()
		for j := range top {
			if again[j] != top[j] {
				t.Fatalf("eviction not deterministic: %+v vs %+v", again, top)
			}
		}
	}
}

func TestTopKOverestimateNeverUndercounts(t *testing.T) {
	// Skewed stream through a tiny sketch: the tracked count of the
	// true heavy hitter must never fall below its true frequency.
	s := strSketch(3)
	truth := map[string]uint64{}
	for i := 0; i < 300; i++ {
		var k string
		if i%3 != 2 {
			k = "hot"
		} else {
			k = fmt.Sprintf("cold%03d", i)
		}
		truth[k]++
		s.Offer(k)
	}
	for _, h := range s.Top() {
		if h.Count < truth[h.Key] {
			t.Fatalf("undercount: %+v vs true %d", h, truth[h.Key])
		}
		if h.Count-h.Err > truth[h.Key] {
			t.Fatalf("lower bound above truth: %+v vs true %d", h, truth[h.Key])
		}
	}
	if s.Top()[0].Key != "hot" {
		t.Fatalf("heavy hitter lost: %+v", s.Top())
	}
}

func TestTopKLineAndNil(t *testing.T) {
	var s *Sketch[string]
	s.Offer("x")
	if s.Top() != nil || s.SharePct() != 0 {
		t.Fatal("nil sketch returned data")
	}
	if strSketch(0).k != 1 {
		t.Fatal("k<1 not clamped")
	}
	empty := strSketch(2)
	if empty.Line(3) != "-" {
		t.Fatalf("empty line = %q", empty.Line(3))
	}
	full := strSketch(1)
	full.Offer("a")
	full.Offer("b") // b: count 2, err 1
	if got := full.Line(3); got != "b×2±1" {
		t.Fatalf("line = %q", got)
	}
}

// oldTopK is the string-keyed sketch Sketch replaced, kept verbatim as
// the model TestSketchMatchesStringModel checks against: the recorder
// fed it fmt.Sprintf labels ("u0007", "s2") on every request.
type oldTopK struct {
	k       int
	entries []oldEntry
	index   map[string]int // key -> position in entries
	total   uint64
}

type oldEntry struct {
	key   string
	count uint64
	err   uint64
}

func newOldTopK(k int) *oldTopK {
	if k < 1 {
		k = 1
	}
	return &oldTopK{k: k, index: make(map[string]int, k)}
}

func (t *oldTopK) Offer(key string) {
	if t == nil {
		return
	}
	t.total++
	if i, ok := t.index[key]; ok {
		t.entries[i].count++
		return
	}
	if len(t.entries) < t.k {
		t.index[key] = len(t.entries)
		t.entries = append(t.entries, oldEntry{key: key, count: 1})
		return
	}
	min := 0
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].count < t.entries[min].count {
			min = i
		}
	}
	old := t.entries[min]
	delete(t.index, old.key)
	t.index[key] = min
	t.entries[min] = oldEntry{key: key, count: old.count + 1, err: old.count}
}

func (t *oldTopK) Top() []HH {
	if t == nil {
		return nil
	}
	out := make([]HH, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, HH{Key: e.key, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (t *oldTopK) SharePct() int64 {
	if t == nil || t.total == 0 {
		return 0
	}
	top := t.Top()
	if len(top) == 0 {
		return 0
	}
	return int64(top[0].Count * 100 / t.total)
}

func (t *oldTopK) Line(n int) string {
	top := t.Top()
	if len(top) > n {
		top = top[:n]
	}
	if len(top) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(top))
	for _, h := range top {
		if h.Err > 0 {
			parts = append(parts, fmt.Sprintf("%s×%d±%d", h.Key, h.Count, h.Err))
		} else {
			parts = append(parts, fmt.Sprintf("%s×%d", h.Key, h.Count))
		}
	}
	return strings.Join(parts, " ")
}

// The user and shard sketches key on the integer id and render labels
// only when reported; fed the same stream, they must report exactly
// what the string sketch fed fmt.Sprintf labels did. Users span 9990..
// 10009, where label order is not numeric order ("u10000" < "u9999"),
// and ties at equal counts are common.
func TestSketchMatchesStringModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		k := 1 + rng.Intn(8)
		users := NewSketch(k, func(u uint16) string { return fmt.Sprintf("u%04d", u) })
		shards := NewSketch(k, func(s int) string { return fmt.Sprintf("s%d", s) })
		oldUsers, oldShards := newOldTopK(k), newOldTopK(k)
		for i, n := 0, rng.Intn(300); i < n; i++ {
			u := uint16(9990 + rng.Intn(20))
			if rng.Intn(4) == 0 {
				u = uint16(rng.Intn(12))
			}
			s := rng.Intn(12)
			users.Offer(u)
			oldUsers.Offer(fmt.Sprintf("u%04d", u))
			shards.Offer(s)
			oldShards.Offer(fmt.Sprintf("s%d", s))
			if i%7 != 0 {
				continue
			}
			for _, c := range []struct {
				name      string
				top       []HH
				want      []HH
				line      string
				wantLine  string
				share     int64
				wantShare int64
			}{
				{"users", users.Top(), oldUsers.Top(), users.Line(3), oldUsers.Line(3), users.SharePct(), oldUsers.SharePct()},
				{"shards", shards.Top(), oldShards.Top(), shards.Line(3), oldShards.Line(3), shards.SharePct(), oldShards.SharePct()},
			} {
				if !reflect.DeepEqual(c.top, c.want) || c.line != c.wantLine || c.share != c.wantShare {
					t.Fatalf("round %d step %d %s (k=%d):\n top %v\nwant %v\n line %q\nwant %q\n share %d, want %d",
						round, i, c.name, k, c.top, c.want, c.line, c.wantLine, c.share, c.wantShare)
				}
			}
		}
	}
	// The tie the text order decides: one hit each on 9999 and 10000.
	s := NewSketch(2, func(u uint16) string { return fmt.Sprintf("u%04d", u) })
	s.Offer(9999)
	s.Offer(10000)
	if got := s.Line(2); got != "u10000×1 u9999×1" {
		t.Fatalf("tie order = %q, want u10000 first", got)
	}
}

// fullRecorder returns a recorder whose three sketches are full and
// whose free list holds a request, and a cycle that sends one request
// from a user, on a key and to a shard none of the sketches has seen
// through it unretained.
func fullRecorder(t *testing.T) (*Recorder, func()) {
	r := New(Config{Shards: 3, TopK: 8})
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	flow, n := uint64(0), 0
	cycle := func() {
		flow++
		n++
		r.Begin(flow, "get", keys[n%len(keys)], uint16(n), 0, n, 10)
		if r.End(flow, 20, false) {
			t.Fatal("a steady request was retained")
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	return r, cycle
}

// Begin with a never-seen user, key and shard on full sketches
// evicts without allocating: no label, no index entry.
func TestBeginNewUserAllocs(t *testing.T) {
	r, cycle := fullRecorder(t)
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("%v allocations per request from a never-seen user", got)
	}
	if top := r.byUser.Top(); len(top) != 8 || top[0].Err == 0 {
		t.Fatalf("user sketch not full and evicting: %+v", top)
	}
}

// SharePct reads the largest count; it neither ranks nor renders.
func TestSharePctAllocs(t *testing.T) {
	r, _ := fullRecorder(t)
	var share int64
	got := testing.AllocsPerRun(100, func() { share = r.UserShare() + r.ShardShare() + r.KeyShare() })
	if got != 0 || share == 0 {
		t.Fatalf("%v allocations per share read (share %d)", got, share)
	}
}
