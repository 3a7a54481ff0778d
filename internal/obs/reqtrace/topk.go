package reqtrace

import (
	"fmt"
	"sort"
	"strings"
)

// HH is one heavy-hitter candidate reported by a Sketch. Key is the
// candidate's rendered label; Count is the estimated hit count; the
// true count lies in [Count-Err, Count]. An entry with Count-Err above
// every evicted competitor is a guaranteed heavy hitter.
type HH struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
}

// Sketch is a space-saving top-k sketch (Metwally et al.) over keys of
// any comparable type: it tracks at most k candidate keys in O(k)
// space. A hit on a tracked key bumps its counter; a hit on an
// untracked key evicts the minimum-count candidate and inherits its
// count as the new entry's error bound. Eviction takes the first
// minimum in insertion order, so the sketch is fully deterministic for
// a deterministic input stream.
//
// k is small (8 by default), so one scan of the candidates finds both a
// tracked key and the eviction victim, and the sketch keeps no index.
// A key becomes text only when Top or Line renders it, so offering a
// key allocates nothing.
type Sketch[K comparable] struct {
	k       int
	entries []hhEntry[K]
	render  func(K) string
	total   uint64
}

type hhEntry[K comparable] struct {
	key   K
	count uint64
	err   uint64
}

// NewSketch returns a sketch tracking at most k candidates (k < 1 is
// clamped to 1), labelled by render when reported.
func NewSketch[K comparable](k int, render func(K) string) *Sketch[K] {
	k = max(k, 1)
	return &Sketch[K]{k: k, entries: make([]hhEntry[K], 0, k), render: render}
}

// Offer feeds one hit on key into the sketch. Nil-safe.
func (s *Sketch[K]) Offer(key K) {
	if s == nil {
		return
	}
	s.total++
	min := 0
	for i := range s.entries {
		e := &s.entries[i]
		if e.key == key {
			e.count++
			return
		}
		if e.count < s.entries[min].count {
			min = i
		}
	}
	if len(s.entries) < s.k {
		s.entries = append(s.entries, hhEntry[K]{key: key, count: 1})
		return
	}
	// Replace the minimum-count candidate; its count becomes the
	// newcomer's error bound, preserving the space-saving overestimate
	// invariant.
	old := s.entries[min].count
	s.entries[min] = hhEntry[K]{key: key, count: old + 1, err: old}
}

// Top returns the candidates ranked by estimated count descending
// (ties broken by rendered label ascending for deterministic output).
func (s *Sketch[K]) Top() []HH {
	if s == nil {
		return nil
	}
	out := make([]HH, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, HH{Key: s.render(e.key), Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// SharePct returns the top candidate's estimated share of the whole
// stream, in integer percent (0 on an empty sketch).
func (s *Sketch[K]) SharePct() int64 {
	if s == nil || s.total == 0 {
		return 0
	}
	var top uint64
	for _, e := range s.entries {
		top = max(top, e.count)
	}
	return int64(top * 100 / s.total)
}

// Line renders the first n candidates as a compact one-line summary
// ("k0042×913±0 k0007×112×…") for the bcltop live view.
func (s *Sketch[K]) Line(n int) string {
	top := s.Top()
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
