package svc

import (
	"fmt"
	"sort"

	"bcl/internal/sim"
)

// Ring maps keys to shards by consistent hashing: every shard projects
// vnodes points onto a 64-bit circle and a key belongs to the first
// point at or after its hash. Virtual nodes smooth the load split, and
// consistent hashing keeps most keys in place when the shard count
// changes — the property that makes cache warm-up survivable during
// resharding.
type Ring struct {
	points []ringPoint
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over `shards` shards with `vnodes` virtual
// points each (32-128 is typical).
func NewRing(shards, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: sim.Splitmix64(uint64(s)<<20 | uint64(v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard
	})
	return r
}

// Shards returns the number of shards on the ring.
func (r *Ring) Shards() int { return r.shards }

// CrossPairs returns n transaction key pairs whose two keys land on
// different shards, so every transaction over a pair runs 2PC.
func (r *Ring) CrossPairs(n int) (pa, pb []string) {
	for i := 0; len(pa) < n; i++ {
		a := fmt.Sprintf("pa%04d", i)
		b := fmt.Sprintf("pb%04d", i)
		if r.Shard(a) != r.Shard(b) {
			pa = append(pa, a)
			pb = append(pb, b)
		}
	}
	return pa, pb
}

// Shard returns the shard owning a key.
func (r *Ring) Shard(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
