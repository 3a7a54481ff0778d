// Package coll holds the collective machinery shared by the NIC
// firmware offload engine (internal/nic) and the host collective
// algorithms (internal/mpi): tree plans (binomial and k-ary, any
// root) and element-wise combine over real bytes. Keeping the
// topology math here means the offloaded and host paths of one
// collective agree on parent/child relationships by construction —
// there is exactly one place that knows the tree shape.
package coll

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MaxMembers bounds a collective context: member coverage travels in a
// 64-bit mask on the wire, so a tree can span at most 64 members.
// Larger groups fall back to the host algorithms.
const MaxMembers = 64

// Op is a combine operator.
type Op uint8

// Combine operators (wire-encoded; keep the order in sync with
// mpi.Sum/Max/Min so the layers can convert by cast).
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// DT is the element type of a combine.
type DT uint8

// Combine element types (order matches mpi.Float64/Int64).
const (
	Float64 DT = iota
	Int64
)

// Combine folds src into dst element-wise: dst[i] = dst[i] (op)
// src[i], little-endian, over min(len(dst), len(src)) bytes rounded
// down to whole elements. The arithmetic is real — the firmware
// combines actual payload bytes in SRAM, so reduction results are
// verifiable end to end.
func Combine(dst, src []byte, op Op, dt DT) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for off := 0; off+8 <= n; off += 8 {
		switch dt {
		case Float64:
			x := math.Float64frombits(binary.LittleEndian.Uint64(dst[off:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(applyF(op, x, y)))
		case Int64:
			x := int64(binary.LittleEndian.Uint64(dst[off:]))
			y := int64(binary.LittleEndian.Uint64(src[off:]))
			binary.LittleEndian.PutUint64(dst[off:], uint64(applyI(op, x, y)))
		default:
			panic(fmt.Sprintf("coll: unknown datatype %d", dt))
		}
	}
}

func applyF(op Op, x, y float64) float64 {
	switch op {
	case OpSum:
		return x + y
	case OpMax:
		return math.Max(x, y)
	case OpMin:
		return math.Min(x, y)
	}
	panic(fmt.Sprintf("coll: unknown op %d", op))
}

func applyI(op Op, x, y int64) int64 {
	switch op {
	case OpSum:
		return x + y
	case OpMax:
		if x > y {
			return x
		}
		return y
	case OpMin:
		if x < y {
			return x
		}
		return y
	}
	panic(fmt.Sprintf("coll: unknown op %d", op))
}

// Plan is a distribution/combining tree over members 0..N-1, rooted at
// Root. Radix <= 1 selects the binomial tree (the classic MPI shape);
// Radix >= 2 selects a k-ary tree. Plans are pure values: the same
// Plan on every member yields one consistent tree.
type Plan struct {
	N     int
	Root  int
	Radix int
}

// Binomial returns the binomial plan over n members rooted at root.
func Binomial(n, root int) Plan { return Plan{N: n, Root: root} }

// vrank rotates a member index so the root is virtual rank 0.
func (pl Plan) vrank(i int) int { return (i - pl.Root + pl.N) % pl.N }

// member maps a virtual rank back to a member index.
func (pl Plan) member(v int) int { return (v + pl.Root) % pl.N }

// Parent returns the member index of i's parent, or -1 for the root.
func (pl Plan) Parent(i int) int {
	v := pl.vrank(i)
	if v == 0 {
		return -1
	}
	if pl.Radix >= 2 {
		return pl.member((v - 1) / pl.Radix)
	}
	// Binomial: clear the highest set bit.
	mask := 1
	for mask <= v {
		mask <<= 1
	}
	return pl.member(v - mask>>1)
}

// Children returns the member indices of i's children, in ascending
// virtual-rank order.
func (pl Plan) Children(i int) []int { return pl.AppendChildren(nil, i) }

// AppendChildren appends i's children to out, for a caller that walks
// them once and has somewhere to put them.
func (pl Plan) AppendChildren(out []int, i int) []int {
	v := pl.vrank(i)
	if pl.Radix >= 2 {
		for c := v*pl.Radix + 1; c <= v*pl.Radix+pl.Radix && c < pl.N; c++ {
			out = append(out, pl.member(c))
		}
		return out
	}
	for mask := nextPow2(v + 1); v+mask < pl.N; mask <<= 1 {
		out = append(out, pl.member(v+mask))
	}
	return out
}

// Ancestors returns the chain from i's parent up to the root (empty
// for the root itself). The offload engine walks it when reparenting a
// contribution around a dead ancestor.
func (pl Plan) Ancestors(i int) []int {
	var out []int
	for p := pl.Parent(i); p >= 0; p = pl.Parent(p) {
		out = append(out, p)
	}
	return out
}

// Bit returns the coverage-mask bit of member i.
func Bit(i int) uint64 { return 1 << uint(i) }

// SubtreeMask returns the coverage mask of the subtree rooted at i
// (including i itself).
func (pl Plan) SubtreeMask(i int) uint64 {
	m := Bit(i)
	for _, c := range pl.Children(i) {
		m |= pl.SubtreeMask(c)
	}
	return m
}

// FullMask returns the coverage mask of the whole membership.
func (pl Plan) FullMask() uint64 {
	if pl.N >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(pl.N)) - 1
}

func nextPow2(v int) int {
	m := 1
	for m < v {
		m <<= 1
	}
	return m
}
