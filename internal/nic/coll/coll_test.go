package coll

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// checkTree verifies Parent/Children are mutually consistent and that
// every non-root member reaches the root.
func checkTree(t *testing.T, pl Plan) {
	t.Helper()
	seen := make(map[int]bool)
	for i := 0; i < pl.N; i++ {
		p := pl.Parent(i)
		if i == pl.Root {
			if p != -1 {
				t.Fatalf("plan %+v: root parent = %d, want -1", pl, p)
			}
		} else {
			found := false
			for _, c := range pl.Children(p) {
				if c == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("plan %+v: member %d not listed as child of its parent %d", pl, i, p)
			}
		}
		for _, c := range pl.Children(i) {
			if pp := pl.Parent(c); pp != i {
				t.Fatalf("plan %+v: child %d of %d has parent %d", pl, c, i, pp)
			}
			if seen[c] {
				t.Fatalf("plan %+v: member %d is a child twice", pl, c)
			}
			seen[c] = true
		}
	}
	// Every member's ancestor chain must end at the root without cycles.
	for i := 0; i < pl.N; i++ {
		anc := pl.Ancestors(i)
		if i == pl.Root {
			if len(anc) != 0 {
				t.Fatalf("plan %+v: root has ancestors %v", pl, anc)
			}
			continue
		}
		if len(anc) == 0 || anc[len(anc)-1] != pl.Root {
			t.Fatalf("plan %+v: ancestors of %d = %v, want chain ending at root %d", pl, i, anc, pl.Root)
		}
		if len(anc) > pl.N {
			t.Fatalf("plan %+v: ancestor cycle at %d", pl, i)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33, 64} {
		for _, root := range []int{0, 1, n - 1} {
			if root < 0 || root >= n {
				continue
			}
			for _, radix := range []int{0, 2, 4} {
				checkTree(t, Plan{N: n, Root: root, Radix: radix})
			}
		}
	}
}

func TestBinomialChildrenOfRoot(t *testing.T) {
	pl := Binomial(8, 0)
	got := pl.Children(0)
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("children(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("children(0) = %v, want %v", got, want)
		}
	}
	if p := pl.Parent(7); p != 3 {
		t.Fatalf("parent(7) = %d, want 3", p)
	}
}

func TestSubtreeMask(t *testing.T) {
	pl := Binomial(8, 0)
	if m := pl.SubtreeMask(1); m != Bit(1)|Bit(3)|Bit(5)|Bit(7) {
		t.Fatalf("subtree(1) = %b", m)
	}
	if m := pl.SubtreeMask(0); m != pl.FullMask() {
		t.Fatalf("subtree(root) = %b, full = %b", m, pl.FullMask())
	}
	// Rotated root: masks still cover everything exactly once.
	pl = Plan{N: 5, Root: 3}
	total := uint64(0)
	for _, c := range pl.Children(3) {
		m := pl.SubtreeMask(c)
		if total&m != 0 {
			t.Fatalf("overlapping subtrees at root 3")
		}
		total |= m
	}
	if total|Bit(3) != pl.FullMask() {
		t.Fatalf("subtrees of children + root = %b, want %b", total|Bit(3), pl.FullMask())
	}
}

func TestCombineFloat(t *testing.T) {
	dst := make([]byte, 16)
	src := make([]byte, 16)
	putF := func(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
	getF := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
	putF(dst, 1.5)
	putF(dst[8:], -2)
	putF(src, 2.5)
	putF(src[8:], 7)
	Combine(dst, src, OpSum, Float64)
	if getF(dst) != 4 || getF(dst[8:]) != 5 {
		t.Fatalf("sum: got %v %v", getF(dst), getF(dst[8:]))
	}
	putF(dst, 1.5)
	Combine(dst, src, OpMax, Float64)
	if getF(dst) != 2.5 {
		t.Fatalf("max: got %v", getF(dst))
	}
	putF(dst, 1.5)
	Combine(dst, src, OpMin, Float64)
	if getF(dst) != 1.5 {
		t.Fatalf("min: got %v", getF(dst))
	}
}

func TestCombineInt(t *testing.T) {
	dst := make([]byte, 8)
	src := make([]byte, 8)
	binary.LittleEndian.PutUint64(dst, ^uint64(4))
	binary.LittleEndian.PutUint64(src, 3)
	Combine(dst, src, OpSum, Int64)
	if got := int64(binary.LittleEndian.Uint64(dst)); got != -2 {
		t.Fatalf("int sum: got %d", got)
	}
	binary.LittleEndian.PutUint64(dst, ^uint64(4))
	Combine(dst, src, OpMin, Int64)
	if got := int64(binary.LittleEndian.Uint64(dst)); got != -5 {
		t.Fatalf("int min: got %d", got)
	}
}

// AppendChildren is Children into the caller's storage: it appends, and
// a list that fits allocates nothing.
func TestAppendChildren(t *testing.T) {
	for _, pl := range []Plan{Binomial(70, 0), Binomial(13, 5), {N: 20, Root: 3, Radix: 4}} {
		for i := 0; i < pl.N; i++ {
			var buf [8]int
			got := pl.AppendChildren(append(buf[:0], -7), i)
			if want := pl.Children(i); got[0] != -7 || !slices.Equal(got[1:], want) {
				t.Fatalf("%+v: AppendChildren(%d) = %v, want -7 then %v", pl, i, got, want)
			}
		}
	}
	pl := Binomial(70, 0)
	if n := testing.AllocsPerRun(100, func() {
		var buf [8]int
		for range pl.AppendChildren(buf[:0], 0) {
		}
	}); n != 0 {
		t.Fatalf("walking the root's 7 children allocates %v times", n)
	}
}
