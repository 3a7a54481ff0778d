package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// replayRing drives a Ring and a plain slice through the program prog
// encodes, two bytes an operation — pushes and pops in runs, removals
// at any position, last-N pushes — and after every step compares the
// two: order and length, every popped or removed slot cleared, the
// absolute indices, and growth only to the next power of two. The
// slice is the model: append, reslice from the front, delete at i.
// Every entry's absolute index is the model's head plus its position,
// head counting the entries that ever left.
func replayRing(t *testing.T, prog []byte) {
	t.Helper()
	var r Ring[*int]
	var want []*int
	head, next, peak := uint64(0), 0, 0
	push := func() *int {
		v := new(int)
		*v = next
		next++
		return v
	}
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step]%5, int(prog[step+1])
		switch op {
		case 0: // a run of pushes
			for k := arg%8 + 1; k > 0; k-- {
				v := push()
				r.Push(v)
				want = append(want, v)
			}
		case 1: // a run of pops
			for k := arg%8 + 1; k > 0 && len(want) > 0; k-- {
				if got := r.Pop(); got != want[0] {
					t.Fatalf("step %d: popped %d, model %d", step/2, *got, *want[0])
				}
				want = want[1:]
				head++
			}
		case 2: // remove one, anywhere
			if len(want) > 0 {
				i := arg % len(want)
				if got := r.Remove(i); got != want[i] {
					t.Fatalf("step %d: Remove(%d) = %d, model %d", step/2, i, *got, *want[i])
				}
				want = slices.Delete(want, i, i+1)
				head++
			}
		case 3: // a window over the last n
			n := arg%16 + 1
			v := push()
			old, popped := r.PushLast(v, n)
			if len(want) >= n {
				if !popped || old != want[0] {
					t.Fatalf("step %d: PushLast over %d entries into a window of %d dropped %v, %v", step/2, len(want), n, old, popped)
				}
				want = want[1:]
				head++
			} else if popped {
				t.Fatalf("step %d: PushLast over %d entries into a window of %d dropped one", step/2, len(want), n)
			}
			want = append(want, v)
		case 4: // any absolute index: live exactly inside the window
			abs := uint64(arg)
			if in := abs >= head && abs < head+uint64(len(want)); (r.Live(abs) != nil) != in {
				t.Fatalf("step %d: Live(%d) = %v with the window at [%d, %d)", step/2, abs, r.Live(abs), head, head+uint64(len(want)))
			}
		}
		peak = max(peak, len(want))
		if r.Len() != len(want) || r.Head() != head {
			t.Fatalf("step %d (op %d): Len %d, Head %d; model %d, %d", step/2, op, r.Len(), r.Head(), len(want), head)
		}
		if got := r.AppendTo(nil); !slices.Equal(got, want) {
			t.Fatalf("step %d (op %d): ring holds %d entries out of order", step/2, op, len(got))
		}
		for i := range want {
			if r.Live(head+uint64(i)) != r.At(i) || *r.At(i) != want[i] {
				t.Fatalf("step %d: entry %d is not live at its absolute index %d", step/2, i, head+uint64(i))
			}
		}
		for abs := head - min(head, 4); abs < head; abs++ {
			if r.Live(abs) != nil {
				t.Fatalf("step %d: absolute index %d is live after it left", step/2, abs)
			}
		}
		if r.Live(head+uint64(len(want))) != nil || (head > 0 && r.Live(0) != nil) {
			t.Fatal("an index outside the window reported live")
		}
		live := 0
		for _, p := range r.slots {
			if p != nil {
				live++
			}
		}
		if live != len(want) {
			t.Fatalf("step %d (op %d): %d slots hold an entry, %d entries: a slot kept one that left", step/2, op, live, len(want))
		}
		if r.Cap() > max(4, 2*peak) {
			t.Fatalf("step %d: %d slots for at most %d entries", step/2, r.Cap(), peak)
		}
	}
}

// ringCases are the seed programs: the send-ring scenario (a wrapped
// window that grows 4 -> 16, then popped dry), removals at the front,
// the back and the middle of a wrapped window, and last-N windows that
// shrink.
var ringCases = []struct {
	name string
	prog []byte
}{
	{"grow across a wrapped window", []byte{0, 2, 1, 1, 0, 7, 0, 0, 1, 4, 0, 7, 0, 2, 4, 0, 1, 7, 1, 7}},
	{"remove front, back, middle", []byte{0, 5, 1, 2, 0, 3, 2, 0, 2, 4, 2, 2, 4, 0, 2, 9, 1, 7}},
	{"last-N windows", []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 1, 3, 0, 2, 0, 3, 15}},
}

func TestRingMatchesSliceModel(t *testing.T) {
	for _, tc := range ringCases {
		t.Run(tc.name, func(t *testing.T) { replayRing(t, tc.prog) })
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 500; i++ {
		prog := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(prog)
		replayRing(t, prog)
	}
}

func FuzzRing(f *testing.F) {
	for _, tc := range ringCases {
		f.Add(tc.prog)
	}
	f.Fuzz(replayRing)
}

// replayFreeList drives a FreeList and a stack through the program prog
// encodes, two bytes an operation: gets (a miss makes a fresh object),
// puts and abandons of objects in use. The list must hand back exactly
// the object the stack's top holds, and InUse must be taken − returned −
// abandoned.
func replayFreeList(t *testing.T, prog []byte) {
	t.Helper()
	var l FreeList[*int]
	var stack, out []*int
	taken, returned, abandoned := 0, 0, 0
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step]%4, int(prog[step+1])
		switch op {
		case 0, 1:
			got, ok := l.Get()
			taken++
			if len(stack) == 0 {
				if ok {
					t.Fatalf("step %d: Get on an empty list returned an object", step/2)
				}
				got = new(int)
			} else {
				if !ok || got != stack[len(stack)-1] {
					t.Fatalf("step %d: Get returned %p, %v; model %p", step/2, got, ok, stack[len(stack)-1])
				}
				stack = stack[:len(stack)-1]
			}
			out = append(out, got)
		case 2, 3:
			if len(out) == 0 {
				break
			}
			i := arg % len(out)
			v := out[i]
			out = slices.Delete(out, i, i+1)
			if op == 2 {
				l.Put(v)
				stack = append(stack, v)
				returned++
			} else {
				l.Abandon()
				abandoned++
			}
		}
		if l.InUse() != taken-returned-abandoned || l.InUse() != len(out) || l.Len() != len(stack) {
			t.Fatalf("step %d (op %d): InUse %d, Len %d; model %d, %d", step/2, op, l.InUse(), l.Len(), taken-returned-abandoned, len(stack))
		}
		for i, p := range l.free[len(l.free):cap(l.free)] {
			if p != nil {
				t.Fatalf("step %d: slot %d past the top still holds an object", step/2, len(l.free)+i)
			}
		}
	}
}

var freeListCases = [][]byte{
	{0, 0, 0, 0, 0, 0, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0},
	{0, 0, 0, 0, 3, 0, 2, 0, 0, 0, 0, 0, 3, 0, 2, 0},
}

func TestFreeListMatchesStackModel(t *testing.T) {
	for _, prog := range freeListCases {
		replayFreeList(t, prog)
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 500; i++ {
		prog := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(prog)
		replayFreeList(t, prog)
	}
}

func FuzzFreeList(f *testing.F) {
	for _, prog := range freeListCases {
		f.Add(prog)
	}
	f.Fuzz(replayFreeList)
}
