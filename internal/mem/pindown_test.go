package mem

import (
	"container/list"
	"errors"
	"math/rand"
	"testing"
)

// pinModel is the pin-down table as it was before it became arrays: a
// map keyed by (pid, vpage) over a container/list LRU. It is the model
// the dense PinTable is replayed against.
type pinModel struct {
	capacity int
	entries  map[pinKey]*list.Element
	lru      *list.List // front = most recent; values are *pinModelEntry
}

type pinKey struct {
	pid   int
	vpage int64
}

type pinModelEntry struct {
	key   pinKey
	phys  PAddr
	space *AddrSpace
}

func newPinModel(capacity int) *pinModel {
	return &pinModel{capacity: capacity, entries: make(map[pinKey]*list.Element), lru: list.New()}
}

func (t *pinModel) Lookup(pid int, space *AddrSpace, vpage int64) (pa PAddr, hit, evicted bool, err error) {
	key := pinKey{pid: pid, vpage: vpage}
	if el, ok := t.entries[key]; ok {
		t.lru.MoveToFront(el)
		return el.Value.(*pinModelEntry).phys, true, false, nil
	}
	pa, err = space.Translate(VAddr(vpage * int64(space.mem.pageSize)))
	if err != nil {
		return 0, false, false, err
	}
	if err := space.mem.PinFrame(pa); err != nil {
		return 0, false, false, err
	}
	if t.capacity > 0 && t.lru.Len() >= t.capacity {
		el := t.lru.Back()
		e := el.Value.(*pinModelEntry)
		t.lru.Remove(el)
		delete(t.entries, e.key)
		_ = e.space.mem.UnpinFrame(e.phys)
		evicted = true
	}
	t.entries[key] = t.lru.PushFront(&pinModelEntry{key: key, phys: pa, space: space})
	return pa, false, evicted, nil
}

func (t *pinModel) Invalidate(pid int) int {
	dropped := 0
	for el := t.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*pinModelEntry); e.key.pid == pid {
			t.lru.Remove(el)
			delete(t.entries, e.key)
			_ = e.space.mem.UnpinFrame(e.phys)
			dropped++
		}
		el = next
	}
	return dropped
}

// replayPinTable drives a PinTable and the model through the operation
// sequence prog encodes — three bytes an operation — over identical
// twin memories, and compares every result, the population and every
// frame's pin count after each step. Processes 0-2
// own an address space each and process 3 shares process 0's, so one
// frame can be pinned under two keys.
func replayPinTable(t *testing.T, capacity int, prog []byte) {
	t.Helper()
	const spaces, pages = 3, 12
	build := func() (*Memory, []*AddrSpace) {
		m := NewMemory(4096)
		as := make([]*AddrSpace, spaces)
		for i := range as {
			as[i] = NewAddrSpace(m)
			as[i].Alloc((pages - 2*i) * 4096)
		}
		return m, append(as, as[0])
	}
	gotMem, gotAS := build()
	wantMem, wantAS := build()
	got, want := NewPinTable(capacity), newPinModel(capacity)
	for step := 0; step+2 < len(prog); step += 3 {
		op, pid, arg := prog[step], int(prog[step+1])%len(gotAS), prog[step+2]
		if op%8 == 7 {
			if g, w := got.Invalidate(pid), want.Invalidate(pid); g != w {
				t.Fatalf("step %d: Invalidate(%d) dropped %d, model %d", step/3, pid, g, w)
			}
		} else {
			// Pages 0 and 13+ are unmapped everywhere, the tail of the
			// smaller spaces too: a faulting lookup must change nothing.
			vpage := int64(arg%(pages+3)) - 1 + int64(op%2)
			gpa, ghit, gev, gerr := got.Lookup(pid, gotAS[pid], vpage)
			wpa, whit, wev, werr := want.Lookup(pid, wantAS[pid], vpage)
			if gpa != wpa || ghit != whit || gev != wev || (gerr == nil) != (werr == nil) || errors.Is(gerr, ErrFault) != errors.Is(werr, ErrFault) {
				t.Fatalf("step %d: Lookup(%d, %d) = (%#x, %v, %v, %v), model (%#x, %v, %v, %v)",
					step/3, pid, vpage, gpa, ghit, gev, gerr, wpa, whit, wev, werr)
			}
		}
		if got.Len() != want.lru.Len() {
			t.Fatalf("step %d: len %d, model %d", step/3, got.Len(), want.lru.Len())
		}
		for f := range wantMem.pinned {
			if gotMem.pinned[f] != wantMem.pinned[f] {
				t.Fatalf("step %d: frame %d pinned %d times, model %d", step/3, f, gotMem.pinned[f], wantMem.pinned[f])
			}
		}
	}
}

func TestPinTableMatchesMapModel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		prog     []byte
	}{
		{"hit after miss", 4, []byte{0, 0, 2, 0, 0, 2}},
		{"evict in LRU order", 2, []byte{0, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0, 4, 0, 0, 3}},
		{"fault leaves no entry", 2, []byte{0, 0, 0, 0, 0, 14, 0, 2, 9}},
		{"shared space, two keys", 0, []byte{0, 0, 2, 0, 3, 2, 7, 0, 0, 0, 3, 2}},
		{"invalidate frees capacity", 2, []byte{0, 1, 2, 0, 2, 2, 7, 1, 0, 0, 0, 2, 0, 0, 3}},
		{"evicted slot reused", 1, []byte{0, 0, 2, 0, 1, 2, 0, 0, 2, 0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) { replayPinTable(t, tc.capacity, tc.prog) })
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1500; i++ {
		prog := make([]byte, 3*(1+rng.Intn(120)))
		rng.Read(prog)
		replayPinTable(t, rng.Intn(7), prog) // 0 = unbounded
	}
}

func FuzzPinTable(f *testing.F) {
	f.Add(uint8(2), []byte{0, 0, 2, 0, 0, 3, 0, 0, 4, 7, 0, 0})
	f.Add(uint8(0), []byte{0, 0, 2, 0, 3, 2, 7, 3, 0})
	f.Fuzz(func(t *testing.T, capacity uint8, prog []byte) {
		replayPinTable(t, int(capacity%9), prog)
	})
}

// BenchmarkPinTableLookup is the send path's per-page cost: a hit (the
// warm steady state) and a miss that evicts (a buffer walked once that
// is larger than the table).
func BenchmarkPinTableLookup(b *testing.B) {
	const pages = 256
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	base := int64(as.Alloc(pages*4096)) / 4096
	b.Run("hit", func(b *testing.B) {
		pt := NewPinTable(8192)
		for i := int64(0); i < pages; i++ {
			pt.Lookup(101, as, base+i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt.Lookup(101, as, base+int64(i%pages))
		}
	})
	b.Run("miss+evict", func(b *testing.B) {
		pt := NewPinTable(pages / 2)
		for i := int64(0); i < pages; i++ {
			pt.Lookup(101, as, base+i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt.Lookup(101, as, base+int64(i%pages))
		}
	})
}
