package mem

// PinTable is the kernel's pin-down buffer page table: a cache of
// pinned virtual-to-physical translations keyed by (process, virtual
// page). On the semi-user-level send path the kernel looks the buffer
// pages up here; a hit means the page is already pinned and translated
// (cheap), a miss walks the page table, pins the frame, and inserts
// the entry, evicting (and unpinning) the least recently used entry if
// the table is full.
//
// This is the paper's argument for kernel-side translation: the host
// has enough memory for a big table, unlike the NIC's small SRAM. And a
// big table in a kernel is arrays: index[pid][vpage] names an entry of
// one arena, and the LRU order is a list threaded through the arena by
// entry number, so a lookup hashes nothing and a warm table allocates
// nothing. Both grow on demand, the index to the highest page a process
// has had pinned and the arena to the most entries ever live.
type PinTable struct {
	capacity int
	index    [][]int32  // pid -> vpage -> entry number, 0 if not cached
	entries  []pinEntry // entries[0] is the LRU list's head: next = most recent, prev = least
	free     int32      // spare entries, chained through next; 0 = none
	n        int
}

type pinEntry struct {
	pid        int
	vpage      int64
	phys       PAddr // physical base of the frame
	space      *AddrSpace
	prev, next int32
}

// NewPinTable returns a pin-down table holding at most capacity page
// entries (capacity <= 0 means unbounded, as a host-resident table
// effectively is).
func NewPinTable(capacity int) *PinTable {
	return &PinTable{capacity: capacity, entries: make([]pinEntry, 1)}
}

// slot returns where the index keeps the entry number of (pid, vpage),
// nil if the index does not reach that far.
func (t *PinTable) slot(pid int, vpage int64) *int32 {
	if uint(pid) >= uint(len(t.index)) || uint64(vpage) >= uint64(len(t.index[pid])) {
		return nil
	}
	return &t.index[pid][vpage]
}

func (t *PinTable) unlink(e int32) {
	ent := &t.entries[e]
	t.entries[ent.prev].next, t.entries[ent.next].prev = ent.next, ent.prev
}

func (t *PinTable) pushFront(e int32) {
	first := t.entries[0].next
	t.entries[e].prev, t.entries[e].next = 0, first
	t.entries[first].prev, t.entries[0].next = e, e
}

// Lookup resolves one virtual page of a process's buffer. It returns
// the physical base address of the frame, whether the lookup hit the
// cache, and whether a full table forced the LRU entry out (the
// caller charges the unpin cost on top of the miss). On a miss it
// walks the page table, pins the frame and caches the translation.
func (t *PinTable) Lookup(pid int, space *AddrSpace, vpage int64) (pa PAddr, hit, evicted bool, err error) {
	if s := t.slot(pid, vpage); s != nil && *s != 0 {
		if e := *s; t.entries[0].next != e {
			t.unlink(e)
			t.pushFront(e)
		}
		return t.entries[*s].phys, true, false, nil
	}
	pa, err = space.Translate(VAddr(vpage * int64(space.mem.pageSize)))
	if err != nil {
		return 0, false, false, err
	}
	if err := space.mem.PinFrame(pa); err != nil {
		return 0, false, false, err
	}
	if t.capacity > 0 && t.n >= t.capacity {
		t.drop(t.entries[0].prev)
		evicted = true
	}
	e := t.free
	if e != 0 {
		t.free = t.entries[e].next
	} else {
		t.entries = append(t.entries, pinEntry{})
		e = int32(len(t.entries) - 1)
	}
	t.entries[e] = pinEntry{pid: pid, vpage: vpage, phys: pa, space: space}
	t.pushFront(e)
	t.n++
	// The page translated, so vpage is a mapped page of space: the index
	// grows no further than the address spaces themselves.
	if pid >= len(t.index) {
		t.index = append(t.index, make([][]int32, pid+1-len(t.index))...)
	}
	if pages := t.index[pid]; vpage >= int64(len(pages)) {
		t.index[pid] = append(pages, make([]int32, vpage+1-int64(len(pages)))...)
	}
	t.index[pid][vpage] = e
	return pa, false, evicted, nil
}

// drop removes entry e from the table and unpins its frame.
func (t *PinTable) drop(e int32) {
	ent := &t.entries[e]
	t.unlink(e)
	t.index[ent.pid][ent.vpage] = 0
	// Best effort: the frame was pinned by us, so unpin cannot fail.
	_ = ent.space.mem.UnpinFrame(ent.phys)
	*ent = pinEntry{next: t.free}
	t.free = e
	t.n--
}

// Invalidate drops every entry belonging to pid (process exit),
// unpinning the frames. It returns how many pages were unpinned.
func (t *PinTable) Invalidate(pid int) int {
	dropped := 0
	for e := t.entries[0].next; e != 0; {
		next := t.entries[e].next
		if t.entries[e].pid == pid {
			t.drop(e)
			dropped++
		}
		e = next
	}
	if uint(pid) < uint(len(t.index)) {
		t.index[pid] = nil
	}
	return dropped
}

// Len returns the number of cached (pinned) pages.
func (t *PinTable) Len() int { return t.n }
