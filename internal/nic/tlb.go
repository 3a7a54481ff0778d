package nic

import (
	"container/list"

	"bcl/internal/mem"
)

// nicTLB is the on-board translation cache used in NICTranslated mode
// (the user-level architecture, as in U-Net and VMMC-2). It is small —
// NIC SRAM is scarce — so large working sets thrash it, which is
// exactly the paper's argument against NIC-side translation on
// large-memory SMP nodes.
type nicTLB struct {
	entries map[tlbKey]*list.Element
	lru     *list.List
}

// tlbEntries is the translation cache's size in pages.
const tlbEntries = 256

type tlbKey struct {
	space *mem.AddrSpace
	vpage int64
}

type tlbEntry struct {
	key  tlbKey
	phys mem.PAddr
}

func newNICTLB() *nicTLB {
	return &nicTLB{entries: make(map[tlbKey]*list.Element), lru: list.New()}
}

// lookup resolves one virtual page, reporting whether it hit the
// cache. On a miss the mapping is fetched from the host (the caller
// charges the miss penalty) and inserted.
func (t *nicTLB) lookup(space *mem.AddrSpace, vpage int64) (mem.PAddr, bool, error) {
	key := tlbKey{space: space, vpage: vpage}
	if el, ok := t.entries[key]; ok {
		t.lru.MoveToFront(el)
		return el.Value.(*tlbEntry).phys, true, nil
	}
	pa, err := space.Translate(mem.VAddr(vpage * int64(space.Mem().PageSize())))
	if err != nil {
		return 0, false, err
	}
	if t.lru.Len() >= tlbEntries {
		oldest := t.lru.Back()
		t.lru.Remove(oldest)
		delete(t.entries, oldest.Value.(*tlbEntry).key)
	}
	t.entries[key] = t.lru.PushFront(&tlbEntry{key: key, phys: pa})
	return pa, false, nil
}
