package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocReadWrite(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	va := as.Alloc(10000) // spans 3 pages
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.Write(va, data); err != nil {
		t.Fatal(err)
	}
	got, err := as.Read(va, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

func TestUnmappedFaults(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	if _, err := as.Read(0, 4); !errors.Is(err, ErrFault) {
		t.Fatalf("null read error = %v, want ErrFault", err)
	}
	if err := as.Write(1<<40, []byte{1}); !errors.Is(err, ErrFault) {
		t.Fatalf("wild write error = %v, want ErrFault", err)
	}
	va := as.Alloc(4096)
	// Crossing past the end of the allocation faults.
	if _, err := as.Read(va+4000, 200); !errors.Is(err, ErrFault) {
		t.Fatalf("overrun error = %v, want ErrFault", err)
	}
	if as.Mapped(va, 4096) != true || as.Mapped(va, 4097) != false {
		t.Fatal("Mapped bounds wrong")
	}
	// Addresses below zero and frames that were never allocated are
	// faults too, virtual and physical alike.
	if _, err := as.Translate(-8192); !errors.Is(err, ErrFault) {
		t.Fatalf("negative translate error = %v, want ErrFault", err)
	}
	if as.Mapped(-8192, 1) || as.Mapped(0, 1) {
		t.Fatal("page zero or a negative page reads as mapped")
	}
	for _, pa := range []PAddr{-1, -8192, 4096, 1 << 40} {
		if err := m.ReadPhys(pa, make([]byte, 1)); !errors.Is(err, ErrFault) {
			t.Fatalf("ReadPhys(%#x) = %v, want ErrFault", int64(pa), err)
		}
		if err := m.PinFrame(pa); !errors.Is(err, ErrFault) {
			t.Fatalf("PinFrame(%#x) = %v, want ErrFault", int64(pa), err)
		}
		if err := m.UnpinFrame(pa); err == nil {
			t.Fatalf("UnpinFrame(%#x) of a frame that does not exist succeeded", int64(pa))
		}
	}
}

func TestSegmentsSplitAndMerge(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	va := as.Alloc(3 * 4096)
	// Frames were allocated consecutively, so all three pages are
	// physically contiguous and must merge into one segment.
	segs, err := as.Segments(va, 3*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Len != 3*4096 {
		t.Fatalf("segments = %+v, want single merged segment", segs)
	}
	// An unaligned sub-range still covers the right bytes.
	segs, err = as.Segments(va+100, 5000)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range segs {
		total += s.Len
	}
	if total != 5000 {
		t.Fatalf("segment total = %d, want 5000", total)
	}
	// Zero-length gets one empty segment.
	segs, err = as.Segments(va, 0)
	if err != nil || len(segs) != 1 || segs[0].Len != 0 {
		t.Fatalf("zero-length segments = %+v, %v", segs, err)
	}
}

func TestSegmentsNonContiguous(t *testing.T) {
	m := NewMemory(4096)
	a := NewAddrSpace(m)
	b := NewAddrSpace(m)
	va1 := a.Alloc(4096)
	b.Alloc(4096) // steals the next frame
	a.Alloc(4096) // second region of a: physically discontiguous with the first
	_ = va1
	// Allocate a fresh two-page region in a; its pages ARE contiguous
	// with each other but this test pins the general mechanism: write
	// across the two a regions via virtual addressing and read back.
	data := make([]byte, 2*4096)
	for i := range data {
		data[i] = byte(i)
	}
	if err := a.Write(va1, data[:4096]); err != nil {
		t.Fatal(err)
	}
	got, err := a.Read(va1, 4096)
	if err != nil || !bytes.Equal(got, data[:4096]) {
		t.Fatal("cross-frame read-back failed")
	}
}

func TestIsolationBetweenSpaces(t *testing.T) {
	m := NewMemory(4096)
	a := NewAddrSpace(m)
	b := NewAddrSpace(m)
	va := a.Alloc(4096)
	vb := b.Alloc(4096)
	if err := a.Write(va, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read(vb, 6)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, []byte("secret")) {
		t.Fatal("address spaces share frames")
	}
}

func TestDMARequiresPin(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	va := as.Alloc(4096)
	pa, err := as.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("payload")
	if err := m.DMAWrite(pa, buf); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("DMA to unpinned = %v, want ErrNotPinned", err)
	}
	if err := m.PinFrame(pa); err != nil {
		t.Fatal(err)
	}
	if err := m.DMAWrite(pa, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(buf))
	if err := m.DMARead(pa, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, buf) {
		t.Fatal("DMA round-trip mismatch")
	}
	if err := m.UnpinFrame(pa); err != nil {
		t.Fatal(err)
	}
	if err := m.UnpinFrame(pa); err == nil {
		t.Fatal("double unpin succeeded")
	}
	now, max := m.PinnedPages()
	if now != 0 || max != 1 {
		t.Fatalf("pinned now/max = %d/%d, want 0/1", now, max)
	}
}

func TestPinTableHitMissEvict(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	va := as.Alloc(4 * 4096)
	pt := NewPinTable(2)
	page0 := int64(va) / 4096

	if _, hit, _, err := pt.Lookup(1, as, page0); err != nil || hit {
		t.Fatalf("first lookup hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, _, _ := pt.Lookup(1, as, page0); !hit {
		t.Fatal("second lookup missed")
	}
	pt.Lookup(1, as, page0+1)
	if _, _, evicted, _ := pt.Lookup(1, as, page0+2); !evicted { // capacity 2: evicts page0, the LRU entry
		t.Fatal("third distinct page did not report an eviction")
	}
	hits, misses, evict := pt.Stats()
	if hits != 1 || misses != 3 || evict != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/3/1", hits, misses, evict)
	}
	if _, hit, _, _ := pt.Lookup(1, as, page0+1); !hit {
		t.Fatal("recently used entry was evicted")
	}
	if _, hit, _, _ := pt.Lookup(1, as, page0); hit {
		t.Fatal("evicted entry still cached")
	}
	if now, _ := m.PinnedPages(); now != 2 {
		t.Fatalf("pinned frames = %d, want 2 (table capacity)", now)
	}
}

func TestPinTableInvalidate(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	va := as.Alloc(3 * 4096)
	pt := NewPinTable(0)
	base := int64(va) / 4096
	for i := int64(0); i < 3; i++ {
		pt.Lookup(9, as, base+i)
	}
	pt.Lookup(8, as, base) // second process shares the page: pin count 2
	if pt.Len() != 4 {
		t.Fatalf("len = %d, want 4", pt.Len())
	}
	if dropped := pt.Invalidate(9); dropped != 3 {
		t.Fatalf("invalidate dropped %d pages, want 3", dropped)
	}
	if pt.Len() != 1 {
		t.Fatalf("after invalidate len = %d, want 1", pt.Len())
	}
	if now, _ := m.PinnedPages(); now != 1 {
		t.Fatalf("pinned = %d, want 1 (pid 8 still holds one)", now)
	}
}

func TestPinTableUnmappedPage(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	pt := NewPinTable(0)
	if _, _, _, err := pt.Lookup(1, as, 99999); !errors.Is(err, ErrFault) {
		t.Fatalf("lookup of unmapped page = %v, want ErrFault", err)
	}
}

func TestPagesCount(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	va := as.Alloc(8192)
	cases := []struct {
		off, n, want int
	}{
		{0, 0, 1}, {0, 1, 1}, {0, 4096, 1}, {0, 4097, 2},
		{4095, 2, 2}, {100, 8000, 2},
	}
	for _, c := range cases {
		if got := as.Pages(va+VAddr(c.off), c.n); got != c.want {
			t.Errorf("Pages(+%d,%d) = %d, want %d", c.off, c.n, got, c.want)
		}
	}
}

// Property: write-then-read round-trips for arbitrary offsets/sizes.
func TestQuickReadWriteRoundTrip(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	va := as.Alloc(96 * 1024) // any uint16 offset plus 32 KB of data fits
	f := func(off uint16, data []byte) bool {
		if len(data) > 32*1024 {
			data = data[:32*1024]
		}
		target := va + VAddr(off)
		if err := as.Write(target, data); err != nil {
			return false
		}
		got, err := as.Read(target, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Segments always covers exactly n bytes with positive
// lengths (except the zero-length case) and respects page alignment.
func TestQuickSegmentsCoverage(t *testing.T) {
	m := NewMemory(4096)
	as := NewAddrSpace(m)
	va := as.Alloc(128 * 1024)
	f := func(off uint16, nRaw uint32) bool {
		n := int(nRaw % (64 * 1024))
		segs, err := as.Segments(va+VAddr(off), n)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range segs {
			if n > 0 && s.Len <= 0 {
				return false
			}
			total += s.Len
		}
		if n == 0 {
			return len(segs) == 1 && segs[0].Len == 0
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
