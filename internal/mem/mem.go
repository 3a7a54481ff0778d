// Package mem models host physical memory and per-process virtual
// address spaces with real byte storage. DMA engines and the kernel's
// pin-down machinery operate on these structures, so data integrity is
// testable end to end: what the NIC DMAs out of one process's pages is
// byte-for-byte what lands in the peer's.
//
// The model is deliberately simple — 4 KB pages, frames that store the
// lower half of their page until a write reaches past it, a bump
// allocator per address space — but translation, bounds checking and
// pinning are real: an unmapped access faults, and DMA is only legal
// against pinned frames.
package mem

import (
	"errors"
	"fmt"
)

// VAddr is a virtual address within one process's address space.
type VAddr int64

// PAddr is a physical (bus) address within one node's memory.
type PAddr int64

// ErrFault is returned for accesses to unmapped virtual addresses.
var ErrFault = errors.New("mem: page fault: address not mapped")

// ErrNotPinned is returned when DMA touches an unpinned frame.
var ErrNotPinned = errors.New("mem: DMA to unpinned frame")

// Memory is one node's physical memory: a set of page frames addressed
// by physical address. Frames are numbered in allocation order, so the
// frame number indexes both tables.
//
// A frame is allocated storing the lower half of its page and gets the
// whole page, once, on the first write that reaches the upper half; a
// read past a frame's storage returns zeros. The split is half a page
// because that is where the bytes are. Preposted eager buffers are
// whole pages, but on the 70-node MPI halo no written page holds data
// past its first 1 KB (512 B halos, 1 KB Allreduce fragments), and a
// service epoch writes 9 of its 1 600 frames past 1 KB and none past
// 2 KB; bulk payloads fill their pages and grow once, on first use.
// The halo workload peaks at 37-39 MB resident instead of 50-56 MB
// (Go 1.24, x86-64 Linux). A quarter page would make service frames
// grow while requests run, and allocating on first write would move
// every buffer pool's allocation there: either raises the service
// workloads' allocations per request.
type Memory struct {
	pageSize int
	frames   [][]byte // frame number -> stored page prefix: half or all of it
	pinned   []int32  // frame number -> pin count
}

// NewMemory returns an empty physical memory with the given page size.
func NewMemory(pageSize int) *Memory {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d not a positive power of two", pageSize))
	}
	return &Memory{pageSize: pageSize}
}

// PageSize returns the page size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// allocFrame grabs a fresh physical frame and returns its number.
func (m *Memory) allocFrame() int64 {
	m.frames = append(m.frames, make([]byte, m.pageSize/2))
	m.pinned = append(m.pinned, 0)
	return int64(len(m.frames) - 1)
}

// frameOf splits pa into frame number and offset; ok is false if no
// such frame exists.
func (m *Memory) frameOf(pa PAddr) (frame int64, off int, ok bool) {
	frame, off = int64(pa)/int64(m.pageSize), int(int64(pa)%int64(m.pageSize))
	return frame, off, pa >= 0 && frame < int64(len(m.frames))
}

// load copies page bytes [off, off+len(b)) of frame into b, which must
// not run past the page end. Bytes past the frame's storage read as
// zeros.
func (m *Memory) load(frame int64, off int, b []byte) {
	n := 0
	if page := m.frames[frame]; off < len(page) {
		n = copy(b, page[off:])
	}
	clear(b[n:])
}

// store returns page bytes [off, off+n) of frame for writing, n > 0 and
// within the page. A frame whose storage ends before off+n first gets
// the whole page: one allocation and a copy of the half it held.
func (m *Memory) store(frame int64, off, n int) []byte {
	page := m.frames[frame]
	if off+n > len(page) {
		full := make([]byte, m.pageSize)
		copy(full, page)
		m.frames[frame], page = full, full
	}
	return page[off : off+n]
}

// DMARead copies len(buf) bytes starting at physical address pa into
// buf. Every touched frame must exist and be pinned, as real DMA
// requires.
func (m *Memory) DMARead(pa PAddr, buf []byte) error { return m.physOp(pa, buf, true, false) }

// DMAWrite copies buf into physical memory starting at pa. Every
// touched frame must be pinned.
func (m *Memory) DMAWrite(pa PAddr, buf []byte) error { return m.physOp(pa, buf, true, true) }

// physOp moves buf to (write) or from physical memory at pa, frame by
// frame, failing at the first frame that is missing or, when needPin,
// unpinned.
func (m *Memory) physOp(pa PAddr, buf []byte, needPin, write bool) error {
	for done := 0; done < len(buf); {
		frame, off, ok := m.frameOf(pa + PAddr(done))
		if !ok {
			return fmt.Errorf("%w: phys %#x", ErrFault, int64(pa)+int64(done))
		}
		if needPin && m.pinned[frame] == 0 {
			return fmt.Errorf("%w: frame %d", ErrNotPinned, frame)
		}
		b := buf[done:min(done+m.pageSize-off, len(buf))]
		if write {
			copy(m.store(frame, off, len(b)), b)
		} else {
			m.load(frame, off, b)
		}
		done += len(b)
	}
	return nil
}

// PinFrame increments the pin count of the frame containing pa.
func (m *Memory) PinFrame(pa PAddr) error {
	frame, _, ok := m.frameOf(pa)
	if !ok {
		return fmt.Errorf("%w: phys %#x", ErrFault, int64(pa))
	}
	m.pinned[frame]++
	return nil
}

// UnpinFrame decrements the pin count of the frame containing pa.
func (m *Memory) UnpinFrame(pa PAddr) error {
	frame, _, ok := m.frameOf(pa)
	if !ok || m.pinned[frame] == 0 {
		return fmt.Errorf("mem: unpin of unpinned frame %d", frame)
	}
	m.pinned[frame]--
	return nil
}

// AddrSpace is one process's virtual address space: a page table over
// a Memory plus a bump allocator. Virtual address 0 is kept unmapped
// so it can serve as a null pointer in tests.
type AddrSpace struct {
	mem   *Memory
	table []int64 // virtual page -> physical frame, -1 if unmapped
	brk   VAddr
}

// NewAddrSpace returns an empty address space over mem.
func NewAddrSpace(mem *Memory) *AddrSpace {
	return &AddrSpace{
		mem:   mem,
		table: []int64{-1},         // page zero
		brk:   VAddr(mem.pageSize), // skip page zero
	}
}

// frame returns the physical frame backing virtual page vpage, -1 if
// the page is not mapped.
func (a *AddrSpace) frame(vpage int64) int64 {
	if vpage < 0 || vpage >= int64(len(a.table)) {
		return -1
	}
	return a.table[vpage]
}

// Mem returns the underlying physical memory.
func (a *AddrSpace) Mem() *Memory { return a.mem }

// Alloc maps n bytes of fresh zeroed memory and returns its base
// virtual address. The region is page-aligned and contiguous in
// virtual space (physical frames are arbitrary, as on a real machine).
func (a *AddrSpace) Alloc(n int) VAddr {
	if n <= 0 {
		n = 1
	}
	base := a.brk
	pages := (n + a.mem.pageSize - 1) / a.mem.pageSize
	for i := 0; i < pages; i++ {
		a.table = append(a.table, a.mem.allocFrame()) // brk is the table's end
	}
	a.brk += VAddr(pages * a.mem.pageSize)
	return base
}

// Mapped reports whether the whole range [va, va+n) is mapped.
func (a *AddrSpace) Mapped(va VAddr, n int) bool {
	_, hole := a.unmapped(va, n)
	return !hole
}

// unmapped finds the first address of [va, va+n) that lies on an
// unmapped page. A zero-length range is its base: it still needs a
// mapped page, as a zero-length message still needs a descriptor slot.
func (a *AddrSpace) unmapped(va VAddr, n int) (at VAddr, found bool) {
	if n <= 0 {
		n = 1
	}
	ps := int64(a.mem.pageSize)
	first, last := int64(va)/ps, (int64(va)+int64(n)-1)/ps
	for p := first; p <= last; p++ {
		if a.frame(p) < 0 {
			if p > first {
				va = VAddr(p * ps)
			}
			return va, true
		}
	}
	return 0, false
}

// Translate returns the physical address backing va, or ErrFault.
func (a *AddrSpace) Translate(va VAddr) (PAddr, error) {
	vpage := int64(va) / int64(a.mem.pageSize)
	off := int64(va) % int64(a.mem.pageSize)
	frame := a.frame(vpage)
	if frame < 0 {
		return 0, fmt.Errorf("%w: virt %#x", ErrFault, int64(va))
	}
	return PAddr(frame*int64(a.mem.pageSize) + off), nil
}

// Segment is a physically contiguous piece of a translated buffer:
// what a scatter/gather DMA descriptor entry holds.
type Segment struct {
	Phys PAddr
	Len  int
}

// Segments translates the virtual range [va, va+n) into a list of
// physical segments, splitting at page boundaries.
func (a *AddrSpace) Segments(va VAddr, n int) ([]Segment, error) {
	if n <= 0 {
		// Zero-length messages still need one (empty) descriptor slot;
		// translate the base for validity.
		pa, err := a.Translate(va)
		if err != nil {
			return nil, err
		}
		return []Segment{{Phys: pa, Len: 0}}, nil
	}
	var segs []Segment
	done := 0
	for done < n {
		pa, err := a.Translate(va + VAddr(done))
		if err != nil {
			return nil, err
		}
		off := int(int64(pa) % int64(a.mem.pageSize))
		chunk := a.mem.pageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		// Merge physically contiguous pages into one segment.
		if len(segs) > 0 && segs[len(segs)-1].Phys+PAddr(segs[len(segs)-1].Len) == pa {
			segs[len(segs)-1].Len += chunk
		} else {
			segs = append(segs, Segment{Phys: pa, Len: chunk})
		}
		done += chunk
	}
	return segs, nil
}

// fault returns ErrFault naming the first unmapped address of
// [va, va+n), nil if the whole range is mapped.
func (a *AddrSpace) fault(va VAddr, n int) error {
	if at, hole := a.unmapped(va, n); hole {
		return fmt.Errorf("%w: virt %#x", ErrFault, int64(at))
	}
	return nil
}

// span returns the frame and page offset of the mapped address va, and
// how many of the next n bytes lie on its page.
func (a *AddrSpace) span(va VAddr, n int) (frame int64, off, k int) {
	ps := int64(a.mem.pageSize)
	off = int(int64(va) % ps)
	return a.table[int64(va)/ps], off, min(a.mem.pageSize-off, n)
}

// Read copies n bytes at virtual address va into a new slice.
func (a *AddrSpace) Read(va VAddr, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := a.ReadInto(va, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto copies len(buf) bytes at virtual address va into buf: Read
// for a caller that owns the storage.
func (a *AddrSpace) ReadInto(va VAddr, buf []byte) error {
	if err := a.fault(va, len(buf)); err != nil {
		return err
	}
	for done := 0; done < len(buf); {
		frame, off, k := a.span(va+VAddr(done), len(buf)-done)
		a.mem.load(frame, off, buf[done:done+k])
		done += k
	}
	return nil
}

// Write copies buf into the address space at va. The whole range is
// checked first: a fault anywhere in it leaves memory untouched.
func (a *AddrSpace) Write(va VAddr, buf []byte) error {
	if err := a.fault(va, len(buf)); err != nil {
		return err
	}
	for done := 0; done < len(buf); {
		frame, off, k := a.span(va+VAddr(done), len(buf)-done)
		copy(a.mem.store(frame, off, k), buf[done:])
		done += k
	}
	return nil
}

// Copy moves n bytes from src to dst within the address space, page to
// page, with the outcome of a Read of src followed by a Write to dst:
// a fault on either side leaves memory untouched, and dst receives the
// bytes src held before the call even where the ranges overlap.
func (a *AddrSpace) Copy(dst, src VAddr, n int) error {
	if err := a.fault(src, n); err != nil {
		return err
	}
	if err := a.fault(dst, n); err != nil {
		return err
	}
	if src < dst+VAddr(n) && dst < src+VAddr(n) {
		// Overlap: a page-wise copy could read bytes it has already
		// written, so take the snapshot.
		buf, _ := a.Read(src, n)
		return a.Write(dst, buf)
	}
	for done := 0; done < n; {
		from, foff, k := a.span(src+VAddr(done), n-done)
		to, toff, kt := a.span(dst+VAddr(done), k)
		// store first: when both ranges share a page, load must read
		// the storage store may have just replaced.
		a.mem.load(from, foff, a.mem.store(to, toff, kt))
		done += kt
	}
	return nil
}
