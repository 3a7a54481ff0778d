package oskernel

import (
	"errors"
	"testing"

	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/sim"
)

func newKernel() (*sim.Env, *Kernel) {
	env := sim.NewEnv(1)
	prof := hw.DAWNING3000()
	m := mem.NewMemory(prof.PageSize)
	return env, New(env, prof, 0, m)
}

func TestTrapChargesAndCounts(t *testing.T) {
	env, k := newKernel()
	prof := k.prof
	var inKernelAt, afterAt sim.Time
	env.Go("p", func(p *sim.Proc) {
		start := p.Now()
		err := k.Trap(p, func() error {
			inKernelAt = p.Now() - start
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		afterAt = p.Now() - start
	})
	env.Run()
	if inKernelAt != prof.TrapEnter+prof.IoctlDispatch {
		t.Fatalf("entry cost = %d, want %d", inKernelAt, prof.TrapEnter+prof.IoctlDispatch)
	}
	if afterAt != prof.TrapEnter+prof.IoctlDispatch+prof.TrapExit {
		t.Fatalf("total cost = %d", afterAt)
	}
	if s := k.Stats(); s.Traps != 1 || s.Ioctls != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTrapPropagatesError(t *testing.T) {
	env, k := newKernel()
	sentinel := errors.New("boom")
	var got error
	env.Go("p", func(p *sim.Proc) {
		got = k.Trap(p, func() error { return sentinel })
	})
	env.Run()
	if got != sentinel {
		t.Fatalf("err = %v", got)
	}
}

func TestCheckRequestValidation(t *testing.T) {
	env, k := newKernel()
	proc := k.Spawn()
	va := proc.Space.Alloc(4096)
	env.Go("p", func(p *sim.Proc) {
		// Good request.
		if err := k.CheckRequest(p, proc.PID, va, 100, 1, 4); err != nil {
			t.Errorf("valid request rejected: %v", err)
		}
		// Unknown PID.
		if err := k.CheckRequest(p, 424242, va, 100, 1, 4); !errors.Is(err, ErrBadPID) {
			t.Errorf("bad pid error = %v", err)
		}
		// Unmapped buffer.
		if err := k.CheckRequest(p, proc.PID, 1<<40, 100, 1, 4); !errors.Is(err, ErrBadBuffer) {
			t.Errorf("bad buffer error = %v", err)
		}
		// Buffer overruns its mapping.
		if err := k.CheckRequest(p, proc.PID, va, 8192, 1, 4); !errors.Is(err, ErrBadBuffer) {
			t.Errorf("overrun error = %v", err)
		}
		// Bad node.
		if err := k.CheckRequest(p, proc.PID, va, 100, 9, 4); !errors.Is(err, ErrBadTarget) {
			t.Errorf("bad node error = %v", err)
		}
		if err := k.CheckRequest(p, proc.PID, va, 100, -1, 4); !errors.Is(err, ErrBadTarget) {
			t.Errorf("negative node error = %v", err)
		}
	})
	env.Run()
	if s := k.Stats(); s.SecurityRejects != 5 {
		t.Fatalf("rejects = %d, want 5", s.SecurityRejects)
	}
}

func TestTranslateAndPinCosts(t *testing.T) {
	env, k := newKernel()
	prof := k.prof
	proc := k.Spawn()
	va := proc.Space.Alloc(3 * 4096)
	env.Go("p", func(p *sim.Proc) {
		start := p.Now()
		segs, err := k.TranslateAndPin(p, proc.PID, proc.Space, va, 3*4096, nil)
		if err != nil {
			t.Error(err)
			return
		}
		cold := p.Now() - start
		want := 3 * (prof.TranslateMiss + prof.PinPage)
		if cold != want {
			t.Errorf("cold translate = %d, want %d", cold, want)
		}
		total := 0
		for _, s := range segs {
			total += s.Len
		}
		if total != 3*4096 {
			t.Errorf("segments cover %d bytes", total)
		}
		// Second pass: all hits.
		start = p.Now()
		if _, err := k.TranslateAndPin(p, proc.PID, proc.Space, va, 3*4096, nil); err != nil {
			t.Error(err)
		}
		warm := p.Now() - start
		if warm != 3*prof.TranslateHit {
			t.Errorf("warm translate = %d, want %d", warm, 3*prof.TranslateHit)
		}
	})
	env.Run()
	if s := k.Stats(); s.PagesPinned != 3 {
		t.Fatalf("pages pinned = %d, want 3", s.PagesPinned)
	}
}

func TestZeroLengthTranslate(t *testing.T) {
	env, k := newKernel()
	proc := k.Spawn()
	va := proc.Space.Alloc(64)
	env.Go("p", func(p *sim.Proc) {
		segs, err := k.TranslateAndPin(p, proc.PID, proc.Space, va, 0, nil)
		if err != nil || len(segs) != 1 || segs[0].Len != 0 {
			t.Errorf("zero-length = %+v, %v", segs, err)
		}
	})
	env.Run()
}

// TranslateAndPin appends: a contiguous buffer lands in the storage the
// caller handed in (a descriptor's inline segment), a discontiguous one
// spills past it, and entries already in the list are left alone, even
// one the new range happens to continue.
func TestTranslateAndPinAppends(t *testing.T) {
	env, k := newKernel()
	proc, other := k.Spawn(), k.Spawn()
	a := proc.Space.Alloc(2 * 4096)
	other.Space.Alloc(4096) // takes the next frame
	b := proc.Space.Alloc(4096)
	env.Go("p", func(p *sim.Proc) {
		var inline [1]mem.Segment
		segs, err := k.TranslateAndPin(p, proc.PID, proc.Space, a+100, 8000, inline[:0])
		if err != nil || len(segs) != 1 || &segs[0] != &inline[0] || segs[0].Len != 8000 {
			t.Errorf("contiguous range = %+v, %v; want one 8000-byte segment in the caller's array", segs, err)
		}
		if n := testing.AllocsPerRun(10, func() {
			k.TranslateAndPin(p, proc.PID, proc.Space, a, 8192, inline[:0])
		}); n != 0 {
			t.Errorf("a warm translation into the caller's segment allocates %v times", n)
		}
		// a's two pages and b are adjacent in virtual space only.
		segs, err = k.TranslateAndPin(p, proc.PID, proc.Space, a, 3*4096, inline[:0])
		if err != nil || len(segs) != 2 || segs[0].Len != 8192 || segs[1].Len != 4096 {
			t.Errorf("discontiguous range = %+v, %v; want 8192 + 4096", segs, err)
		}
		first := segs[0]
		segs, err = k.TranslateAndPin(p, proc.PID, proc.Space, b, 0, segs[:1])
		if err != nil || len(segs) != 2 || segs[0] != first || segs[1].Len != 0 {
			t.Errorf("zero-length append = %+v, %v", segs, err)
		}
		half, _ := proc.Space.Translate(a)
		segs, err = k.TranslateAndPin(p, proc.PID, proc.Space, a+4096, 4096, []mem.Segment{{Phys: half, Len: 4096}})
		if err != nil || len(segs) != 2 || segs[0].Len != 4096 || segs[1].Len != 4096 {
			t.Errorf("append after a physically adjacent entry = %+v, %v; want it left unmerged", segs, err)
		}
	})
	env.Run()
}

// pinnedPages counts the pinned frames under n pages of space from va:
// DMA reads only a pinned frame.
func pinnedPages(m *mem.Memory, space *mem.AddrSpace, va mem.VAddr, n int) int {
	pinned := 0
	for i := range n {
		pa, err := space.Translate(va + mem.VAddr(i*m.PageSize()))
		if err == nil && m.DMARead(pa, make([]byte, 1)) == nil {
			pinned++
		}
	}
	return pinned
}

func TestExitInvalidatesPins(t *testing.T) {
	env, k := newKernel()
	proc := k.Spawn()
	va := proc.Space.Alloc(2 * 4096)
	m := proc.Space.Mem()
	env.Go("p", func(p *sim.Proc) {
		if _, err := k.TranslateAndPin(p, proc.PID, proc.Space, va, 2*4096, nil); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if now := pinnedPages(m, proc.Space, va, 2); now != 2 {
		t.Fatalf("pinned before exit = %d", now)
	}
	k.Exit(proc)
	if now := pinnedPages(m, proc.Space, va, 2); now != 0 {
		t.Fatalf("pinned after exit = %d, want 0", now)
	}
}

func TestPIOFillCostScalesWithSegments(t *testing.T) {
	_, k := newKernel()
	prof := k.prof
	one := k.PIOFillCost(15, 1)
	three := k.PIOFillCost(15, 3)
	if one != 15*prof.PIOWriteWord {
		t.Fatalf("1-seg cost = %d", one)
	}
	if three != one+4*prof.PIOWriteWord {
		t.Fatalf("3-seg cost = %d, want +4 words", three)
	}
}

func TestInterruptDispatch(t *testing.T) {
	env, k := newKernel()
	prof := k.prof
	var handlerAt, doneAt sim.Time
	k.Interrupt("test-isr", func(p *sim.Proc) {
		handlerAt = p.Now()
		p.Sleep(100)
	})
	end := env.Run()
	doneAt = end
	if handlerAt != prof.InterruptEnter {
		t.Fatalf("handler ran at %d, want after entry cost %d", handlerAt, prof.InterruptEnter)
	}
	if doneAt != prof.InterruptEnter+100+prof.InterruptHandle {
		t.Fatalf("isr finished at %d", doneAt)
	}
	if s := k.Stats(); s.Interrupts != 1 {
		t.Fatalf("interrupts = %d", s.Interrupts)
	}
}

func TestEndpointOwnership(t *testing.T) {
	_, k := newKernel()
	a, b := k.Spawn(), k.Spawn()
	if err := k.BindEndpoint(a.PID, 1); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := k.CheckEndpointOwner(a.PID, 1); err != nil {
		t.Fatalf("owner check on own endpoint: %v", err)
	}
	// Unknown process.
	if err := k.BindEndpoint(424242, 2); !errors.Is(err, ErrBadPID) {
		t.Fatalf("bind by unknown pid = %v, want ErrBadPID", err)
	}
	// Endpoint already bound to someone else.
	if err := k.BindEndpoint(b.PID, 1); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("double bind = %v, want ErrNotOwner", err)
	}
	// Request naming a foreign endpoint.
	if err := k.CheckEndpointOwner(b.PID, 1); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign endpoint check = %v, want ErrNotOwner", err)
	}
	// Request naming an endpoint nobody allocated.
	if err := k.CheckEndpointOwner(a.PID, 9); !errors.Is(err, ErrBadTarget) {
		t.Fatalf("unbound endpoint check = %v, want ErrBadTarget", err)
	}
	if got := k.Stats().SecurityRejects; got != 4 {
		t.Fatalf("security rejects = %d, want 4", got)
	}
	// Teardown makes the endpoint reallocatable.
	if k.EndpointOwner(1) != a.PID {
		t.Fatalf("owner = %d, want %d", k.EndpointOwner(1), a.PID)
	}
	k.ClosePort(1)
	if k.EndpointOwner(1) != 0 {
		t.Fatalf("owner after close = %d, want 0", k.EndpointOwner(1))
	}
	if err := k.BindEndpoint(b.PID, 1); err != nil {
		t.Fatalf("rebind after unbind: %v", err)
	}
	// Process exit releases everything it still owns.
	k.Exit(b)
	if k.EndpointOwner(1) != 0 {
		t.Fatalf("owner after exit = %d, want 0", k.EndpointOwner(1))
	}
}

// TestPinTableEviction bounds the pin-down table: with capacity 2, a
// third pinned page must evict the least recently used translation,
// charging the unpin on top of the miss+pin, and the pinned-page count
// must never exceed the capacity.
func TestPinTableEviction(t *testing.T) {
	env := sim.NewEnv(1)
	prof := hw.DAWNING3000()
	prof.PinTableCapacity = 2
	m := mem.NewMemory(prof.PageSize)
	k := New(env, prof, 0, m)
	proc := k.Spawn()
	page := mem.VAddr(prof.PageSize)
	va := proc.Space.Alloc(3 * prof.PageSize)
	env.Go("p", func(p *sim.Proc) {
		pin := func(at mem.VAddr) sim.Time {
			start := p.Now()
			if _, err := k.TranslateAndPin(p, proc.PID, proc.Space, at, prof.PageSize, nil); err != nil {
				t.Error(err)
			}
			return p.Now() - start
		}
		pin(va)                       // page 0: miss+pin
		pin(va + page)                // page 1: miss+pin, table now full
		evictCost := pin(va + 2*page) // page 2: must push out the LRU (page 0)
		if want := prof.TranslateMiss + prof.PinPage + prof.UnpinPage; evictCost != want {
			t.Errorf("eviction cost = %d, want miss+pin+unpin = %d", evictCost, want)
		}
		// Page 1 survived (hit); page 0 did not (miss again, second
		// eviction).
		if got := pin(va + page); got != prof.TranslateHit {
			t.Errorf("warm page cost = %d, want hit %d", got, prof.TranslateHit)
		}
		if got := pin(va); got != prof.TranslateMiss+prof.PinPage+prof.UnpinPage {
			t.Errorf("evicted page cost = %d, want miss+pin+unpin", got)
		}
	})
	env.Run()
	s := k.Stats()
	if s.PinEvictions != 2 || s.PagesUnpinned != 2 {
		t.Fatalf("evictions = %d unpinned = %d, want 2/2", s.PinEvictions, s.PagesUnpinned)
	}
	if s.PagesPinned != 4 {
		t.Fatalf("pages pinned = %d, want 4 (three cold + one re-pin)", s.PagesPinned)
	}
	if now := pinnedPages(m, proc.Space, va, 3); now > 2 {
		t.Fatalf("%d pages pinned, capacity 2", now)
	}
}

func TestCopyToFromUser(t *testing.T) {
	env, k := newKernel()
	proc := k.Spawn()
	va := proc.Space.Alloc(4096)
	payload := []byte("crossing the boundary")
	var back []byte
	var copyTime sim.Time
	env.Go("p", func(p *sim.Proc) {
		start := p.Now()
		if err := k.CopyToUser(p, proc.Space, va, payload); err != nil {
			t.Error(err)
		}
		copyTime = p.Now() - start
		var err error
		back, err = k.CopyFromUser(p, proc.Space, va, len(payload))
		if err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if string(back) != string(payload) {
		t.Fatalf("round trip = %q", back)
	}
	if copyTime <= 0 {
		t.Fatal("copy charged no time")
	}
}
