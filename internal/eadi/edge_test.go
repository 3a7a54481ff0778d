package eadi

import (
	"bytes"
	"errors"
	"testing"

	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/sim"
)

func TestSendEagerNBRejectsOversize(t *testing.T) {
	c, devs := world(t, 1, 2, []int{0, 1})
	var err error
	c.Env.Go("p", func(p *sim.Proc) {
		va := devs[0].Port().Process().Space.Alloc(EagerLimit + 1)
		err = devs[0].SendEagerNB(p, 1, 0, 0, va, EagerLimit+1)
	})
	c.Env.RunUntil(c.Env.Now() + sim.Millisecond)
	if err == nil {
		t.Fatal("oversized nonblocking eager send accepted")
	}
}

func TestPostRecvNBImmediateEagerMatch(t *testing.T) {
	c, devs := world(t, 1, 2, []int{0, 1})
	a, b := devs[0], devs[1]
	matched := false
	c.Env.Go("a", func(p *sim.Proc) {
		a.Send(p, 1, 0, 4, alloc(a, []byte("early!")), 6)
	})
	c.Env.Go("b", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond)
		// Pull the message onto the unexpected queue first.
		for {
			if _, ok := b.Probe(p, AnySource, 0, AnyTag); ok {
				break
			}
			p.Sleep(10 * sim.Microsecond)
		}
		buf := b.Port().Process().Space.Alloc(64)
		h := b.PostRecvNB(p, 0, 0, 4, buf, 64)
		if !h.pr.done {
			t.Error("posting against a queued eager message did not complete immediately")
			return
		}
		st, err := h.Status()
		if err != nil || st.Len != 6 {
			t.Errorf("status = %+v, %v", st, err)
			return
		}
		matched = true
	})
	c.Env.RunUntil(sim.Second)
	if !matched {
		t.Fatal("immediate match path not taken")
	}
}

func TestPostRecvNBTruncationFromUnexpected(t *testing.T) {
	c, devs := world(t, 1, 2, []int{0, 1})
	a, b := devs[0], devs[1]
	var herr error
	c.Env.Go("a", func(p *sim.Proc) {
		a.Send(p, 1, 0, 9, alloc(a, make([]byte, 500)), 500)
	})
	c.Env.Go("b", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond)
		for {
			if _, ok := b.Probe(p, AnySource, 0, AnyTag); ok {
				break
			}
			p.Sleep(10 * sim.Microsecond)
		}
		buf := b.Port().Process().Space.Alloc(64)
		h := b.PostRecvNB(p, 0, 0, 9, buf, 64) // too small
		_, herr = h.Status()
	})
	c.Env.RunUntil(sim.Second)
	if herr != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", herr)
	}
}

func TestDeviceAccessors(t *testing.T) {
	c, devs := world(t, 1, 2, []int{0, 1})
	_ = c
	if devs[0].Rank() != 0 || devs[1].Rank() != 1 {
		t.Fatal("ranks wrong")
	}
	if devs[0].Size() != 2 {
		t.Fatal("size wrong")
	}
	if devs[0].Port() == nil {
		t.Fatal("port accessor nil")
	}
}

func TestFlushReturnsEmptyNoop(t *testing.T) {
	c, devs := world(t, 1, 2, []int{0, 1})
	c.Env.Go("p", func(p *sim.Proc) {
		before := p.Now()
		devs[0].Port().FlushSystemBuffers(p) // nothing queued: free
		if p.Now() != before {
			t.Error("empty flush charged time")
		}
	})
	c.Env.RunUntil(c.Env.Now() + sim.Millisecond)
}

func TestTagPackingRoundTrip(t *testing.T) {
	cases := []struct{ kind, ctx, tag, id int }{
		{kindEager, 0, 0, 0},
		{kindRTS, 7, 123456, 99},
		{kindCTS, 65535, 1 << 30, 4095},
		{kindFIN, 1, 42, 1},
	}
	for _, c := range cases {
		k, x, g, i := unpackTag(packTag(c.kind, c.ctx, c.tag, c.id))
		if k != c.kind || x != c.ctx || g != c.tag || i != c.id {
			t.Fatalf("round trip %+v -> %d %d %d %d", c, k, x, g, i)
		}
	}
}

// Rendezvous headers share one page of slots, and a slot must not be
// rewritten before the header sent from it has been DMAed. The
// receiver here accepts two handshakes back to back while (1) two
// finished but unretired eager sends sit in its send event queue, so
// the WaitSend after each CTS returns at once with one of those, and
// (2) a backlog of 4 KB eager sends, draining at wire speed, keeps its
// NIC from fetching the first CTS for several hundred microseconds.
// Had the two CTS shared a slot (hdrSlots = 1 fails this test), the
// second channel id would have overwritten the first before its DMA
// and both senders would have written into one channel.
func TestRendezvousHeadersSurvivePendingEagerSends(t *testing.T) {
	const backlog = 32
	c, devs := world(t, 1, 3, []int{0, 1, 2})
	b := devs[1]
	senders := []struct {
		dev     *Device
		tag, n  int
		payload []byte
	}{{dev: devs[0], tag: 10, n: 20 * 1024}, {dev: devs[2], tag: 11, n: 40*1024 + 3}}
	for i := range senders {
		s := &senders[i]
		s.payload = make([]byte, s.n)
		c.Env.Rand().Fill(s.payload)
		c.Env.Go("sender", func(p *sim.Proc) {
			if err := s.dev.Send(p, 1, 0, s.tag, alloc(s.dev, s.payload), s.n); err != nil {
				t.Error(err)
			}
		})
	}
	got := make([][]byte, len(senders))
	c.Env.Go("b", func(p *sim.Proc) {
		sp := b.Port().Process().Space
		small, big := alloc(b, []byte("x")), alloc(b, make([]byte, EagerLimit))
		for i := 0; i < 2; i++ {
			if err := b.SendEagerNB(p, 0, 0, 1, small, 1); err != nil {
				t.Error(err)
			}
		}
		// Both RTS onto the unexpected queue; the two small sends finish.
		for _, s := range senders {
			for {
				if _, ok := b.Probe(p, s.dev.Rank(), 0, s.tag); ok {
					break
				}
				p.Sleep(10 * sim.Microsecond)
			}
		}
		p.Sleep(sim.Millisecond)
		for i := 0; i < backlog; i++ {
			if err := b.SendEagerNB(p, 0, 0, 2, big, EagerLimit); err != nil {
				t.Error(err)
			}
		}
		bufs := make([]mem.VAddr, len(senders))
		handles := make([]*RecvHandle, len(senders))
		for i, s := range senders {
			bufs[i] = sp.Alloc(s.n)
			handles[i] = b.PostRecvNB(p, s.dev.Rank(), 0, s.tag, bufs[i], s.n)
		}
		for i, s := range senders {
			st, err := b.WaitRecvNB(p, handles[i])
			if err != nil || st.Len != s.n || st.Tag != s.tag || st.Source != s.dev.Rank() {
				t.Errorf("rendezvous from %d: %+v, %v", s.dev.Rank(), st, err)
			}
			got[i], _ = sp.Read(bufs[i], s.n)
		}
		// Every eager send and two CTS, two completions retired on the way.
		for i := 0; i < 2+backlog; i++ {
			if err := b.WaitEagerNB(p); err != nil {
				t.Error(err)
			}
		}
	})
	c.Env.RunUntil(sim.Second)
	for i, s := range senders {
		if !bytes.Equal(got[i], s.payload) {
			t.Fatalf("rendezvous from %d (%d bytes) not delivered intact", s.dev.Rank(), s.n)
		}
	}
	if b.nextHdr != 2 || devs[0].nextHdr != 2 || devs[2].nextHdr != 2 {
		t.Fatalf("header slots used: %d %d %d, want 2 each (two CTS; RTS+FIN)", devs[0].nextHdr, b.nextHdr, devs[2].nextHdr)
	}
}

// A posted receive whose buffer is not mapped fails with the fault and
// is charged no copy: the eager message costs the receiver exactly one
// Memcpy less than the same message into a mapped buffer.
func TestFaultingEagerDeliveryChargesNoMemcpy(t *testing.T) {
	const n = 1000
	finished := func(mapped bool) (sim.Time, error) {
		c, devs := world(t, 1, 2, []int{0, 1})
		a, b := devs[0], devs[1]
		c.Env.Go("a", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond) // the receive is posted first
			a.Send(p, 1, 0, 3, alloc(a, make([]byte, n)), n)
		})
		var at sim.Time
		var err error
		c.Env.Go("b", func(p *sim.Proc) {
			buf := mem.VAddr(1 << 40)
			if mapped {
				buf = b.Port().Process().Space.Alloc(n)
			}
			_, err = b.Recv(p, 0, 0, 3, buf, n)
			at = p.Now()
		})
		c.Env.RunUntil(sim.Second)
		return at, err
	}
	okAt, okErr := finished(true)
	faultAt, faultErr := finished(false)
	if okErr != nil || !errors.Is(faultErr, mem.ErrFault) {
		t.Fatalf("errors = %v (mapped), %v (unmapped); want nil and ErrFault", okErr, faultErr)
	}
	prof := hw.DAWNING3000()
	memcpy := prof.MemcpyOverhead + hw.TransferTime(n, prof.MemcpyBandwidth)
	if okAt-faultAt != memcpy {
		t.Fatalf("mapped receive done at %d, faulting at %d: difference %d, want one Memcpy (%d)", okAt, faultAt, okAt-faultAt, memcpy)
	}
}

// A zero-length message waiting on the unexpected queue is claimed
// alike by a blocking Recv and by PostRecvNB + WaitRecvNB: no copy is
// charged and the buffer is not touched, so even a null buffer
// receives it.
func TestZeroLengthUnexpectedRecvMatchesNonblocking(t *testing.T) {
	claim := func(blocking bool) (Status, sim.Time, error) {
		c, devs := world(t, 1, 2, []int{0, 1})
		a, b := devs[0], devs[1]
		c.Env.Go("a", func(p *sim.Proc) {
			a.Send(p, 1, 0, 7, alloc(a, nil), 0)
		})
		var st Status
		var took sim.Time
		var err error
		c.Env.Go("b", func(p *sim.Proc) {
			for {
				if _, ok := b.Probe(p, AnySource, 0, AnyTag); ok {
					break
				}
				p.Sleep(10 * sim.Microsecond)
			}
			start := p.Now()
			if blocking {
				st, err = b.Recv(p, 0, 0, 7, 0, 0)
			} else {
				st, err = b.WaitRecvNB(p, b.PostRecvNB(p, 0, 0, 7, 0, 0))
			}
			took = p.Now() - start
		})
		c.Env.RunUntil(sim.Second)
		return st, took, err
	}
	st, took, err := claim(true)
	nbSt, nbTook, nbErr := claim(false)
	if err != nil || nbErr != nil {
		t.Fatalf("errors = %v (Recv), %v (PostRecvNB); want nil", err, nbErr)
	}
	want := Status{Source: 0, Tag: 7, Len: 0}
	if st != want || nbSt != want {
		t.Fatalf("status = %+v (Recv), %+v (PostRecvNB); want %+v", st, nbSt, want)
	}
	if took != nbTook {
		t.Fatalf("Recv took %d, PostRecvNB + WaitRecvNB %d; want the same", took, nbTook)
	}
}
