package bcl

import (
	"errors"
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

func TestClosedPortRejectsEverything(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	a, b := tb.ports[0], tb.ports[1]
	var errs []error
	tb.c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(64)
		if err := a.Close(p); err != nil {
			t.Error(err)
		}
		_, e1 := a.Send(p, b.Addr(), SystemChannel, va, 8, 0)
		e2 := a.PostRecv(p, 1, va, 8)
		e3 := a.RegisterOpen(p, 1, va, 8)
		_, e4 := a.RMAWrite(p, b.Addr(), 1, 0, va, 8)
		e5 := a.RMARead(p, b.Addr(), 1, 0, va, 8)
		e6 := a.Close(p) // double close
		errs = []error{e1, e2, e3, e4, e5, e6}
	})
	tb.run(t, sim.Millisecond)
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("op %d on closed port: %v", i, err)
		}
	}
}

func TestBadChannelArguments(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	a, b := tb.ports[0], tb.ports[1]
	tb.c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(64)
		if _, err := a.Send(p, b.Addr(), -1, va, 8, 0); !errors.Is(err, ErrBadChannel) {
			t.Errorf("negative channel send: %v", err)
		}
		if err := a.PostRecv(p, 0, va, 8); !errors.Is(err, ErrBadChannel) {
			t.Errorf("post to system channel: %v", err)
		}
		if err := a.RegisterOpen(p, 0, va, 8); !errors.Is(err, ErrBadChannel) {
			t.Errorf("open channel 0: %v", err)
		}
		if err := a.PostRecv(p, -3, va, 8); !errors.Is(err, ErrBadChannel) {
			t.Errorf("negative post: %v", err)
		}
	})
	tb.run(t, sim.Millisecond)
}

func TestIntraSendToMissingPort(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0})
	a := tb.ports[0]
	var err error
	tb.c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(8)
		_, err = a.Send(p, Addr{Node: 0, Port: 99}, SystemChannel, va, 4, 0)
	})
	tb.run(t, sim.Millisecond)
	if !errors.Is(err, ErrNoSuchPort) {
		t.Fatalf("err = %v, want ErrNoSuchPort", err)
	}
}

func TestTryRecvAndPendingInterplay(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	a, b := tb.ports[0], tb.ports[1]
	var firstTry, secondTry bool
	var viaChannel, viaPlain nic.Event
	ch := b.CreateChannel()
	tb.c.Env.Go("b", func(p *sim.Proc) {
		va := b.Process().Space.Alloc(64)
		b.PostRecv(p, ch, va, 64)
		_, firstTry = b.TryRecv(p) // nothing yet
		// Wait for BOTH messages (system + normal) to arrive.
		p.Sleep(2 * sim.Millisecond)
		// Selective wait pulls the normal-channel one first, stashing
		// the system-channel event on the pending list.
		viaChannel = b.WaitRecvChannel(p, ch)
		// The stashed event must surface through TryRecv.
		viaPlain, secondTry = b.TryRecv(p)
	})
	tb.c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(64)
		p.Sleep(100 * sim.Microsecond)
		a.Send(p, b.Addr(), SystemChannel, va, 8, 11) // arrives first
		a.WaitSend(p)
		a.Send(p, b.Addr(), ch, va, 8, 22)
		a.WaitSend(p)
	})
	tb.run(t, 100*sim.Millisecond)
	if firstTry {
		t.Fatal("TryRecv returned an event before any send")
	}
	if viaChannel.Tag != 22 {
		t.Fatalf("selective wait got %+v", viaChannel)
	}
	if !secondTry || viaPlain.Tag != 11 {
		t.Fatalf("pending event not surfaced: %v %+v", secondTry, viaPlain)
	}
}

func TestPortStatsCount(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	a, b := tb.ports[0], tb.ports[1]
	tb.c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(100)
		for i := 0; i < 3; i++ {
			a.Send(p, b.Addr(), SystemChannel, va, 100, 0)
			a.WaitSend(p)
		}
	})
	tb.c.Env.Go("b", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			b.WaitRecv(p)
		}
	})
	tb.run(t, 10*sim.Millisecond)
	sent, bytesSent, recvd, bytesRecvd := a.sent, a.bytesSent, b.received, b.bytesReceived
	if sent != 3 || recvd != 3 || bytesSent != 300 || bytesRecvd != 300 {
		t.Fatalf("stats = %d/%d %d/%d", sent, recvd, bytesSent, bytesRecvd)
	}
}

func TestIntraOversizedMessageDropped(t *testing.T) {
	// An intra-node message larger than the posted buffer must be
	// rejected (mirroring the NIC's bounds check), not overflow it.
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 0})
	a, b := tb.ports[0], tb.ports[1]
	got := false
	ch := b.CreateChannel()
	tb.c.Env.Go("b", func(p *sim.Proc) {
		va := b.Process().Space.Alloc(256)
		b.PostRecv(p, ch, va, 256)
		_, got = b.events2().RecvTimeout(p, 20*sim.Millisecond)
	})
	tb.c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(1024)
		p.Sleep(100 * sim.Microsecond)
		if _, err := a.Send(p, b.Addr(), ch, va, 1024, 0); err != nil {
			t.Error(err)
		}
	})
	tb.run(t, 100*sim.Millisecond)
	if got {
		t.Fatal("oversized intra-node message was delivered")
	}
}

// events2 exposes the merged receive queue for the timeout probe above.
func (pt *Port) events2() *sim.Queue[nic.Event] { return pt.events }

func TestMappedHelpersOnCtxBuffers(t *testing.T) {
	// Guards mem plumb-through used across the suite.
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0})
	a := tb.ports[0]
	va := a.Process().Space.Alloc(128)
	if !a.Process().Space.Mapped(va, 128) {
		t.Fatal("allocated range not mapped")
	}
	if a.Process().Space.Mapped(mem.VAddr(1<<40), 1) {
		t.Fatal("wild address mapped")
	}
}
