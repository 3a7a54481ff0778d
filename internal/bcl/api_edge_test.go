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

// TestIntraOversizedMessageDropped: an intra-node message the receiver
// is not ready for is dropped whole, as the NIC rejects it, and the
// next message lands. Larger than the posted buffer, it must not
// overflow it (the posting stays for the next message). With nothing
// posted for its first fragment's 10 ms of polling, none of its later
// fragments may take the posting made after that give-up: the message
// after it needs it.
func TestIntraOversizedMessageDropped(t *testing.T) {
	for _, tc := range []struct {
		name         string
		first, post  int      // bytes of the dropped message and of the one posting
		postAt, next sim.Time // when the posting is made, when the next message is sent
	}{
		{"larger than the posting", 1024, 256, 0, 30 * sim.Millisecond},
		{"nothing posted in time", 24 << 10, 24 << 10, 11 * sim.Millisecond, 30 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 0})
			a, b := tb.ports[0], tb.ports[1]
			ch := b.CreateChannel()
			var evs []nic.Event
			tb.c.Env.Go("b", func(p *sim.Proc) {
				p.Sleep(tc.postAt)
				if err := b.PostRecv(p, ch, b.Process().Space.Alloc(tc.post), tc.post); err != nil {
					t.Error(err)
				}
				for {
					ev, ok := b.events2().RecvTimeout(p, 50*sim.Millisecond)
					if !ok {
						return
					}
					evs = append(evs, ev)
				}
			})
			var second uint64
			tb.c.Env.Go("a", func(p *sim.Proc) {
				va := a.Process().Space.Alloc(tc.first)
				p.Sleep(100 * sim.Microsecond)
				if _, err := a.Send(p, b.Addr(), ch, va, tc.first, 0); err != nil {
					t.Error(err)
				}
				p.Sleep(tc.next - p.Now())
				var err error
				if second, err = a.Send(p, b.Addr(), ch, va, tc.post, 1); err != nil {
					t.Error(err)
				}
			})
			tb.run(t, 100*sim.Millisecond)
			if len(evs) != 1 || evs[0].MsgID != second || evs[0].Len != tc.post {
				t.Fatalf("receive events %+v, want only the second message (id %d, %d B)", evs, second, tc.post)
			}
		})
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
