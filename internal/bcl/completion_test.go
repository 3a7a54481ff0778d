package bcl

import (
	"runtime"
	"strings"
	"testing"

	"bcl/internal/cluster"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/sim"
)

// TestDrainSendEvents checks the non-blocking send-completion drain
// used by event-loop layers.
func TestDrainSendEvents(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	tx, rx := tb.ports[0], tb.ports[1]
	doneN, failedN := -1, -1
	tb.c.Env.Go("flow", func(p *sim.Proc) {
		va := tx.Process().Space.Alloc(64)
		for i := 0; i < 3; i++ {
			if _, err := tx.Send(p, rx.Addr(), SystemChannel, va, 64, 0); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		p.Sleep(5 * sim.Millisecond)
		doneN, failedN = tx.DrainSendEvents(p)
	})
	tb.run(t, 20*sim.Millisecond)
	if doneN != 3 || failedN != 0 {
		t.Fatalf("drained %d done / %d failed, want 3/0", doneN, failedN)
	}
}

// TestSetAsideEventsAreCounted: a system-channel message that a
// selective wait sets aside is still a received message. It is counted
// once, when WaitRecv hands it to the caller, not dropped from the
// stats because it came off the set-aside list instead of the queue.
func TestSetAsideEventsAreCounted(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	rx, tx := tb.ports[0], tb.ports[1]
	ch := rx.CreateChannel()
	var order []int
	tb.c.Env.Go("flow", func(p *sim.Proc) {
		if err := rx.PostRecv(p, ch, rx.Process().Space.Alloc(8), 8); err != nil {
			t.Errorf("post: %v", err)
		}
		va := tx.Process().Space.Alloc(8)
		if _, err := tx.Send(p, rx.Addr(), SystemChannel, va, 8, 0); err != nil {
			t.Errorf("system send: %v", err)
		}
		p.Sleep(sim.Millisecond) // the system message is queued first
		if _, err := tx.Send(p, rx.Addr(), ch, va, 8, 0); err != nil {
			t.Errorf("channel send: %v", err)
		}
		order = append(order, rx.WaitRecvChannel(p, ch).Channel, rx.WaitRecv(p).Channel)
	})
	tb.run(t, 20*sim.Millisecond)
	if len(order) != 2 || order[0] != ch || order[1] != SystemChannel {
		t.Fatalf("events on channels %v, want [%d %d]", order, ch, SystemChannel)
	}
	if rx.received != 2 || rx.bytesReceived != 16 {
		t.Fatalf("received=%d bytes=%d, want 2/16", rx.received, rx.bytesReceived)
	}
}

// carriers counts the goroutines running (or waiting to run) sim
// process bodies in this test binary. Unlike runtime.NumGoroutine it
// does not see the testing package's own goroutines come and go.
func carriers() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "sim.(*Env).start.func1(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestPortOwnsOneProcess: opening a port starts one process (the
// intra-node engine) and Close ends it. A finished process's goroutine
// stays on the Env's free list until Env.Close, so "ended" shows as the
// next port's engine reusing it: open/close cycles hold the count flat.
func TestPortOwnsOneProcess(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, Fabric: cluster.Myrinet, NIC: DefaultNICConfig()})
	defer c.Env.Close()
	sys := NewSystem(c)
	nd := c.Nodes[0]
	var pt *Port
	open := func(p *sim.Proc) {
		var err error
		if pt, err = sys.Open(p, nd, nd.Kernel.Spawn(), Options{}); err != nil {
			t.Errorf("open: %v", err)
		}
	}
	closePort := func(p *sim.Proc) {
		if err := pt.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := pt.Close(p); err != ErrClosed {
			t.Errorf("second close: %v, want ErrClosed", err)
		}
	}
	// One app process runs a phase every 10 ms; the goroutines are
	// counted 5 ms after each, with everything parked.
	phases := []func(p *sim.Proc){func(*sim.Proc) {}, open, closePort, open, closePort}
	c.Env.Go("app", func(p *sim.Proc) {
		for i, phase := range phases {
			if d := sim.Time(i)*10*sim.Millisecond - p.Now(); d > 0 {
				p.Sleep(d)
			}
			phase(p)
		}
		p.Sleep(sim.Second)
	})
	var counts []int
	for i := range phases {
		c.Env.RunUntil(sim.Time(i)*10*sim.Millisecond + 5*sim.Millisecond)
		counts = append(counts, carriers())
	}
	base := counts[0]
	for i, want := range []int{base, base + 1, base + 1, base + 1, base + 1} {
		if counts[i] != want {
			t.Fatalf("goroutines after phase %d: base%+d, want base%+d (all: %v)", i, counts[i]-base, want-base, counts)
		}
	}
}

// TestRoundTripEventBudget pins the scheduler events one 0-byte
// system-channel round trip executes in steady state. The budget was
// logged on the commit that still forwarded every completion through a
// pump process (77) and is exactly the four forwarded events of a round
// trip lower (two receive and two send completions).
//
// Beside it, the coroutine switches those events cost. 57 of the 73 were
// process wake-ups; under a scheduler goroutine each was a switch in
// and a switch out, 114 per round trip. A parked process drives the
// event loop itself, so only a wake-up of a process that is not on the
// driving stack switches at all: 36. The receive MCP now runs as events,
// not as a process, so its wake-ups switch nothing (16 measured here).
func TestRoundTripEventBudget(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	a, b := tb.ports[0], tb.ports[1]
	const warm, rounds, budget, switchBudget = 8, 64, 73, 16
	var marks, switches [2]uint64
	serve := func(pt *Port, peer Addr, first bool) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			va := pt.Process().Space.Alloc(8)
			for i := 0; i < warm+rounds; i++ {
				if first {
					if i == warm {
						marks[0], switches[0] = tb.c.Env.Steps(), tb.c.Env.Switches()
					}
					if _, err := pt.Send(p, peer, SystemChannel, va, 0, 0); err != nil {
						t.Error(err)
					}
				}
				ev := pt.WaitRecv(p)
				if err := pt.ReturnSystemBuffer(p, ev.VA, tb.c.Nodes[0].Prof.MaxPacket); err != nil {
					t.Error(err)
				}
				if !first {
					if _, err := pt.Send(p, peer, SystemChannel, va, 0, 0); err != nil {
						t.Error(err)
					}
				}
				pt.WaitSend(p)
			}
			if first {
				marks[1], switches[1] = tb.c.Env.Steps(), tb.c.Env.Switches()
			}
		}
	}
	tb.c.Env.Go("ping", serve(a, b.Addr(), true))
	tb.c.Env.Go("pong", serve(b, a.Addr(), false))
	tb.run(t, 50*sim.Millisecond)
	if marks[1] == 0 {
		t.Fatal("ping-pong did not finish")
	}
	perTrip := float64(marks[1]-marks[0]) / rounds
	swPerTrip := float64(switches[1]-switches[0]) / rounds
	t.Logf("%.2f events, %.2f coroutine switches per round trip", perTrip, swPerTrip)
	if perTrip != budget {
		t.Fatalf("%.2f events per 0-byte round trip, want %d", perTrip, budget)
	}
	if swPerTrip > switchBudget {
		t.Fatalf("%.2f coroutine switches per 0-byte round trip, want at most %d", swPerTrip, switchBudget)
	}
}

// TestRoundTripAllocatesNothing: in steady state a 0-byte message costs
// no heap object between Send and the peer's WaitRecv — the send and
// receive descriptors come off the NIC's free lists and go back, the
// journal keeps its entry by value, the two completion events travel
// by value, and every table on the way is an array. It used to cost
// five objects a message (ten a round trip).
func TestRoundTripAllocatesNothing(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	a, b := tb.ports[0], tb.ports[1]
	kick := sim.NewQueue[int](tb.c.Env, "kick", 0)
	trips := 0
	serve := func(pt *Port, peer Addr, first bool) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			va := pt.Process().Space.Alloc(8)
			for {
				if first {
					kick.Recv(p)
					if _, err := pt.Send(p, peer, SystemChannel, va, 0, 0); err != nil {
						t.Error(err)
					}
				}
				ev := pt.WaitRecv(p)
				if err := pt.ReturnSystemBuffer(p, ev.VA, tb.c.Nodes[0].Prof.MaxPacket); err != nil {
					t.Error(err)
				}
				if !first {
					if _, err := pt.Send(p, peer, SystemChannel, va, 0, 0); err != nil {
						t.Error(err)
					}
				}
				if pt.WaitSend(p).Type != nic.EvSendDone {
					t.Error("send failed")
				}
				if first {
					trips++
				}
			}
		}
	}
	tb.c.Env.Go("ping", serve(a, b.Addr(), true))
	tb.c.Env.Go("pong", serve(b, a.Addr(), false))
	one := func() {
		kick.Post(1)
		tb.run(t, sim.Millisecond)
	}
	for i := 0; i < 300; i++ { // free lists filled, queues and the done-rings at their working size
		one()
	}
	if allocs := testing.AllocsPerRun(200, one); allocs != 0 {
		t.Fatalf("a steady 0-byte round trip allocates %.2f objects, want 0", allocs)
	}
	if trips != 300+201 {
		t.Fatalf("%d round trips finished, want %d", trips, 300+201)
	}
	tb.assertDrained(t)
}

// TestIntraRoundTripAllocatesNothing is the intra-node path's
// counterpart: two ports on one node bounce a 20 KB message, three
// shared-memory chunks, into posted buffers. Once the fragment free
// list and the engines' assembly tables are warm, a round trip
// allocates nothing, and the last message still arrives intact.
func TestIntraRoundTripAllocatesNothing(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 1, []int{0, 0})
	a, b := tb.ports[0], tb.ports[1]
	const n = 20 << 10
	want := make([]byte, n)
	tb.c.Env.Rand().Fill(want)
	kick := sim.NewQueue[int](tb.c.Env, "kick", 0)
	trips := 0
	var landed mem.VAddr // b's receive buffer
	serve := func(pt, peer *Port, first bool) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			sp := pt.Process().Space
			out, in := sp.Alloc(n), sp.Alloc(n)
			if err := sp.Write(out, want); err != nil {
				t.Error(err)
			}
			if !first {
				landed = in
			}
			ch := pt.CreateChannel() // 1 on both ports
			post := func() {
				if err := pt.PostRecv(p, ch, in, n); err != nil {
					t.Error(err)
				}
			}
			send := func() {
				if _, err := pt.Send(p, peer.Addr(), ch, out, n, 0); err != nil {
					t.Error(err)
				}
			}
			post()
			for {
				if first {
					kick.Recv(p)
					send()
				}
				if ev := pt.WaitRecv(p); ev.Len != n {
					t.Errorf("received %d bytes, want %d", ev.Len, n)
				}
				post()
				if !first {
					send()
				}
				if pt.WaitSend(p).Type != nic.EvSendDone {
					t.Error("send failed")
				}
				if first {
					trips++
				}
			}
		}
	}
	tb.c.Env.Go("ping", serve(a, b, true))
	tb.c.Env.Go("pong", serve(b, a, false))
	one := func() {
		kick.Post(1)
		tb.run(t, sim.Millisecond)
	}
	for i := 0; i < 300; i++ {
		one()
	}
	if allocs := testing.AllocsPerRun(200, one); allocs != 0 {
		t.Fatalf("a steady intra-node round trip allocates %.2f objects, want 0", allocs)
	}
	if trips != 300+201 {
		t.Fatalf("%d round trips finished, want %d", trips, 300+201)
	}
	if got, _ := b.Process().Space.Read(landed, n); string(got) != string(want) {
		t.Fatal("the last message landed corrupted")
	}
	tb.assertDrained(t)
}

// TestWaitRecvTimeout checks the event-loop wait: what an empty poll
// and an arrival cost, that an arrival is counted once, and that a
// set-aside event is returned before the queue is read.
func TestWaitRecvTimeout(t *testing.T) {
	tb := newTestbed(t, cluster.Myrinet, 2, []int{0, 1})
	rx, tx := tb.ports[0], tb.ports[1]
	prof := tb.c.Nodes[0].Prof
	ch := rx.CreateChannel()
	done := false
	tb.c.Env.Go("flow", func(p *sim.Proc) {
		t0 := p.Now()
		if ev, ok := rx.WaitRecvTimeout(p, 100*sim.Microsecond); ok {
			t.Errorf("empty poll returned %+v", ev)
		}
		if got, want := p.Now()-t0, 100*sim.Microsecond+prof.CompletionPoll; got != want {
			t.Errorf("empty poll took %d ns, want %d (timeout + one completion poll)", got, want)
		}

		va := tx.Process().Space.Alloc(8)
		send := func(channel int, tag uint64) {
			if _, err := tx.Send(p, rx.Addr(), channel, va, 8, tag); err != nil {
				t.Errorf("send tag %d: %v", tag, err)
			}
			p.Sleep(sim.Millisecond) // let it land
		}
		send(SystemChannel, 1)
		t0 = p.Now()
		ev, ok := rx.WaitRecvTimeout(p, 100*sim.Microsecond)
		if !ok || ev.Tag != 1 {
			t.Fatalf("arrival: got %+v ok=%v, want tag 1", ev, ok)
		}
		if got, want := p.Now()-t0, prof.CompletionPoll+prof.EventDecode; got != want {
			t.Errorf("arrival took %d ns, want %d (poll + decode)", got, want)
		}
		if rx.received != 1 || rx.bytesReceived != 8 {
			t.Errorf("after one arrival received=%d bytes=%d, want 1/8", rx.received, rx.bytesReceived)
		}

		// Tag 2 is set aside by the selective wait for tag 3; tag 4 then
		// queues behind it. The set-aside event comes back first, free
		// (its poll+decode was paid when it was set aside).
		if err := rx.PostRecv(p, ch, rx.Process().Space.Alloc(8), 8); err != nil {
			t.Errorf("post: %v", err)
		}
		send(SystemChannel, 2)
		send(ch, 3)
		if ev := rx.WaitRecvChannel(p, ch); ev.Tag != 3 {
			t.Errorf("selective wait got tag %d, want 3", ev.Tag)
		}
		send(SystemChannel, 4)
		t0 = p.Now()
		for _, want := range []uint64{2, 4} {
			ev, ok := rx.WaitRecvTimeout(p, 100*sim.Microsecond)
			if !ok || ev.Tag != want {
				t.Fatalf("got %+v ok=%v, want tag %d", ev, ok, want)
			}
			if want == 2 && p.Now() != t0 {
				t.Errorf("set-aside event cost %d ns, want 0", p.Now()-t0)
			}
		}
		if rx.received != 4 || rx.bytesReceived != 32 {
			t.Errorf("received=%d bytes=%d, want 4/32", rx.received, rx.bytesReceived)
		}
		done = true
	})
	tb.run(t, 50*sim.Millisecond)
	if !done {
		t.Fatal("flow did not finish")
	}
}
