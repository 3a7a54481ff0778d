package gbn

import "testing"

// The core's inputs, one table each, on flows built by hand: no NIC, no
// clock. A message's entries carry its index as Msg and nothing as P.

var testCfg = Config{Window: 4, MaxRetries: 2, RTO: 1000, BackoffMax: 8000}

type sender = Sender[int, struct{}]

// newSender returns a flow that has sent frags[i] fragments of message
// i+1 (id i+1, Msg i) for each i, at time 0.
func newSender(frags ...int) *sender {
	cfg := testCfg
	s := NewSender[int, struct{}](&cfg, 1, false)
	for m, n := range frags {
		for f := range n {
			if _, v := s.Send(Entry[int, struct{}]{MsgID: uint64(m + 1), Msg: m, Last: f == n-1, Tracked: true}, f == 0, 0); v != Sent {
				panic(v)
			}
		}
	}
	return &s
}

func TestSend(t *testing.T) {
	for _, c := range []struct {
		name   string
		flow   func() *sender
		id     uint64
		last   bool
		want   Verdict
		flying int // Flights after
	}{
		{"a new message", func() *sender { return newSender() }, 1, true, Sent, 1},
		{"a dead peer's last fragment fails fast", func() *sender { s := newSender(); s.health = Dead; return s }, 1, true, FailFast, 0},
		{"a probing peer's first fragment is dropped", func() *sender { s := newSender(); s.health = Probing; return s }, 1, false, Drop, 0},
		{"a failed message's last fragment reports it", func() *sender { s := newSender(); s.markFailed(1, false); return s }, 1, true, Fail, 0},
		{"a failed and reported message's is dropped", func() *sender { s := newSender(); s.markFailed(1, true); return s }, 1, true, Drop, 0},
		{"a failed message's middle fragment is dropped", func() *sender { s := newSender(); s.markFailed(1, true); return s }, 1, false, Drop, 0},
	} {
		s := c.flow()
		if _, v := s.Send(Entry[int, struct{}]{MsgID: c.id, Last: c.last, Tracked: true}, true, 0); v != c.want || s.Flights().Len() != c.flying {
			t.Errorf("%s: %v with %d in flight, want %v with %d", c.name, v, s.Flights().Len(), c.want, c.flying)
		}
	}
	s := newSender(1)
	s.markFailed(2, false)
	s.Send(Entry[int, struct{}]{MsgID: 2, Last: false}, false, 0)
	if _, v := s.Send(Entry[int, struct{}]{MsgID: 2, Last: true}, false, 0); v != Fail || len(s.failed) != 0 {
		t.Errorf("a failed message's last fragment: %v, %d still failed; want Fail and none", v, len(s.failed))
	}
}

func TestAck(t *testing.T) {
	for _, c := range []struct {
		name    string
		flow    func() *sender
		ack     uint64
		retired []uint64 // sequences, in order
		done    []int    // messages completed
	}{
		{"an ACK for a sequence never sent retires nothing", func() *sender { return newSender() }, 5, nil, nil},
		{"an ACK below the window head retires nothing", func() *sender {
			s := newSender(2, 1)
			s.Ack(0, 1)
			return s
		}, 0, nil, nil},
		{"an ACK retires up to its sequence", func() *sender { return newSender(2, 1) }, 1, []uint64{0, 1}, []int{0}},
		{"the first of two last fragments completes", func() *sender {
			s := newSender(1)
			s.Send(Entry[int, struct{}]{MsgID: 1, Msg: 0, Last: true, Tracked: true}, false, 0)
			return s
		}, 1, []uint64{0, 1}, []int{0}},
		{"an untracked message completes", func() *sender {
			s := newSender()
			s.Send(Entry[int, struct{}]{MsgID: 9, Msg: 8, Last: true}, true, 0)
			return s
		}, 0, []uint64{0}, []int{8}},
	} {
		s := c.flow()
		var retired []uint64
		var done []int
		for {
			e, note, ok := s.Ack(c.ack, 1)
			if !ok {
				break
			}
			retired = append(retired, e.Seq)
			if note&Complete != 0 {
				done = append(done, e.Msg)
			}
		}
		if !equal(retired, c.retired) || !equal(done, c.done) {
			t.Errorf("%s: retired %v completing %v, want %v completing %v", c.name, retired, done, c.retired, c.done)
		}
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNack(t *testing.T) {
	for _, c := range []struct {
		name   string
		flow   func() *sender
		id     uint64
		want   Verdict
		voided int
		failed int // messages listed failed after
	}{
		{"a NACK on an empty window", func() *sender { return newSender() }, 0, Idle, 0, 0},
		{"a NACK for a retransmission", func() *sender { return newSender(1) }, 0, Backoff, 0, 0},
		{"a NACK naming a message no longer in flight only backs off", func() *sender { return newSender(1) }, 7, Backoff, 0, 0},
		{"a refusal voids its message's packets", func() *sender { return newSender(2, 1) }, 1, Refuse, 2, 0},
		{"a refusal before the last fragment drops the rest", func() *sender {
			s := newSender(1)
			s.Send(Entry[int, struct{}]{MsgID: 2, Msg: 1, Tracked: true}, true, 0)
			return s
		}, 2, Refuse, 1, 1},
	} {
		s := c.flow()
		v, _ := s.Nack(c.id)
		voided := 0
		for i := 0; i < s.Window().Len(); i++ {
			if s.Window().At(i).Void {
				voided++
			}
		}
		if v != c.want || voided != c.voided || len(s.failed) != c.failed {
			t.Errorf("%s: %v, %d void, %d failed; want %v, %d, %d", c.name, v, voided, len(s.failed), c.want, c.voided, c.failed)
		}
	}
}

func TestTimeout(t *testing.T) {
	for _, c := range []struct {
		name    string
		flow    func() *sender
		want    Verdict
		health  Health
		retries int
	}{
		{"nothing unacknowledged", func() *sender { return newSender() }, Idle, Up, 0},
		{"the first round", func() *sender { return newSender(1) }, Resend, Suspect, 1},
		{"retries exhausted", func() *sender { s := newSender(1); s.retries = 2; return s }, GiveUp, Up, 3},
		{"a dead peer is probed", func() *sender { s := newSender(); s.health = Dead; return s }, Probe, Probing, 0},
	} {
		s := c.flow()
		if v, _ := s.Timeout(1); v != c.want || s.Health() != c.health || s.Retries() != c.retries {
			t.Errorf("%s: %v, %v after %d retries; want %v, %v, %d", c.name, v, s.Health(), s.Retries(), c.want, c.health, c.retries)
		}
	}
	// A flow that gives up reports each message once, at its first entry,
	// and lists the one whose last fragment was not sent as failed.
	s := newSender(2, 1)
	s.Send(Entry[int, struct{}]{MsgID: 3, Msg: 2, Tracked: true}, true, 0)
	s.retries = 2
	if v, _ := s.Timeout(1); v != GiveUp {
		t.Fatalf("%v, want GiveUp", v)
	}
	var reported []int
	for i := 0; i < s.Window().Len(); i++ {
		if e := s.Window().At(i); s.Abandon(e, true) {
			reported = append(reported, e.Msg)
		}
	}
	if !equal(reported, []int{0, 1, 2}) || s.Flights().Len() != 0 || len(s.failed) != 1 || s.failed[0].id != 3 {
		t.Errorf("gave up reporting %v, %d in flight, failed %v; want [0 1 2], 0, message 3", reported, s.Flights().Len(), s.failed)
	}
	for s.Window().Len() > 0 {
		s.Window().Pop()
	}
	if !s.Down() || s.Health() != Dead || s.Retries() != 0 || s.Down() {
		t.Errorf("Down: %v after %d retries, want Dead once", s.Health(), s.Retries())
	}
}

func TestRTO(t *testing.T) {
	s := newSender(1)
	for _, want := range []int64{1000, 2000, 4000, 8000, 8000} {
		d, _, backedOff := s.RTO()
		if s.retries > 0 {
			d -= Jitter(0, 1, s.retries, want/4)
		}
		if d != want || backedOff != (s.retries > 0) {
			t.Errorf("round %d: %d ns less jitter (backed off %v), want %d", s.retries, d, backedOff, want)
		}
		s.retries++
	}
	s = newSender(1)
	s.cfg.Adaptive = true
	s.Ack(0, 100) // a 100 ns sample: srtt 100, rttvar 50
	if d, adapted, _ := s.RTO(); d != 300 || !adapted {
		t.Errorf("adaptive: %d ns (adapted %v), want srtt + 4 rttvar = 300", d, adapted)
	}
	s.srtt, s.rttvar = 40, 10
	if d, _, _ := s.RTO(); d != 250 {
		t.Errorf("adaptive: %d ns, want the floor RTO/4 = 250", d)
	}
}

// The gray trip wire: RTT samples past four times the best steer the
// flow once, with a rail to steer to, and never without one.
func TestGrayTrip(t *testing.T) {
	for _, steer := range []bool{true, false} {
		cfg := testCfg
		cfg.Adaptive = true
		s := NewSender[int, struct{}](&cfg, 1, steer)
		trips := 0
		for i, rtt := range []int64{100, 100, 900, 900, 900, 900, 900, 900, 900, 900} {
			s.Send(Entry[int, struct{}]{MsgID: uint64(i + 1), Last: true}, true, 0)
			if _, note, _ := s.Ack(s.NextSeq()-1, rtt); note&GrayTrip != 0 {
				trips++
			}
		}
		if srtt, best := s.RTT(); best != 100 || srtt <= 4*best {
			t.Fatalf("srtt %d, best %d: the samples did not pass the trip wire", srtt, best)
		}
		if want := map[bool]int{true: 1, false: 0}[steer]; trips != want {
			t.Errorf("steer %v: %d trips, want %d", steer, trips, want)
		}
		if s.GrayOver(); s.SteerOff() || s.srtt != 0 {
			t.Errorf("steer %v: a hold over still steers, or keeps srtt %d", steer, s.srtt)
		}
	}
}

func TestProbeAck(t *testing.T) {
	for _, c := range []struct {
		name      string
		flow      func() *sender
		expect    uint64
		next      uint64
		recovered bool
	}{
		{"a probe-ACK on an empty window resumes at the receiver's sequence", func() *sender { s := newSender(); s.health = Probing; return s }, 7, 7, true},
		{"a probe-ACK with a non-empty window keeps nextSeq", func() *sender { s := newSender(1); s.health = Probing; return s }, 7, 1, true},
		{"a probe-ACK for a live peer", func() *sender { return newSender() }, 3, 3, false},
	} {
		s := c.flow()
		if r := s.ProbeAck(c.expect); s.NextSeq() != c.next || r != c.recovered || s.Health() != Up {
			t.Errorf("%s: next %d, recovered %v, %v; want %d, %v, UP", c.name, s.NextSeq(), r, s.Health(), c.next, c.recovered)
		}
	}
}

func TestEpoch(t *testing.T) {
	for _, c := range []struct {
		name       string
		peer, seen uint32
		want       Verdict
		after      uint32
	}{
		{"a first epoch is adopted", 0, 2, Fresh, 2},
		{"the same epoch", 2, 2, Fresh, 2},
		{"an unstamped packet", 2, 0, Fresh, 2},
		{"a stale-epoch ACK, NACK or probe-ACK is discarded", 3, 2, Stale, 3},
		{"a newer epoch rewinds", 2, 3, Rewind, 3},
	} {
		s := newSender()
		s.epoch = c.peer
		if v := s.Epoch(c.seen); v != c.want || s.PeerEpoch() != c.after {
			t.Errorf("%s: %v at epoch %d, want %v at %d", c.name, v, s.PeerEpoch(), c.want, c.after)
		}
	}
}

func TestResync(t *testing.T) {
	for _, c := range []struct {
		name   string
		flow   func() *sender
		epoch  uint32
		expect uint64
		want   bool
	}{
		{"a stale RESYNC", func() *sender { s := newSender(1); s.epoch = 3; return s }, 2, 0, false},
		{"a newer epoch's", func() *sender { s := newSender(1); s.epoch = 2; return s }, 3, 0, true},
		{"a same-epoch RESYNC with the window not past is a no-op", func() *sender {
			s := newSender(1, 1)
			s.epoch = 2
			return s
		}, 2, 0, false},
		{"a same-epoch RESYNC the window ran past", func() *sender {
			s := newSender(1, 1)
			s.epoch = 2
			s.Ack(0, 1)
			return s
		}, 2, 0, true},
	} {
		if got := c.flow().Resync(c.epoch, c.expect); got != c.want {
			t.Errorf("%s: rewind %v, want %v", c.name, got, c.want)
		}
	}
	s := newSender(1, 2)
	s.health = Dead
	if !s.Rewind() || s.NextSeq() != 0 || s.Health() != Up || s.Flights().Len() != 2 {
		t.Errorf("Rewind: next %d, %v, %d in flight; want 0, UP, both to replay", s.NextSeq(), s.Health(), s.Flights().Len())
	}
}

func TestArrive(t *testing.T) {
	cfg := testCfg
	for _, c := range []struct {
		name     string
		expect   uint64
		epoch    uint32 // the flow's sender epoch before
		seq      uint64
		pktEpoch uint32
		rebooted bool
		want     Verdict
		from     uint32
		after    uint64 // expected sequence after
	}{
		{"in sequence", 3, 1, 3, 1, false, Accept, 0, 3},
		{"duplicate data re-ACKs expect-1", 3, 1, 1, 1, false, Dup, 0, 3},
		{"a gap at boot epoch 1 stays silent", 3, 1, 5, 1, false, Gap, 0, 3},
		{"a gap after our reboot asks for a rewind", 3, 1, 5, 1, true, Resync, 0, 3},
		{"a gap from a sender not yet heard", 0, 0, 5, 0, true, Gap, 0, 0},
		{"a stale sender epoch", 3, 2, 3, 1, false, Stale, 0, 3},
		{"a newer sender epoch restarts the numbering", 3, 1, 0, 2, false, Accept, 1, 0},
		{"a first sender epoch is adopted", 0, 0, 0, 1, false, Accept, 0, 0},
	} {
		r := NewReceiver(&cfg)
		r.expect, r.epoch = c.expect, c.epoch
		if v, from := r.Arrive(c.seq, c.pktEpoch, c.rebooted, 100); v != c.want || from != c.from || r.Expect() != c.after {
			t.Errorf("%s: %v from epoch %d, expecting %d; want %v, %d, %d", c.name, v, from, r.Expect(), c.want, c.from, c.after)
		}
	}
	r := NewReceiver(&cfg)
	r.epoch, r.expect = 1, 2
	if v, _ := r.Arrive(5, 1, true, 100); v != Resync {
		t.Fatalf("%v, want Resync", v)
	}
	if v, _ := r.Arrive(5, 1, true, 100+cfg.RTO/2-1); v != Gap {
		t.Errorf("a second RESYNC within RTO/2: %v, want Gap", v)
	}
	if v, _ := r.Arrive(5, 1, true, 100+cfg.RTO/2); v != Resync {
		t.Errorf("a RESYNC RTO/2 later: %v, want Resync", v)
	}
}

// The window is the core's, so its steady state allocates nothing: a
// send retired by its ACK, a timeout round, and retry exhaustion over a
// full window of four messages (the NIC's failFlow built two maps per
// call to walk it).
func TestSteadyStateAllocatesNothing(t *testing.T) {
	s := newSender()
	s.cfg.Adaptive = true
	now := int64(0)
	send := func(id uint64) {
		if _, v := s.Send(Entry[int, struct{}]{MsgID: id, Msg: int(id), Last: true, Tracked: true}, true, now); v != Sent {
			t.Fatalf("send: %v", v)
		}
	}
	ackAll := func() {
		now += 100
		for _, _, ok := s.Ack(s.NextSeq()-1, now); ok; _, _, ok = s.Ack(s.NextSeq()-1, now) {
		}
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"send, ACK, retire", func() {
			send(1)
			s.RTO()
			ackAll()
			s.PeerUp()
		}},
		{"a timeout round", func() {
			for id := range uint64(4) {
				send(id)
			}
			if v, _ := s.Timeout(now + 50); v != Resend {
				t.Fatalf("timeout: %v", v)
			}
			for i := 0; i < s.Window().Len(); i++ {
				s.Resending(s.Window().Head() + uint64(i))
			}
			s.RTO()
			ackAll()
			s.PeerUp()
		}},
		{"retry exhaustion over a full window", func() {
			for id := range uint64(4) {
				send(id)
			}
			for v := Resend; v != GiveUp; v, _ = s.Timeout(now) {
			}
			w := s.Window()
			for abs, end := w.Head(), w.Head()+uint64(w.Len()); abs < end; abs++ {
				s.Abandon(w.Live(abs), true)
			}
			for w.Len() > 0 {
				w.Pop()
			}
			s.Down()
			s.ProbeAck(s.NextSeq())
		}},
	} {
		if n := testing.AllocsPerRun(100, c.run); n != 0 {
			t.Errorf("%s: %.1f allocations, want 0", c.name, n)
		}
	}
}
