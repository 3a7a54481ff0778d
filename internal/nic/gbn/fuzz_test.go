package gbn

import (
	"fmt"
	"testing"
)

// The world FuzzGoBackN runs: node A sends messages to node B over one
// flow, a Sender at A and a Receiver at B, with around them a model of
// what the NIC does physically. The network is two FIFO links, one per
// direction, in the style of 2pc.lts's NETWORK: a packet arrives a fixed
// latency after it left, never overtaking another, unless the fuzz bytes
// drop, duplicate or corrupt it (a corrupt data packet fails its CRC at
// B; a control packet has no payload to corrupt). The bytes may also
// crash one firmware, which reboots under the next boot epoch after a
// dead time that drains both links, as the kernel watchdog's does: A's
// kernel journal replays every unretired message from fragment zero, B's
// restores the done ring. When the bytes run out the faults stop.
//
// The checks: B delivers each message at most once, and in order until
// B reboots; A completes a message only once B delivered it, and an ACK
// retires only a fragment B accepted; a completed or failed message
// never comes back (completes or fails again, or re-enters Flights);
// retries stay within MaxRetries; and once the faults stop, every
// message completes or fails within settle's bound.
//
// What the model leaves out, the protocol gets wrong today, and a fix
// adds back together with its case: receiver refusals (NACKs; one fails
// the whole flow); more than one crash in a run, and a receiver crash
// while the sender's numbering is at zero (the rebooted receiver accepts
// the sender's packets before the rewind to zero, which then takes the
// rest as duplicates: a message is completed that never arrived); the
// fragments of a message that the NIC's pipeline still sends after a
// rewind (rewind's note); and order across a receiver reboot (the replay
// queues behind later messages).

const (
	latency   = 10_000 // one link, ns
	deadTime  = 50_000 // crash to reboot: more than a round trip
	probeTime = 500_000
)

var fuzzCfg = Config{Node: 0, Window: 4, MaxRetries: 4, RTO: 100_000, BackoffMax: 800_000}

// settle bounds how long after the last fault every message takes to
// complete or fail: one whole retry ladder, each round at most the
// backed-off timeout plus its quarter of jitter, then a probe interval,
// then one round trip per fragment.
func settle(cfg Config, frags int) int64 {
	var t int64
	for r, d := 0, cfg.RTO; r <= cfg.MaxRetries; r++ {
		t += d + d/4
		d = min(2*d, cfg.BackoffMax)
	}
	return t + probeTime + int64(frags)*(2*latency+1)
}

type kind uint8

const (
	data kind = iota
	ack
	probe
	probeAck
	resync
)

type wire struct {
	at      int64
	kind    kind
	seq     uint64
	epoch   uint32
	msg     int // data: the message's index
	frag    int
	corrupt bool
}

type message struct {
	id        uint64
	frags     int
	delivered int  // times B delivered it
	retired   bool // A completed or failed it
}

type work struct{ msg, next int }

type world struct {
	t    *testing.T
	prog []byte
	pos  int
	now  int64
	cfg  Config
	msgs []message

	// Node A.
	s            Sender[int, int] // messages by index, packets by fragment
	sEpoch       uint32
	sDead        int64 // reboot time while crashed, else 0
	timer, probe int64 // deadlines, 0 when not armed
	queue        []work

	// Node B.
	r        Receiver
	rEpoch   uint32
	rDead    int64
	asm      map[int]map[int]bool // message index -> fragments landed
	journal  []uint64             // the kernel's mirror of the done ring
	accepted map[[2]int]bool      // (message, fragment) B accepted
	lastMsg  int                  // last message delivered, -1 before
	rBooted  bool                 // B has rebooted: order may change

	ab, ba    []wire // in flight, oldest first
	lastFault int64
	crashes   int // at most one a run
}

// draw returns the next fuzz byte, or 255 (no fault) once they run out.
func (w *world) draw() byte {
	if w.pos >= len(w.prog) {
		return 255
	}
	w.pos++
	return w.prog[w.pos-1]
}

func (w *world) failf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("t=%d: %s", w.now, fmt.Sprintf(format, args...))
}

// send puts a packet on a link, where the fuzz bytes may drop,
// duplicate or corrupt it, or crash a firmware.
func (w *world) send(link *[]wire, p wire) {
	p.at = w.now + latency
	switch b := w.draw(); {
	case b < 24:
		w.lastFault = w.now
		return // dropped
	case b < 40:
		w.lastFault = w.now
		*link = append(*link, p) // duplicated
	case b < 52 && p.kind == data:
		w.lastFault, p.corrupt = w.now, true
	case b < 56 && w.crashes == 0:
		w.crash(true)
	case b < 60 && w.crashes == 0 && w.resumesPastZero():
		w.crash(false)
	}
	*link = append(*link, p)
}

// resumesPastZero reports whether A's next packet, new or resent, has a
// sequence above zero.
func (w *world) resumesPastZero() bool {
	if w.s.Window().Len() > 0 {
		return w.s.Window().At(0).Seq > 0
	}
	return w.s.NextSeq() > 0
}

func (w *world) crash(sender bool) {
	w.crashes++
	w.lastFault = w.now
	if sender {
		w.sDead, w.timer, w.probe = w.now+deadTime, 0, 0
	} else {
		w.rDead = w.now + deadTime
	}
}

func (w *world) reboot(sender bool) {
	w.lastFault = w.now
	if sender {
		w.sDead, w.sEpoch = 0, w.sEpoch+1
		w.s = NewSender[int, int](&w.cfg, 1, true)
		w.queue = w.queue[:0]
		for i, m := range w.msgs {
			if !m.retired {
				w.queue = append(w.queue, work{msg: i})
			}
		}
		return
	}
	w.rDead, w.rEpoch, w.rBooted = 0, w.rEpoch+1, true
	w.r = NewReceiver(&w.cfg)
	w.r.Restore(w.journal)
	w.asm = map[int]map[int]bool{}
}

// retire records A's verdict on a message: completed or failed, once.
func (w *world) retire(m int, completed bool) {
	msg := &w.msgs[m]
	if msg.retired {
		w.failf("message %d retired a second time", msg.id)
	}
	if completed && msg.delivered != 1 {
		w.failf("message %d completed, delivered %d times", msg.id, msg.delivered)
	}
	msg.retired = true
}

func (w *world) armTimer() {
	d, _, _ := w.s.RTO()
	w.timer = w.now + d
}

// pump is A's send pipeline: fragments go to the window while it has
// room, from the message in service, the one at the queue's head.
func (w *world) pump() {
	for w.sDead == 0 && !w.s.Full() && len(w.queue) > 0 {
		q := &w.queue[0]
		m, frag := q.msg, q.next
		if q.next++; q.next == w.msgs[m].frags {
			w.queue = w.queue[1:]
		}
		last := frag == w.msgs[m].frags-1
		seq, v := w.s.Send(Entry[int, int]{MsgID: w.msgs[m].id, Msg: m, P: frag, Last: last, Tracked: true}, frag == 0, w.now)
		switch v {
		case Sent:
			if w.timer == 0 {
				w.armTimer()
			}
			w.send(&w.ab, wire{kind: data, seq: seq, epoch: w.sEpoch, msg: m, frag: frag})
		case Fail, FailFast:
			w.s.Forget(w.msgs[m].id)
			w.retire(m, false)
		}
	}
}

// rewind is the NIC's resyncFlow: the window is void, the flights go
// to the back of the send queue from fragment zero. The NIC's pipeline
// can still hold fragments of the message in service, and sends them
// before that replay; the model drops them, as the replay resends them.
// (Kept, the rebooted receiver acknowledges the message's last fragment
// before its first lands, and A completes the message early.)
func (w *world) rewind() {
	w.timer = 0
	for w.s.Window().Len() > 0 {
		w.s.Window().Pop()
	}
	w.s.Rewind()
	w.probe = 0
	if len(w.queue) > 0 && w.queue[0].next > 0 {
		if _, ok := w.s.flight(w.msgs[w.queue[0].msg].id); ok {
			w.queue = w.queue[1:]
		}
	}
	for i := 0; i < w.s.Flights().Len(); i++ {
		w.queue = append(w.queue, work{msg: w.s.Flights().At(i).Msg})
	}
}

// fire is a timer's expiry at A: the retransmit or the probe timer.
func (w *world) fire() {
	v, _ := w.s.Timeout(w.now)
	switch v {
	case Probe:
		w.probe = w.now + probeTime
		w.send(&w.ab, wire{kind: probe})
	case GiveUp:
		win := w.s.Window()
		for abs, end := win.Head(), win.Head()+uint64(win.Len()); abs < end; abs++ {
			if e := win.Live(abs); w.s.Abandon(e, true) {
				w.retire(e.Msg, false)
			}
		}
		for win.Len() > 0 {
			win.Pop()
		}
		w.timer = 0
		if w.s.Down() {
			w.probe = w.now + probeTime
		}
	case Resend:
		win := w.s.Window()
		for i := 0; i < win.Len(); i++ {
			e := win.At(i)
			w.s.Resending(win.Head() + uint64(i))
			w.send(&w.ab, wire{kind: data, seq: e.Seq, epoch: w.sEpoch, msg: e.Msg, frag: e.P})
		}
		w.armTimer()
	}
}

// atA handles a packet arriving at A.
func (w *world) atA(p wire) {
	if p.kind == resync {
		if w.s.Resync(p.epoch, p.seq) {
			w.rewind()
		}
		return
	}
	switch w.s.Epoch(p.epoch) {
	case Stale:
		return
	case Rewind:
		w.rewind()
		return
	}
	if p.kind == probeAck {
		w.s.ProbeAck(p.seq)
		w.probe = 0
		return
	}
	progress := false
	for {
		e, note, ok := w.s.Ack(p.seq, w.now)
		if !ok {
			break
		}
		if !w.accepted[[2]int{e.Msg, e.P}] {
			w.failf("ACK %d retired message %d's fragment %d, which B never accepted", p.seq, w.msgs[e.Msg].id, e.P)
		}
		progress = true
		if note&Complete != 0 {
			w.retire(e.Msg, true)
		}
	}
	if progress {
		w.s.PeerUp()
		w.probe = 0
	}
	w.timer = 0
	if w.s.Window().Len() > 0 {
		w.armTimer()
	}
}

// atB handles a packet arriving at B.
func (w *world) atB(p wire) {
	if p.kind == probe {
		w.send(&w.ba, wire{kind: probeAck, seq: w.r.Expect(), epoch: w.rEpoch})
		return
	}
	if p.corrupt {
		return // the CRC fails: silence, the sender's timer recovers
	}
	v, _ := w.r.Arrive(p.seq, p.epoch, w.rEpoch > 1, w.now)
	switch v {
	case Dup:
		w.send(&w.ba, wire{kind: ack, seq: w.r.Expect() - 1, epoch: w.rEpoch})
	case Resync:
		w.send(&w.ba, wire{kind: resync, seq: w.r.Expect(), epoch: w.rEpoch})
	case Accept:
		w.r.Accept()
		w.accepted[[2]int{p.msg, p.frag}] = true
		w.send(&w.ba, wire{kind: ack, seq: p.seq, epoch: w.rEpoch})
		m := &w.msgs[p.msg]
		if w.r.Done(m.id) {
			return // a replay of a delivered message: swallowed
		}
		got := w.asm[p.msg]
		if got == nil {
			got = map[int]bool{}
			w.asm[p.msg] = got
		}
		if got[p.frag] = true; len(got) < m.frags {
			return
		}
		delete(w.asm, p.msg)
		if m.delivered++; m.delivered > 1 {
			w.failf("message %d delivered twice", m.id)
		}
		if p.msg < w.lastMsg && !w.rBooted {
			w.failf("message %d delivered after message %d", m.id, w.msgs[w.lastMsg].id)
		}
		w.lastMsg = p.msg
		w.r.Record(m.id)
		if w.journal = append(w.journal, m.id); len(w.journal) > DoneRing {
			w.journal = w.journal[1:]
		}
	}
}

// step runs the earliest event; false once nothing is pending.
func (w *world) step() bool {
	next := int64(-1)
	for _, t := range []int64{w.sDead, w.rDead, w.timer, w.probe} {
		if t > 0 && (next < 0 || t < next) {
			next = t
		}
	}
	for _, l := range [][]wire{w.ab, w.ba} {
		if len(l) > 0 && (next < 0 || l[0].at < next) {
			next = l[0].at
		}
	}
	if next < 0 {
		return false
	}
	w.now = next
	switch {
	case w.sDead == next:
		w.reboot(true)
	case w.rDead == next:
		w.reboot(false)
	case len(w.ab) > 0 && w.ab[0].at == next:
		p := w.ab[0]
		w.ab = w.ab[1:]
		if w.rDead == 0 {
			w.atB(p)
		}
	case len(w.ba) > 0 && w.ba[0].at == next:
		p := w.ba[0]
		w.ba = w.ba[1:]
		if w.sDead == 0 {
			w.atA(p)
		}
	case w.timer == next:
		w.timer = 0
		w.fire()
	default:
		w.probe = 0
		w.fire()
	}
	w.pump()
	return true
}

// runGoBackN plays prog: its first byte picks the messages (two to nine,
// one to three fragments each), its second the estimator; the rest
// decide each packet's fate.
func runGoBackN(t *testing.T, prog []byte) {
	w := &world{t: t, prog: prog, cfg: fuzzCfg, sEpoch: 1, rEpoch: 1, lastMsg: -1,
		asm: map[int]map[int]bool{}, accepted: map[[2]int]bool{}}
	n, frags := 2+int(w.draw()%8), 0
	w.cfg.Adaptive = w.draw()%2 == 0
	for i := range n {
		f := 1 + int(w.draw()%3)
		w.msgs = append(w.msgs, message{id: uint64(i + 1), frags: f})
		w.queue = append(w.queue, work{msg: i})
		frags += f
	}
	w.s, w.r = NewSender[int, int](&w.cfg, 1, true), NewReceiver(&w.cfg)
	w.pump()
	for w.step() {
		if w.s.Retries() > w.cfg.MaxRetries {
			w.failf("%d retries, the most is %d", w.s.Retries(), w.cfg.MaxRetries)
		}
		for i := 0; i < w.s.Flights().Len(); i++ {
			if m := w.s.Flights().At(i).Msg; w.msgs[m].retired {
				w.failf("retired message %d is in flight again", w.msgs[m].id)
			}
		}
		if w.now > w.lastFault+settle(w.cfg, frags) {
			break
		}
	}
	for _, m := range w.msgs {
		if !m.retired {
			w.failf("message %d neither completed nor failed %d ns after the last fault", m.id, settle(w.cfg, frags))
		}
	}
}

func FuzzGoBackN(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 0})
	f.Add([]byte{7, 1, 2, 2, 2, 2, 2, 2, 2, 2, 0, 30, 200, 5, 255, 45, 57, 200, 200, 10})
	f.Fuzz(runGoBackN)
}
