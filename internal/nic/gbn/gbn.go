// Package gbn is the go-back-N core of the MCP's reliable protocol: it
// makes every sequence, retry, epoch and peer-health decision and has no
// clock. The NIC carries the decisions out (packets, SRAM, DMA, timers,
// completions, the journal, rail steering, traces, counters) and passes
// times in as nanoseconds.
//
// A Sender is a flow's sending half: the next sequence, the window of
// unacknowledged packets, retries, the peer's health and boot epoch, the
// messages in flight (a rewind replays them) and being failed (their
// trailing fragments are dropped), and the adaptive RTO with its gray
// trip. Inputs: Send, Ack (one packet a call, so the caller may wait
// between two), Nack, Timeout, ProbeAck, Resync, and Epoch for the boot
// epoch every ACK, NACK and probe-ACK carries. A Receiver is a flow's
// receiving half: the expected sequence, the sender's boot epoch, the
// ring of messages delivered last (exactly once across a replay) and the
// RESYNC throttle. Inputs: Arrive, a header that passed its CRC, and
// Accept once its bytes landed. Outputs are Verdicts, and Notes on an
// ACK or a timeout.
//
// Peer health: Up -> Suspect on the first retransmit round, Suspect ->
// Dead on retry exhaustion, Dead -> Probing once liveness probes start,
// Probing -> Up on a probe ACK (or any genuine ACK progress, or a
// rewind). Sends to a Dead or Probing peer fail fast.
package gbn

import (
	"fmt"
	"slices"

	"bcl/internal/sim"
)

// Health is a sender's liveness belief about its peer.
type Health uint8

// Peer health states.
const (
	Up      Health = iota // flowing normally
	Suspect               // at least one retransmit round outstanding
	Dead                  // retry exhaustion; sends fail fast
	Probing               // dead, with liveness probes in flight
)

func (h Health) String() string {
	if names := [...]string{"UP", "SUSPECT", "DEAD", "PROBING"}; int(h) < len(names) {
		return names[h]
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// Verdict is what the core decided on one input.
type Verdict uint8

// Verdicts, by input.
const (
	Sent     Verdict = iota // Send: in the window under the returned sequence
	Drop                    // Send: suppress it (a failed message's, or a dead peer's but the last)
	Fail                    // Send: suppress it, fail its message (failed, not yet reported)
	FailFast                // Send: suppress it, fail its message: the peer is dead
	Fresh                   // Epoch: act on the packet
	Stale                   // Epoch, Arrive: from before a reboot; discard it
	Rewind                  // Epoch: the peer rebooted; rewind, and discard the packet
	Idle                    // Timeout, Nack: nothing unacknowledged
	Probe                   // Timeout: probe the dead peer
	GiveUp                  // Timeout: retries exhausted; Abandon the window
	Resend                  // Timeout: send the window again
	Backoff                 // Nack: send the window again in RTO/4
	Refuse                  // Nack: as Backoff, and fail its message, whose packets go as voids
	Accept                  // Arrive: next in sequence
	Dup                     // Arrive: delivered already; ACK Expect()-1 again
	Gap                     // Arrive: past a lost packet; drop it
	Resync                  // Arrive: as Gap, and ask the sender to rewind to Expect()
)

// Note is what an ACK or a timeout did besides its verdict.
type Note uint8

// Notes.
const (
	Sampled  Note = 1 << iota // an RTT sample went into the estimator
	GrayTrip                  // the smoothed RTT passed four times its best: steer to the other rail
	Complete                  // the packet completed its message: post the completion
)

// Config is what a card's flows share.
type Config struct {
	Node       int   // this card, for the timer jitter
	Window     int   // unacknowledged packets per flow
	MaxRetries int   // timeout rounds before a flow gives up
	RTO        int64 // base retransmit timeout, ns
	BackoffMax int64 // ceiling of a backed-off timeout, ns
	Adaptive   bool  // Jacobson RTO from Karn-clean RTT samples
}

// Entry is a packet in a sender's window. The caller fills MsgID, Msg,
// P, Last and Tracked.
type Entry[M comparable, P any] struct {
	Seq, MsgID uint64
	SentAt     int64 // first transmission
	Msg        M     // its message, as the caller knows it
	P          P     // what the caller keeps with the packet
	Last       bool  // the message's last fragment
	Tracked    bool  // its message is replayed by a rewind and completes once
	Void       bool  // its message was refused: it goes out again as a void

	retx, complete, seen bool // resent (Karn); GiveUp's last-fragment and reported marks
}

// Flight is a message sent and not yet completed or failed.
type Flight[M any] struct {
	ID  uint64
	Msg M
}

type failedMsg struct {
	id       uint64
	reported bool
}

// Sender is the sending half of a flow.
type Sender[M comparable, P any] struct {
	cfg     *Config
	dst     int
	steer   bool // a gray trip has a rail to steer to
	next    uint64
	win     sim.Ring[Entry[M, P]] // at most Config.Window packets
	retries int
	health  Health
	epoch   uint32              // the peer's boot epoch, as last seen
	flights sim.Ring[Flight[M]] // first-transmit order; the window bounds it
	failed  []failedMsg         // a handful at most

	srtt, rttvar, baseRTT int64
	grayOn                bool
}

// NewSender returns the sending half of the flow toward dst.
func NewSender[M comparable, P any](cfg *Config, dst int, steer bool) Sender[M, P] {
	return Sender[M, P]{cfg: cfg, dst: dst, steer: steer}
}

// Window is the unacknowledged packets, oldest first. The caller changes
// no entry's field but P, and empties it, releasing what each P holds,
// once a verdict voids it (GiveUp, Rewind) or the firmware reboots.
func (s *Sender[M, P]) Window() *sim.Ring[Entry[M, P]] { return &s.win }

// Flights is the messages in flight, to read: a rewind replays them.
func (s *Sender[M, P]) Flights() *sim.Ring[Flight[M]] { return &s.flights }

// Health, Retries, NextSeq, PeerEpoch, RTT and Full read the flow.
func (s *Sender[M, P]) Health() Health              { return s.health }
func (s *Sender[M, P]) Retries() int                { return s.retries }
func (s *Sender[M, P]) NextSeq() uint64             { return s.next }
func (s *Sender[M, P]) PeerEpoch() uint32           { return s.epoch }
func (s *Sender[M, P]) RTT() (smoothed, best int64) { return s.srtt, s.baseRTT }
func (s *Sender[M, P]) Full() bool                  { return s.win.Len() >= s.cfg.Window }
func (s *Sender[M, P]) down() bool                  { return s.health == Dead || s.health == Probing }

func (s *Sender[M, P]) failedIdx(id uint64) int {
	return slices.IndexFunc(s.failed, func(f failedMsg) bool { return f.id == id })
}

func (s *Sender[M, P]) flight(id uint64) (i int, ok bool) {
	for ; i < s.flights.Len(); i++ {
		if s.flights.At(i).ID == id {
			return i, true
		}
	}
	return -1, false
}

// Forget takes a message out of Flights: it failed before the window.
func (s *Sender[M, P]) Forget(id uint64) {
	if i, ok := s.flight(id); ok {
		s.flights.Remove(i)
	}
}

func (s *Sender[M, P]) markFailed(id uint64, reported bool) {
	if i := s.failedIdx(id); i >= 0 {
		s.failed[i].reported = reported
	} else {
		s.failed = append(s.failed, failedMsg{id, reported})
	}
}

// Send admits the next fragment of a message to a window that is not
// full; first says it is fragment zero.
func (s *Sender[M, P]) Send(e Entry[M, P], first bool, now int64) (seq uint64, v Verdict) {
	if i := s.failedIdx(e.MsgID); i >= 0 {
		// Being failed: the receiver never sees the message resume.
		if !e.Last {
			return 0, Drop
		}
		reported := s.failed[i].reported
		s.failed = slices.Delete(s.failed, i, i+1)
		if reported {
			return 0, Drop
		}
		return 0, Fail
	}
	if s.down() {
		if e.Last {
			return 0, FailFast
		}
		s.markFailed(e.MsgID, false) // reported at the last fragment
		return 0, Drop
	}
	// Fragment zero only: a trailing fragment still in the pipeline after
	// its message completed must not bring it back.
	if _, ok := s.flight(e.MsgID); e.Tracked && first && !ok {
		s.flights.Push(Flight[M]{e.MsgID, e.Msg})
	}
	e.Seq, e.SentAt = s.next, now
	s.next++
	s.win.Push(e)
	return e.Seq, Sent
}

// RTO is the retransmit timeout to arm: the base (adaptive: srtt + 4
// rttvar within [RTO/4, BackoffMax]) doubled per retry round up to
// BackoffMax, plus from the second round a jitter hashed from (node,
// dst, round), which de-synchronises flows without a draw on the shared
// RNG. adapted and backedOff say which applied.
func (s *Sender[M, P]) RTO() (d int64, adapted, backedOff bool) {
	base, ceil := s.cfg.RTO, s.cfg.BackoffMax
	if s.cfg.Adaptive && s.srtt > 0 {
		base, adapted = min(max(s.srtt+4*s.rttvar, base/4), ceil), true
	}
	d = base
	for i := 0; i < s.retries && d < ceil; i++ {
		d *= 2
	}
	d = min(d, ceil)
	if s.retries > 0 {
		d, backedOff = d+Jitter(s.cfg.Node, s.dst, s.retries, d/4), true
	}
	return d, adapted, backedOff
}

// Jitter hashes (node, dst, round) into [0, span) with splitmix64.
func Jitter(node, dst, round int, span int64) int64 {
	if span <= 0 {
		return 0
	}
	return int64(sim.Splitmix64(uint64(node)<<42^uint64(dst)<<21^uint64(round)) % uint64(span))
}

// sample folds an RTT sample into the Jacobson estimator and checks the
// gray trip wire: a smoothed RTT past four times the best is a flow
// degraded but alive.
func (s *Sender[M, P]) sample(rtt int64) Note {
	if rtt <= 0 {
		return 0
	}
	if s.baseRTT == 0 || (rtt < s.baseRTT && !s.grayOn) {
		s.baseRTT = rtt // frozen while steered: the other rail must not redefine it
	}
	if s.srtt == 0 {
		s.srtt, s.rttvar = rtt, rtt/2
	} else {
		s.rttvar += (max(rtt-s.srtt, s.srtt-rtt) - s.rttvar) / 4
		s.srtt += (rtt - s.srtt) / 8
	}
	if !s.steer || s.grayOn || s.srtt <= 4*s.baseRTT {
		return Sampled
	}
	s.grayOn = true
	return Sampled | GrayTrip
}

// GrayOver ends a steering hold: back on the primary rail, re-learn.
func (s *Sender[M, P]) GrayOver() { s.SteerOff(); s.srtt, s.rttvar = 0, 0 }

// SteerOff ends a steering hold as a firmware crash does; true if one
// was on.
func (s *Sender[M, P]) SteerOff() bool {
	on := s.grayOn
	s.grayOn = false
	return on
}

// Ack retires the oldest packet if a cumulative ACK of seq covers it,
// sampling its RTT unless it was resent (Karn).
func (s *Sender[M, P]) Ack(seq uint64, now int64) (e Entry[M, P], note Note, ok bool) {
	if s.win.Len() == 0 || s.win.At(0).Seq > seq {
		return e, 0, false
	}
	e = s.win.Pop()
	if s.cfg.Adaptive && !e.retx {
		note = s.sample(now - e.SentAt)
	}
	if e.Last {
		// A rewind can put two last fragments of a message in flight:
		// the first completes it.
		i, live := s.flight(e.MsgID)
		if live {
			s.flights.Remove(i)
		}
		if live || !e.Tracked {
			note |= Complete
		}
	}
	return e, note, true
}

// PeerUp re-admits the peer on liveness evidence (ACK progress); true if
// it was Dead or Probing.
func (s *Sender[M, P]) PeerUp() bool {
	was := s.down()
	s.health, s.retries = Up, 0
	return was
}

// ProbeAck takes a probe's answer, the receiver's expected sequence:
// abandoned packets ran past it, so an empty window resumes there.
func (s *Sender[M, P]) ProbeAck(seq uint64) (recovered bool) {
	if s.win.Len() == 0 {
		s.next = seq
	}
	return s.PeerUp()
}

// Epoch takes the peer boot epoch an ACK, NACK or probe-ACK carries.
func (s *Sender[M, P]) Epoch(e uint32) Verdict {
	switch {
	case e == 0 || e == s.epoch:
		return Fresh
	case s.epoch == 0:
		s.epoch = e
		return Fresh
	case e < s.epoch:
		return Stale
	}
	s.epoch = e
	return Rewind
}

// Resync takes a rebooted receiver's request to rewind to seq; true if
// the flow must. In the same epoch only a window past seq rewinds (a
// duplicate request lands here harmlessly).
func (s *Sender[M, P]) Resync(epoch uint32, seq uint64) bool {
	switch {
	case epoch != 0 && epoch < s.epoch:
		return false
	case epoch != 0 && epoch > s.epoch:
		s.epoch = epoch
		return true
	}
	return s.win.Len() > 0 && s.win.At(0).Seq > seq
}

// Rewind restarts the emptied flow at sequence zero, the peer's receive
// state having died with its firmware, and re-admits the peer so the
// replay of Flights does not fail fast; true if it was Dead or Probing.
func (s *Sender[M, P]) Rewind() bool {
	s.next = 0
	return s.PeerUp()
}

// Nack takes a NACK; a nonzero id names a message the receiver refuses
// for good. Refuse returns it, its packets in the window now Void; if
// its last fragment is not among them, the rest will be dropped.
func (s *Sender[M, P]) Nack(id uint64) (v Verdict, m M) {
	if s.win.Len() == 0 {
		return Idle, m
	}
	i, ok := s.flight(id)
	if id == 0 || !ok {
		return Backoff, m // a retransmit, or a refusal acted on already
	}
	m = s.flights.Remove(i).Msg
	sent := false
	for j := 0; j < s.win.Len(); j++ {
		if e := s.win.At(j); e.Msg == m {
			e.Void, sent = true, sent || e.Last
		}
	}
	if !sent {
		s.markFailed(id, true)
	}
	return Refuse, m
}

// Timeout takes the retransmit or probe timer's expiry.
func (s *Sender[M, P]) Timeout(now int64) (Verdict, Note) {
	switch {
	case s.down():
		s.health = Probing
		return Probe, 0
	case s.win.Len() == 0:
		return Idle, 0
	}
	if s.retries++; s.retries > s.cfg.MaxRetries {
		for i := 0; i < s.win.Len(); i++ {
			e := s.win.At(i)
			for j := 0; j < s.win.Len() && !e.complete; j++ {
				e.complete = s.win.At(j).Last && s.win.At(j).MsgID == e.MsgID
			}
		}
		return GiveUp, 0
	}
	if s.health == Up {
		s.health = Suspect
	}
	if !s.cfg.Adaptive {
		return Resend, 0
	}
	// A timeout is RTT evidence too: the oldest packet waited this long.
	// Without it Karn's rule starves the estimator on a gray rail, where
	// every packet is resent before its ACK lands.
	return Resend, s.sample(now - s.win.At(0).SentAt)
}

// Resending marks the entry at absolute index abs, if still there, sent
// again: its ACK is ambiguous and never sampled.
func (s *Sender[M, P]) Resending(abs uint64) {
	if e := s.win.Live(abs); e != nil {
		e.retx = true
	}
}

// Abandon takes a live, non-void entry of a flow that gave up out of
// Flights and says whether it reports its message's failure: the first
// such entry of a message that reports (the caller's say) does. A
// message whose last fragment was not in the window then is failed as
// reported, so its trailing fragments are dropped.
func (s *Sender[M, P]) Abandon(e *Entry[M, P], reports bool) bool {
	s.Forget(e.MsgID)
	if e.seen || !reports {
		return false
	}
	for i := 0; i < s.win.Len(); i++ {
		if o := s.win.At(i); o.MsgID == e.MsgID {
			o.seen = true
		}
	}
	if !e.complete {
		s.markFailed(e.MsgID, true)
	}
	return true
}

// Down marks the peer Dead once its flow gave up and was emptied; true
// if it was not Dead or Probing already: probes start.
func (s *Sender[M, P]) Down() bool {
	s.retries = 0
	if s.down() {
		return false
	}
	s.health = Dead
	return true
}

// DoneRing is the depth of a receiver's ring of delivered messages, and
// of the kernel journal's mirror of it. It covers the messages that can
// be unretired in the sender's journal at once, which the send window
// bounds far below it.
const DoneRing = 128

// Receiver is the receiving half of a flow.
type Receiver struct {
	cfg        *Config
	expect     uint64
	epoch      uint32 // the sender's boot epoch, as stamped on its packets
	lastResync int64
	// done holds the last DoneRing messages delivered: a rebooted sender's
	// journal replays one, and it is swallowed. Ids from one card only
	// grow, so one above doneMax needs no look in the ring.
	done    sim.Ring[uint64]
	doneMax uint64
}

// NewReceiver returns the flow from a peer.
func NewReceiver(cfg *Config) Receiver { return Receiver{cfg: cfg} }

// Expect is the next sequence in order.
func (r *Receiver) Expect() uint64 { return r.expect }

// Arrive takes the header of a packet that passed its CRC. A newer sender
// epoch restarts the numbering (its journal replays partial messages
// from fragment zero, and the done ring swallows whole ones); from is
// then the epoch replaced. rebooted says this card rebooted: a gap is
// then permanent and asks for a rewind, at most every RTO/2.
func (r *Receiver) Arrive(seq uint64, epoch uint32, rebooted bool, now int64) (v Verdict, from uint32) {
	if epoch != 0 && epoch != r.epoch {
		if epoch < r.epoch {
			return Stale, 0
		}
		if r.epoch != 0 {
			r.expect, from = 0, r.epoch
		}
		r.epoch = epoch
	}
	switch {
	case seq < r.expect:
		return Dup, from
	case seq == r.expect:
		return Accept, from
	case !rebooted || r.epoch == 0 || r.lastResync != 0 && now-r.lastResync < r.cfg.RTO/2:
		return Gap, from
	}
	r.lastResync = now
	return Resync, from
}

// Accept consumes the expected sequence: the packet's bytes landed.
func (r *Receiver) Accept() { r.expect++ }

// Done reports whether id is among the last DoneRing messages recorded.
func (r *Receiver) Done(id uint64) bool {
	for i := 0; id <= r.doneMax && i < r.done.Len(); i++ {
		if *r.done.At(i) == id {
			return true
		}
	}
	return false
}

// Record enters a delivered message; the oldest makes way.
func (r *Receiver) Record(id uint64) {
	r.doneMax = max(r.doneMax, id)
	r.done.PushLast(id, DoneRing)
}

// Restore re-enters the journal's mirror of the ring, oldest first,
// after this card's reboot wiped it; an id named twice enters once.
func (r *Receiver) Restore(ids []uint64) {
	for _, id := range ids {
		if !r.Done(id) {
			r.Record(id)
		}
	}
}
