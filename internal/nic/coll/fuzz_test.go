package coll

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"

	"bcl/internal/fabric"
)

// The world FuzzCollective runs: up to eight Members of one context over
// a fuzz-drawn plan (binomial or k-ary, any root) run a few collectives:
// multicasts from any origin, and combines in release mode (Allreduce,
// Barrier) or not (Reduce). Member i contributes 1<<i as an Int64 sum,
// so a result names exactly the members it folded. Every member posts
// every combine; an origin posts its multicast. Around the cores the
// world models what the NIC does physically: a Send rides a per-link
// FIFO (a fixed latency, never overtaking), and a Member's acts take no
// time, so each decision reads health at the instant it is made.
//
// One fuzz byte per Send picks its fault; each stands for a go-back-N
// outcome:
//   - stall: a wire loss go-back-N heals by retransmitting, so the link
//     delivers the packet, and everything behind it, late;
//   - fail: retries exhaust on a receiver that is alive (an outage that
//     outlasts the retry ladder): the packet is lost, and the sender
//     gets Failed and believes the receiver dead from then on;
//   - dup: as fail, but the packet had landed and only its ACKs were
//     lost, so the receiver has it too: the healing path sends it a
//     second way;
//   - drop: the receiver ACKs the packet and dies before its engine
//     takes it, so the sender is never told.
//
// Before the run, one byte per member may kill it at a time (never the
// root): a packet landing on a dead member is lost, and its sender gets
// Failed a retry ladder later. No fault hits a packet to the root: a
// dead root is not supported. When the bytes run out the faults stop.
//
// A member is live if it never died and no forward to it failed. The
// checks: a member completes each instance at most once; a combine's
// result is the fold of exactly the members outside its dead mask, and
// that mask names no live member; a result never opens before every
// live member has posted; each member sends at most one aggregate up
// per instance (a re-route after a failed forward carries the same one,
// a retry its own bit); a multicast reaches every live member exactly
// once; and once the faults stop, every instance settles within settle
// of the last fault or post, no member holding SRAM or a journal hold
// for an instance it is done with.
//
// Left out by name, the semantics DESIGN §9 documents:
//   - unhealedReduce: a non-release combine in a run with a fault need
//     not complete; it relies on go-back-N alone, so an aggregate lost
//     in a dying member, or sent around a member a failed forward left
//     believed dead (the belief outlives the instance), is not healed;
//   - deadUnnoticed: a combine whose root waits on a member that died
//     with no forward to it failing need not complete (a dead leaf
//     blocks a barrier: its arrival can never be certified);
//   - lostInDeath: a multicast a member ACKed and then died with is not
//     re-sent, so the members below it may miss it.

const (
	latency  = 10  // one link
	stallFor = 30  // a retransmit timeout
	failTime = 100 // a send to its Failed: the whole retry ladder
	retryMin = 200 // the first re-offer, eight timeouts
)

// retryDelay is the world's Arm: doubling per round up to eight times
// the first, as the engine's collRetryDelay.
func retryDelay(round int) int64 { return retryMin << min(round, 3) }

// settle bounds how long after the last fault or post every instance
// takes to settle: failures detected down the deepest path, a member's
// longest wait for its next retry twice over, and the result's way down.
func settle(n int) int64 {
	return int64(n)*(failTime+2*latency+stallFor) + 2*retryDelay(retryRounds)
}

type evKind uint8

const (
	evPost evKind = iota
	evArrive
	evFailed
	evRetry
	evDie
)

type event struct {
	at, seq  int64
	kind     evKind
	to, from int // evArrive: receiver and sender; evFailed: the sender and the dead receiver
	pkt      *fabric.Packet
	inst     int    // evPost
	cseq     uint64 // evRetry: the combine; gen: the timer it belongs to
	gen      int
	told     bool // evArrive: the sender gets Failed for it already
	drop     bool // evArrive: the receiver dies as it lands, after its ACK
}

type queue []*event

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *queue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type instance struct {
	mcast   bool
	release bool
	origin  int    // multicast
	seq     uint64 // combine seq, or the origin's multicast seq
}

type member struct {
	core     *Member
	died     bool
	suspect  bool // a forward to it failed
	believed uint64
	posted   map[int]int64 // instance -> post time
	took     map[mkey]bool // multicasts it held
	sram     int
	holds    map[uint64]bool
	timers   map[uint64]int // seq -> live timer generation
	done     map[string]int
	upMasks  map[uint64]uint64
}

type world struct {
	t         *testing.T
	b         []byte
	pl        Plan
	ms        []*member
	insts     []instance
	q         queue
	now       int64
	nseq      int64
	gen       int
	last      map[[2]int]int64 // per-link FIFO: last arrival
	quiet     int64            // the last fault or post
	faulty    bool             // a fault byte hit a Send, or a member died
	rerouting bool             // a Member is taking Failed
	lastAct   int64
}

// next draws a fault byte; 0xff (no fault) once the bytes run out.
func (w *world) next() byte {
	if len(w.b) == 0 {
		return 0xff
	}
	c := w.b[0]
	w.b = w.b[1:]
	return c
}

func (w *world) at(t int64, e *event) {
	e.at, e.seq = t, w.nseq
	w.nseq++
	heap.Push(&w.q, e)
}

// instOf finds the instance of pkt, a multicast's or a combine's.
func (w *world) instOf(pkt *fabric.Packet, mcast bool) *instance {
	for k := range w.insts {
		in := &w.insts[k]
		if in.mcast == mcast && in.seq == pkt.Coll.Seq &&
			(!in.mcast || in.origin == pkt.Coll.Origin) {
			return in
		}
	}
	w.t.Fatalf("packet %+v of no instance", pkt.Coll)
	return nil
}

// die kills member m at now; the root never dies.
func (w *world) die(m int) {
	if m != w.pl.Root {
		w.ms[m].died, w.faulty = true, true
	}
}

// acts is one member's Acts in the world.
type acts struct {
	w  *world
	me int
}

func (a acts) Healthy(m int) bool { return a.w.ms[a.me].believed&Bit(m) == 0 }

func (a acts) Send(m int, p *fabric.Packet) {
	w := a.w
	pkt := *p
	if pkt.Kind == fabric.KindCollComb && pkt.Coll.Mask != Bit(a.me) {
		w.noteUp(a.me, &pkt)
	}
	if !a.Healthy(m) { // a dead peer fails fast
		w.at(w.now+1, &event{kind: evFailed, to: a.me, from: m, pkt: &pkt})
		return
	}
	e := &event{kind: evArrive, to: m, from: a.me, pkt: &pkt}
	arrive := max(w.now+latency, w.last[[2]int{a.me, m}]+1)
	if f := w.fault(m); f <= drop {
		w.faulty = true
		switch f {
		case stall:
			arrive += stallFor
		case fail, dup:
			w.ms[m].suspect, e.told = true, true
			w.at(w.now+failTime, &event{kind: evFailed, to: a.me, from: m, pkt: &pkt})
			w.quiet = max(w.quiet, w.now+failTime)
			if f == fail {
				return
			}
		case drop:
			e.drop = true
		}
		w.quiet = max(w.quiet, arrive)
	}
	w.last[[2]int{a.me, m}] = arrive
	w.at(arrive, e)
}

// The faults a fuzz byte picks for a Send, by its value mod 8; any other
// value, or a packet to the root, delivers.
const (
	stall byte = iota
	fail
	dup
	drop
)

func (w *world) fault(to int) byte {
	if to == w.pl.Root {
		return 0xff
	}
	return w.next() % 8
}

// noteUp checks forward-once: a member sends one aggregate up per
// instance, but for its own single bit (a retry); only a re-route after
// a failed forward sends it again, with the same mask.
func (w *world) noteUp(me int, pkt *fabric.Packet) {
	m := w.ms[me]
	if prev, ok := m.upMasks[pkt.Coll.Seq]; ok && (prev != pkt.Coll.Mask || !w.rerouting) {
		w.t.Fatalf("member %d sent seq %d up twice: masks %#x and %#x", me, pkt.Coll.Seq, prev, pkt.Coll.Mask)
	}
	m.upMasks[pkt.Coll.Seq] = pkt.Coll.Mask
}

func (a acts) Deliver(pkt *fabric.Packet, result bool) {
	w, m := a.w, a.w.ms[a.me]
	in := w.instOf(pkt, !result)
	key := fmt.Sprintf("%v/%d/%d", in.mcast, in.origin, in.seq)
	if m.done[key]++; m.done[key] > 1 {
		w.t.Fatalf("member %d completed %s twice", a.me, key)
	}
	w.lastAct = w.now
	if in.mcast {
		w.take(a.me, pkt)
		if got := binary.LittleEndian.Uint64(pkt.Payload); got != mcastWord(in) {
			w.t.Fatalf("member %d: multicast %s carries %#x", a.me, key, got)
		}
		return
	}
	full := w.pl.FullMask()
	got := binary.LittleEndian.Uint64(pkt.Payload)
	if want := full &^ pkt.Coll.Dead; got != want {
		w.t.Fatalf("member %d: result of seq %d is %#x with dead mask %#x; want %#x", a.me, in.seq, got, pkt.Coll.Dead, want)
	}
	for i, o := range w.ms {
		if w.live(i) && pkt.Coll.Dead&Bit(i) != 0 {
			w.t.Fatalf("member %d: seq %d's dead mask %#x names live member %d", a.me, in.seq, pkt.Coll.Dead, i)
		}
		if t, ok := o.posted[w.instIndex(in)]; pkt.Coll.Dead&Bit(i) == 0 && (!ok || t > w.now) {
			w.t.Fatalf("member %d: seq %d opened at %d before member %d posted", a.me, in.seq, w.now, i)
		}
	}
}

func (a acts) Hold(b int)                        { a.w.ms[a.me].sram += b }
func (a acts) Free(b int)                        { a.w.ms[a.me].sram -= b }
func (a acts) Fold(uint64)                       {}
func (a acts) Keep(seq, _ uint64)                { a.w.ms[a.me].holds[seq] = true }
func (a acts) Retire(seq uint64)                 { delete(a.w.ms[a.me].holds, seq) }
func (a acts) Note(Note, *fabric.Packet, uint64) {}

func (a acts) Arm(seq uint64, round int) {
	w := a.w
	w.gen++
	w.ms[a.me].timers[seq] = w.gen
	w.at(w.now+retryDelay(round), &event{kind: evRetry, to: a.me, cseq: seq, gen: w.gen})
}

func (a acts) Disarm(seq uint64) { delete(a.w.ms[a.me].timers, seq) }

// take records that member i holds a multicast: it must see it
// through to its subtree, or heal around it.
func (w *world) take(i int, pkt *fabric.Packet) {
	if pkt.Kind == fabric.KindCollMcast && !pkt.Coll.Release {
		w.ms[i].took[mkey{pkt.Coll.Origin, pkt.Coll.Seq}] = true
	}
}

// lostInDeath reports whether a member above i in the plan took
// multicast k and died.
func (w *world) lostInDeath(i int, k mkey) bool {
	for _, a := range w.pl.Ancestors(i) {
		if w.ms[a].died && w.ms[a].took[k] {
			return true
		}
	}
	return false
}

func (w *world) live(i int) bool { return !w.ms[i].died && !w.ms[i].suspect }

func (w *world) instIndex(in *instance) int {
	for k := range w.insts {
		if &w.insts[k] == in {
			return k
		}
	}
	return -1
}

func mcastWord(in *instance) uint64 { return uint64(in.origin)<<32 | in.seq }

// runCollective decodes b into a world, runs it to quiescence and
// checks it.
func runCollective(t *testing.T, b []byte) {
	if len(b) < 4 {
		return
	}
	n := 2 + int(b[0])%7
	pl := Plan{N: n, Root: int(b[1]) % n, Radix: int(b[2]) % 4}
	w := &world{t: t, pl: pl, last: make(map[[2]int]int64)}
	k := 1 + int(b[3])%4
	b = b[4:]
	var combs uint64
	mseq := make([]uint64, n)
	for i := 0; i < k; i++ {
		c := byte(i * 3)
		if len(b) > 0 {
			c, b = b[0], b[1:]
		}
		in := instance{mcast: c%3 == 0, release: c%3 == 1, origin: int(c/3) % n}
		if in.mcast {
			mseq[in.origin]++
			in.seq = mseq[in.origin]
		} else {
			combs++
			in.seq = combs
		}
		w.insts = append(w.insts, in)
	}
	for i := 0; i < n; i++ {
		w.ms = append(w.ms, &member{core: NewMember(pl, i), posted: make(map[int]int64), took: make(map[mkey]bool), holds: make(map[uint64]bool),
			timers: make(map[uint64]int), done: make(map[string]int), upMasks: make(map[uint64]uint64)})
		d := byte(0xff)
		if len(b) > 0 {
			d, b = b[0], b[1:]
		}
		if d < 32 && i != pl.Root {
			w.at(int64(d)*8, &event{kind: evDie, to: i})
			w.quiet = max(w.quiet, int64(d)*8)
		}
		for j, in := range w.insts {
			if !in.mcast || in.origin == i {
				w.at(int64(j)*50+int64(i*7+j*13)%40, &event{kind: evPost, to: i, inst: j})
			}
		}
	}
	w.b = b
	for w.q.Len() > 0 {
		e := heap.Pop(&w.q).(*event)
		w.now = e.at
		m := w.ms[e.to]
		if m.died {
			if e.kind == evArrive && !e.told { // landed on a dead member: its sender finds out
				w.at(w.now+failTime, &event{kind: evFailed, to: e.from, from: e.to, pkt: e.pkt})
			}
			continue
		}
		a := acts{w, e.to}
		switch e.kind {
		case evDie:
			w.die(e.to)
		case evPost:
			in := &w.insts[e.inst]
			m.posted[e.inst] = w.now
			w.quiet = max(w.quiet, w.now)
			pkt := &fabric.Packet{Kind: fabric.KindCollComb, Coll: fabric.CollHdr{Seq: in.seq, Op: uint8(OpSum), DT: uint8(Int64), Release: in.release},
				Payload: binary.LittleEndian.AppendUint64(nil, uint64(1)<<e.to), MsgID: uint64(e.inst + 1)}
			if in.mcast {
				pkt.Kind, pkt.Payload = fabric.KindCollMcast, binary.LittleEndian.AppendUint64(nil, mcastWord(in))
				m.took[mkey{e.to, in.seq}] = true
			}
			m.sram += len(pkt.Payload)
			m.core.Post(a, pkt, len(pkt.Payload))
		case evArrive:
			if e.drop {
				w.take(e.to, e.pkt)
				w.die(e.to)
				if m.died {
					continue
				}
			}
			m.core.Receive(a, e.pkt)
		case evFailed:
			m.believed |= Bit(e.from)
			w.rerouting = true
			m.core.Failed(a, e.from, e.pkt)
			w.rerouting = false
		case evRetry:
			if m.timers[e.cseq] == e.gen {
				delete(m.timers, e.cseq)
				m.core.Retry(a, e.cseq)
			}
		}
	}
	w.settled()
}

// settled checks the world at quiescence.
func (w *world) settled() {
	if w.lastAct > w.quiet+settle(w.pl.N) {
		w.t.Fatalf("last completion at %d, past the settle bound %d after the last fault or post at %d",
			w.lastAct, settle(w.pl.N), w.quiet)
	}
	root := w.ms[w.pl.Root].core
	for k, in := range w.insts {
		key := fmt.Sprintf("%v/%d/%d", in.mcast, in.origin, in.seq)
		if _, posted := w.ms[in.origin].posted[k]; in.mcast && !posted {
			continue // its origin died first
		} else if in.mcast {
			for i, m := range w.ms {
				if w.live(i) && i != in.origin && m.done[key] != 1 && !w.lostInDeath(i, mkey{in.origin, in.seq}) {
					w.t.Fatalf("multicast %s (instance %d) reached live member %d %d times", key, k, i, m.done[key])
				}
			}
			continue
		}
		r := root.insts[in.seq]
		if r == nil || !r.done {
			waiting := w.pl.FullMask()
			if r != nil {
				waiting &^= r.mask | r.dead
			}
			if !in.release && w.faulty || w.diedAmong(waiting) {
				continue // unhealedReduce, deadUnnoticed
			}
			w.t.Fatalf("combine %s (instance %d) never completed: the root waits on %#x", key, k, waiting)
		}
		for i, m := range w.ms {
			if in.release && w.live(i) && m.done[key] != 1 {
				w.t.Fatalf("release %s: live member %d completed %d times", key, i, m.done[key])
			}
		}
	}
	for i, m := range w.ms {
		if m.died {
			continue
		}
		if held := m.core.SRAM(); m.sram != held {
			w.t.Fatalf("member %d: %d B of SRAM taken, its records hold %d", i, m.sram, held)
		}
		for seq, r := range m.core.insts {
			if (r.done || r.sent) && r.sram != 0 || r.done && (r.ownSRAM != 0 || m.holds[seq]) {
				w.t.Fatalf("member %d: seq %d done or sent up, still holding %d B + %d B of SRAM, journal hold %v",
					i, seq, r.sram, r.ownSRAM, m.holds[seq])
			}
		}
	}
}

func (w *world) diedAmong(mask uint64) bool {
	for ; mask != 0; mask &= mask - 1 {
		if w.ms[bits.TrailingZeros64(mask)].died {
			return true
		}
	}
	return false
}

// FuzzCollective runs the protocol core of the NIC-offloaded collectives
// against the world above; see its comment for the faults, the checks
// and what is left out.
func FuzzCollective(f *testing.F) {
	for _, s := range [][]byte{
		{6, 0, 0, 3, 0, 1, 2, 0xff, 0xff},
		{7, 1, 2, 3, 1, 4, 0, 5, 0xff, 3, 9, 9, 9, 1, 2, 2, 9},
		{5, 0, 0, 2, 2, 0, 0xff, 0, 0xff, 0xff, 0xff, 0xff, 1, 9, 2, 2},
	} {
		f.Add(s)
	}
	f.Fuzz(runCollective)
}
