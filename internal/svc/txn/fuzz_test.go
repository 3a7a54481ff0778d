package txn

import (
	"fmt"
	"testing"
)

// The world FuzzTwoPC runs: a client sends transactions to a
// coordinator, which runs them over two participants, in the style of
// 2pc.lts. Every node is the core as the shard server drives it, and a
// model of what the server does physically: the coordinator's reply
// cache and PREPARE bodies, a participant's applies. Each ordered pair
// of nodes has a FIFO link: a message arrives a fixed latency after it
// left, never overtaking another, unless the fuzz bytes drop or
// duplicate it (2pc.lts's lost_a and lost_b, at every message). The
// client retransmits a request until it is answered, and sends a
// channel's next request only then. When the bytes run out the faults
// stop.
//
// The checks: a transaction's writes are applied at every one of its
// participants or at none, and once at most; an OK answer means they
// were applied, an Aborted one that they were not; no participant
// applies a transaction after the coordinator forgot it aborted; every
// request is executed at most once, and is answered, every answer to it
// the same; and once the links are quiet, no stage or prepare lock is
// held and the coordinator remembers nothing.
//
// What the model leaves out: links that reorder. The server's ride
// BCL's go-back-N flows, which keep order, and with FIFO links a copy of
// a PREPARE never arrives after its COMMIT, nor a request's after the
// channel's next request. Without that order, a duplicate PREPARE that
// arrives after its applied entry was evicted is staged afresh and, if
// the coordinator still awaits another part's ack, an INQUIRE brings it
// a second COMMIT: the transaction is applied twice.

const (
	latency   = 10_000  // one link, ns
	rto       = 100_000 // the coordinator's and participants' base timeout
	clientRTO = 200_000 // a client's retransmit interval
)

// settleTime bounds how long after the last fault every request is
// answered and every node is quiet: per request a client retransmit and
// two retransmit ladders at the 16-RTO ceiling, then a last inquiry.
func settleTime(reqs int) int64 {
	return int64(reqs)*(clientRTO+2*32*rto) + 32*rto
}

// The nodes.
const (
	client = iota
	coord
	part1
	part2
	nodes
)

type kind uint8

const (
	request kind = iota
	reply
	prepare
	vote
	commit
	abort
	txnAck
	inquire
)

type msg struct {
	at     int64
	kind   kind
	from   int
	ch     uint16 // request, reply
	seq    uint32
	req    int    // request: the request's index
	status byte   // reply
	txid   uint64 // the 2PC messages
	flow   uint64
	yes    bool   // vote
	body   []byte // prepare: the keys written, one byte each
}

// Reply statuses.
const (
	statusOK byte = iota + 1
	statusAborted
)

// req is one client transaction: a write to each key of mask, key k at
// participant part1 + k%2.
type req struct {
	ch       uint16
	seq      uint32
	mask     byte
	answered bool
	status   byte
	execs    int
	txid     uint64
}

// txnRec is what the world knows of a transaction the coordinator began.
type txnRec struct {
	parts   [nodes]bool
	applied [nodes]int
	aborted bool // the coordinator decided abort, and forgot it
}

type world struct {
	t    *testing.T
	prog []byte
	pos  int
	now  int64

	reqs    []req
	next    [2]int   // per channel: the request outstanding, or the next to send
	resend  [2]int64 // per channel: the client's retransmit deadline, 0 when idle
	txns    map[uint64]*txnRec
	links   [nodes][nodes][]msg
	lastFlt int64

	c     Coordinator[int]
	cache Cache
	parts [nodes]Participant[int] // at part1 and part2
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

// send puts m on the link from m.from to to, where the fuzz bytes may
// drop or duplicate it.
func (w *world) send(to int, m msg) {
	m.at = w.now + latency
	link := &w.links[m.from][to]
	switch b := w.draw(); {
	case b < 24:
		w.lastFlt = w.now
		return
	case b < 40:
		w.lastFlt = w.now
		*link = append(*link, m)
	}
	*link = append(*link, m)
}

// issue sends channel ch's outstanding request, if it has one.
func (w *world) issue(ch uint16) {
	w.resend[ch] = 0
	for i := w.next[ch]; i < len(w.reqs); i++ {
		if r := &w.reqs[i]; r.ch == ch {
			w.next[ch] = i
			w.resend[ch] = w.now + clientRTO
			w.send(coord, msg{kind: request, from: client, ch: ch, seq: r.seq, req: i})
			return
		}
	}
	w.next[ch] = len(w.reqs)
}

// atClient handles a reply.
func (w *world) atClient(m msg) {
	i := -1
	for j := range w.reqs {
		if w.reqs[j].ch == m.ch && w.reqs[j].seq == m.seq {
			i = j
		}
	}
	if i < 0 || i > w.next[m.ch] {
		w.failf("an answer to channel %d seq %d, which was never sent", m.ch, m.seq)
	}
	r := &w.reqs[i]
	if r.answered {
		if m.status != r.status {
			w.failf("request %d answered %d, then %d", i, r.status, m.status)
		}
		return
	}
	r.answered, r.status = true, m.status
	w.next[m.ch] = i + 1
	w.issue(m.ch)
}

// answer is the coordinator's reply to a decided transaction's request,
// recorded in its cache first, as the server's reply does.
func (w *world) answer(t *Txn[int], status byte) {
	w.cache.Record(t.Ch, t.Seq, t.Flow, status, 0, nil)
	w.send(client, msg{kind: reply, from: coord, ch: t.Ch, seq: t.Seq, status: status})
}

func (w *world) sendTxn(to int, k kind, txid, flow uint64) {
	w.send(to, msg{kind: k, from: coord, txid: txid, flow: flow})
}

func (w *world) sendPrepare(t *Txn[int], p *Part[int]) {
	// A copy, as the server's send copies the body into its buffer.
	w.send(p.To, msg{kind: prepare, from: coord, txid: t.ID, flow: t.Flow, body: append([]byte(nil), p.Body...)})
}

// atCoord handles a message at the coordinator.
func (w *world) atCoord(m msg) {
	switch m.kind {
	case request:
		rc, v := w.cache.Lookup(m.ch, m.seq)
		switch v {
		case Replay:
			w.send(client, msg{kind: reply, from: coord, ch: m.ch, seq: m.seq, status: rc.Status})
			return
		case Drop:
			return
		}
		r := &w.reqs[m.req]
		if r.execs++; r.execs > 1 {
			w.failf("request %d executed twice", m.req)
		}
		t := w.c.Begin(0, m.ch, m.seq, uint64(m.req+1), w.now)
		r.txid = t.ID
		rec := &txnRec{}
		w.txns[t.ID] = rec
		for k := range 4 {
			if r.mask&(1<<k) != 0 {
				p, _ := w.c.Join(t, part1+k%2)
				p.Body = append(p.Body, byte(k))
				rec.parts[p.To] = true
			}
		}
		w.cache.Begin(m.ch, m.seq)
		for _, p := range t.Parts {
			w.sendPrepare(t, p)
		}
	case vote:
		switch t, v := w.c.Vote(m.txid, m.from, m.yes, w.now); v {
		case Abort:
			w.txns[t.ID].aborted = true
			for _, p := range t.Parts {
				w.sendTxn(p.To, abort, t.ID, t.Flow)
			}
			w.answer(t, statusAborted)
		case Commit:
			for _, p := range t.Parts {
				w.sendTxn(p.To, commit, t.ID, t.Flow)
			}
		}
	case txnAck:
		if t, v := w.c.Ack(m.txid, m.from); v == Committed {
			w.answer(t, statusOK)
		}
	case inquire:
		switch t, v := w.c.Inquire(m.txid, m.from); v {
		case Commit:
			w.sendTxn(m.from, commit, t.ID, t.Flow)
		case Abort:
			w.sendTxn(m.from, abort, m.txid, 0)
		}
	}
}

// atPart handles a message at participant n.
func (w *world) atPart(n int, m msg) {
	pt := &w.parts[n]
	switch m.kind {
	case prepare:
		ops := make([]Op, len(m.body))
		for i, k := range m.body {
			ops[i] = Op{Key: []byte{'k', '0' + k}, Val: []byte{byte(m.flow)}}
		}
		v := pt.Prepare(m.txid, m.from, m.flow, ops, w.now)
		w.send(m.from, msg{kind: vote, from: n, txid: m.txid, yes: v != VoteNo})
	case commit:
		if _, v := pt.Commit(m.txid); v == Apply {
			rec := w.txns[m.txid]
			if rec.aborted {
				w.failf("participant %d applies transaction %x, which the coordinator aborted and forgot", n, m.txid)
			}
			if rec.applied[n]++; rec.applied[n] > 1 {
				w.failf("participant %d applies transaction %x again", n, m.txid)
			}
		}
		w.send(m.from, msg{kind: txnAck, from: n, txid: m.txid})
	case abort:
		pt.Abort(m.txid)
	}
}

// timers runs every node's deadlines that passed, as the server's
// runTimers does after each event.
func (w *world) timers() {
	w.c.Due(w.now, func(t *Txn[int]) {
		for _, p := range t.Parts {
			switch t.Resend(p) {
			case Prepare:
				w.sendPrepare(t, p)
			case Commit:
				w.sendTxn(p.To, commit, t.ID, t.Flow)
			}
		}
	})
	for n := part1; n <= part2; n++ {
		w.parts[n].Due(w.now, func(st *Stage[int]) {
			w.send(st.Coord, msg{kind: inquire, from: n, txid: st.Txid})
		})
	}
	for ch := range w.resend {
		if d := w.resend[ch]; d > 0 && d <= w.now {
			w.issue(uint16(ch))
		}
	}
}

// step runs the earliest event; false once nothing is pending.
func (w *world) step() bool {
	const never = int64(1) << 62
	next := w.c.NextDue(never)
	for n := part1; n <= part2; n++ {
		next = w.parts[n].NextDue(next)
	}
	for _, d := range w.resend {
		if d > 0 {
			next = min(next, d)
		}
	}
	from, to := -1, -1
	for i := range w.links {
		for j, l := range w.links[i] {
			if len(l) > 0 && (l[0].at < next || l[0].at == next && from < 0) {
				next, from, to = l[0].at, i, j
			}
		}
	}
	if next == never {
		return false
	}
	w.now = next
	if from >= 0 {
		m := w.links[from][to][0]
		w.links[from][to] = w.links[from][to][1:]
		switch to {
		case client:
			w.atClient(m)
		case coord:
			w.atCoord(m)
		default:
			w.atPart(to, m)
		}
	}
	w.timers()
	return true
}

// runTwoPC plays prog: its first byte picks the requests (one to three)
// and how many applied transactions a participant remembers (one or
// two), the next one per request its channel and keys; the rest decide
// each message's fate.
func runTwoPC(t *testing.T, prog []byte) {
	w := &world{t: t, prog: prog, txns: map[uint64]*txnRec{}, cache: NewCache()}
	b := w.draw()
	n, applied := 1+int(b%3), 1+int(b/3%2)
	seqs := [2]uint32{}
	for range n {
		b := w.draw()
		ch := uint16(b % 2)
		seqs[ch]++
		w.reqs = append(w.reqs, req{ch: ch, seq: seqs[ch], mask: 1 + b/2%15})
	}
	w.c = NewCoordinator[int](0, rto)
	for n := part1; n <= part2; n++ {
		w.parts[n] = NewParticipant[int](rto, interner{})
		w.parts[n].appliedCap = applied
	}
	w.issue(0)
	w.issue(1)
	for w.step() {
		if w.now > w.lastFlt+settleTime(n) {
			w.failf("not quiet %d ns after the last fault", settleTime(n))
		}
	}
	for i, r := range w.reqs {
		if !r.answered {
			w.failf("request %d never answered", i)
		}
		if r.execs == 0 {
			w.failf("request %d answered %d, never executed", i, r.status)
		}
		rec := w.txns[r.txid]
		var at, of int
		for n := part1; n <= part2; n++ {
			if rec.parts[n] {
				of++
				at += rec.applied[n]
			}
		}
		switch {
		case at != 0 && at != of:
			w.failf("request %d's transaction applied at %d of its %d participants", i, at, of)
		case r.status == statusOK && at == 0:
			w.failf("request %d answered OK, its transaction applied nowhere", i)
		case r.status == statusAborted && at != 0:
			w.failf("request %d answered Aborted, its transaction applied", i)
		}
	}
	for n := part1; n <= part2; n++ {
		if p := &w.parts[n]; len(p.locks) != 0 || len(p.staged) != 0 {
			w.failf("participant %d quiet with %d locks and %d stages held", n, len(p.locks), len(p.staged))
		}
	}
	if len(w.c.txns) != 0 {
		w.failf("the coordinator quiet with %d transactions", len(w.c.txns))
	}
}

func FuzzTwoPC(f *testing.F) {
	f.Add([]byte{2, 4, 5, 28})
	f.Add([]byte{5, 4, 10, 29, 200, 10, 200, 30, 200, 200, 5, 35, 200, 200, 200, 1, 200, 20})
	f.Add([]byte{1, 4, 4, 3, 200, 3, 200, 200, 3})
	f.Fuzz(runTwoPC)
}
