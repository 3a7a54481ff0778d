// Package txn is the service tier's protocol core: the presumed-abort
// two-phase commit and the exactly-once reply cache. It makes every
// decision and has no clock. The shard server carries the decisions out
// (frames and sends, the store and its versions, invalidations, key
// interning, traces, request marks, counters) and passes times in as
// nanoseconds.
//
// A Coordinator runs the transactions whose first key its shard owns.
// Inputs: Begin for a client's TXN (then Join once per written key's
// shard), Vote, Ack for a TXN-ACK, Inquire, and Due for its retransmit
// deadline, which asks Resend of each part of a due transaction. A Participant stages the transactions that write its keys.
// Inputs: Prepare, Commit, Abort, and Due for its inquiry deadline. A
// Cache is one session's replies. Input: Lookup for a request's (user
// channel, seq); Begin marks a request in progress and Record keeps its
// outcome.
//
// Verdicts, what the caller does:
//   - Execute: run the request. Replay: send the recorded reply again.
//     Drop: ignore it, the request is executing and will be answered.
//   - Prepare: send the part its PREPARE body. Commit: send COMMIT to
//     the part, or to every part on a Vote. Abort: on a Vote, send ABORT
//     to every part once, answer the client Aborted; on an Inquire, send
//     ABORT to the inquirer. Committed: every part applied; answer the
//     client OK. The coordinator has forgotten a transaction by the time
//     Abort or Committed is returned. None: nothing to send.
//   - VoteYes: vote YES again, the transaction is staged or applied here
//     already. VoteNo: vote NO. Staged: the writes are staged and their
//     keys locked; vote YES. Apply: the locks are released; apply the
//     stage's writes, then ack. Ack: ack without applying. Release: the
//     stage is dropped and its locks released. A stage Due hands out:
//     send an INQUIRE to its coordinator.
//
// Presumed abort: the coordinator keeps a transaction only while it is
// undecided or committed and not yet acked by every part. An abort is
// sent once, the client is answered, and the transaction is forgotten;
// so an ABORT may be lost, and a participant still staged inquires
// after 4 RTOs (then backs off). The coordinator answers an inquiry
// about a transaction it does not know with ABORT: forgotten means
// aborted, as a commit is remembered until every part acked it. About a
// transaction it knows and has not decided it stays silent: answering
// ABORT would unstage a YES voter that the commit decision may still
// count on, and that participant's later COMMIT would be acked without
// applying, a half-applied pair. Only a committed transaction is
// retransmitted past its decision (COMMIT until acked); an undecided one
// resends PREPARE to the parts that have not voted.
//
// A participant remembers the last AppliedCap transactions it applied,
// so a COMMIT or PREPARE duplicated after the apply is acked or
// re-voted, never applied again. An older PREPARE would be staged
// afresh: the links keep order, so no copy of a PREPARE arrives after
// its COMMIT. A COMMIT for a transaction it does not
// have staged is acked blind: the coordinator sends COMMIT only to parts
// that voted YES, so a blind ack confirms old news.
package txn

import "bcl/internal/sim"

// Verdict is what the core decided on one input.
type Verdict uint8

// Verdicts, by input.
const (
	None      Verdict = iota // Vote, Ack, Inquire, Resend: nothing to send
	Execute                  // Lookup: a new request
	Replay                   // Lookup: answered already; send the recorded reply
	Drop                     // Lookup: executing; its answer is on the way
	Prepare                  // Resend: send the part its PREPARE again
	Commit                   // Vote: commit, send COMMIT to every part; Inquire, Resend: to the part
	Abort                    // Vote: ABORT to every part, answer Aborted; Inquire: ABORT to the inquirer
	Committed                // Ack: every part applied; answer OK
	VoteYes                  // Prepare: a duplicate; vote YES again
	VoteNo                   // Prepare: a key is locked by another transaction
	Staged                   // Prepare: staged and locked; vote YES
	Apply                    // Commit: apply the stage's writes, then ack
	Ack                      // Commit: nothing staged; ack again
	Release                  // Abort: the stage is dropped and unlocked
)

// AppliedCap is how many applied transactions a participant remembers.
const AppliedCap = 2048

// Backoff doubles a retransmit timeout up to 16 times its base.
func Backoff(cur, base int64) int64 {
	return min(cur*2, base*16)
}

// ---------------------------------------------------------- reply cache

// Reply is a request's recorded outcome, kept as its fields: only a
// get's value is copied, into the buffer the channel's previous reply
// left. The fields are ordered widest first, 48 bytes with no padding.
type Reply struct {
	Flow   uint64
	Ver    uint64
	Val    []byte
	Seq    uint32
	Status byte
}

// Cache is one session's replies: per user channel the last request's
// outcome, and the request executing, if any. A client has one request
// outstanding per channel and its transport keeps order, so the last
// reply is the only one a retransmission can ask for.
//
// A duplicate is answered from the record, never executed again, reads
// included. A write would be applied twice. A read would answer a second
// time with whatever its key holds by then, so two copies of one request
// could get two answers; and it would put its session back on the key's
// interest list after a write cleared it, for a copy the client drops.
// Reads re-executed also leave the serve swarm undrained at sweep seeds
// 16, 20 and 25.
type Cache struct {
	last map[uint16]Reply
	busy map[uint16]uint32 // user channel -> seq executing
}

// NewCache returns an empty cache.
func NewCache() Cache {
	return Cache{last: make(map[uint16]Reply), busy: make(map[uint16]uint32)}
}

// Lookup is a request's arrival on user channel ch: Execute, Replay with
// the record, or Drop.
func (c *Cache) Lookup(ch uint16, seq uint32) (Reply, Verdict) {
	if r, ok := c.last[ch]; ok && r.Seq == seq {
		return r, Replay
	}
	if cur, ok := c.busy[ch]; ok && cur == seq {
		return Reply{}, Drop
	}
	return Reply{}, Execute
}

// Begin marks a request in progress: it is answered later, and its
// duplicates are dropped until then.
func (c *Cache) Begin(ch uint16, seq uint32) { c.busy[ch] = seq }

// Record keeps a request's outcome, a copy of val with it, and ends its
// progress.
func (c *Cache) Record(ch uint16, seq uint32, flow uint64, status byte, ver uint64, val []byte) {
	r := c.last[ch]
	r.Seq, r.Flow, r.Status, r.Ver = seq, flow, status, ver
	r.Val = append(r.Val[:0], val...)
	c.last[ch] = r
	delete(c.busy, ch)
}

// ---------------------------------------------------------- coordinator

// Coordinator is one shard's coordinating half, over part addresses A.
type Coordinator[A comparable] struct {
	shard uint64 // the txid's top 16 bits
	rto   int64
	next  uint64
	txns  map[uint64]*Txn[A]
	list  []*Txn[A] // creation order: Due's scan, so it is deterministic

	// Retired records, reused once Due drops them from the list.
	txnFree  sim.FreeList[*Txn[A]]
	partFree sim.FreeList[*Part[A]]
}

// Txn is a transaction as its coordinator keeps it: the request to
// answer, and its parts in the order their shards first appear.
type Txn[A comparable] struct {
	ID       uint64
	Sess, Ch uint16
	Seq      uint32
	Flow     uint64
	Parts    []*Part[A]

	decided, commit, done bool
	nextAt, rto           int64
}

// Part is a transaction's write set at one shard. Body is the caller's:
// the PREPARE it sends, kept for retransmission.
type Part[A comparable] struct {
	To   A
	Body []byte

	voted, yes, acked bool
}

// NewCoordinator returns the coordinator of shard, retransmitting from
// rto ns.
func NewCoordinator[A comparable](shard int, rto int64) Coordinator[A] {
	return Coordinator[A]{shard: uint64(shard), rto: rto, txns: make(map[uint64]*Txn[A])}
}

// Begin starts the transaction of a TXN request; the caller Joins its
// parts and sends each its PREPARE.
func (c *Coordinator[A]) Begin(sess, ch uint16, seq uint32, flow uint64, now int64) *Txn[A] {
	c.next++
	t := sim.Take(&c.txnFree)
	*t = Txn[A]{
		ID: c.shard<<48 | c.next, Sess: sess, Ch: ch, Seq: seq, Flow: flow,
		Parts: t.Parts[:0], nextAt: now + c.rto, rto: c.rto,
	}
	c.txns[t.ID] = t
	c.list = append(c.list, t)
	return t
}

// Join returns t's part at to, fresh (its Body empty) if t had none.
func (c *Coordinator[A]) Join(t *Txn[A], to A) (p *Part[A], fresh bool) {
	for _, p := range t.Parts {
		if p.To == to {
			return p, false
		}
	}
	p = sim.Take(&c.partFree)
	*p = Part[A]{To: to, Body: p.Body[:0]}
	t.Parts = append(t.Parts, p)
	return p, true
}

// Vote is from's vote on txid: Abort on a NO, Commit once every part
// voted YES, else None.
func (c *Coordinator[A]) Vote(txid uint64, from A, yes bool, now int64) (*Txn[A], Verdict) {
	t, ok := c.txns[txid]
	if !ok || t.decided {
		return nil, None
	}
	for _, p := range t.Parts {
		if p.To == from {
			p.voted, p.yes = true, yes
		}
	}
	all := true
	for _, p := range t.Parts {
		if !p.voted {
			all = false
		} else if !p.yes {
			t.decided, t.done = true, true
			delete(c.txns, txid)
			return t, Abort
		}
	}
	if !all {
		return t, None
	}
	t.decided, t.commit = true, true
	t.nextAt = now + t.rto
	return t, Commit
}

// Ack is from's TXN-ACK of a commit: Committed once every part acked.
func (c *Coordinator[A]) Ack(txid uint64, from A) (*Txn[A], Verdict) {
	t, ok := c.txns[txid]
	if !ok || !t.commit {
		return nil, None
	}
	for _, p := range t.Parts {
		if p.To == from {
			p.acked = true
		}
	}
	for _, p := range t.Parts {
		if !p.acked {
			return t, None
		}
	}
	t.done = true
	delete(c.txns, txid)
	return t, Committed
}

// Inquire is from's question about txid: Commit if it committed and
// from is one of its parts, Abort if it is forgotten, None while it is
// undecided.
func (c *Coordinator[A]) Inquire(txid uint64, from A) (*Txn[A], Verdict) {
	t, ok := c.txns[txid]
	if !ok {
		return nil, Abort
	}
	if t.commit {
		for _, p := range t.Parts {
			if p.To == from {
				return t, Commit
			}
		}
	}
	return t, None
}

// Due hands each transaction whose retransmit deadline passed by now to
// resend, which asks Resend of each part, and re-arms it with a
// backed-off timeout; it recycles the finished ones.
func (c *Coordinator[A]) Due(now int64, resend func(*Txn[A])) {
	live := c.list[:0]
	for _, t := range c.list {
		if t.done {
			for _, p := range t.Parts {
				c.partFree.Put(p)
			}
			c.txnFree.Put(t)
			continue
		}
		if now >= t.nextAt {
			resend(t)
			t.rto = Backoff(t.rto, c.rto)
			t.nextAt = now + t.rto
		}
		live = append(live, t)
	}
	c.list = live
}

// Resend is what a due transaction sends p again: Prepare while it is
// undecided and p has not voted, Commit after a commit until p acked.
func (t *Txn[A]) Resend(p *Part[A]) Verdict {
	switch {
	case !t.decided && !p.voted:
		return Prepare
	case t.commit && !p.acked:
		return Commit
	}
	return None
}

// NextDue returns the earliest retransmit deadline before due, or due.
func (c *Coordinator[A]) NextDue(due int64) int64 {
	for _, t := range c.list {
		if !t.done && t.nextAt < due {
			due = t.nextAt
		}
	}
	return due
}

// ---------------------------------------------------------- participant

// Op is one write of a PREPARE's set, as read off the wire.
type Op struct{ Key, Val []byte }

// Write is one staged write: the key interned, a copy of the value.
type Write struct {
	Key string
	Val []byte
}

// Keys turns a key read off the wire into the string the caller keeps
// it under.
type Keys interface{ Intern(key []byte) string }

// Participant is one shard's participating half, over coordinator
// addresses A.
type Participant[A comparable] struct {
	rto    int64
	keys   Keys
	locks  map[string]uint64 // key -> txid holding a prepare lock
	staged map[uint64]*Stage[A]
	list   []*Stage[A] // staging order: Due's scan
	free   sim.FreeList[*Stage[A]]

	// Recently applied transactions, the last appliedCap of them.
	applied    map[uint64]struct{}
	order      sim.Ring[uint64]
	appliedCap int
}

// Stage is a YES vote's staged writes, held until the decision.
type Stage[A comparable] struct {
	Txid  uint64
	Coord A
	Flow  uint64
	Ops   []Write

	inquireAt, rto int64
	done           bool
}

// NewParticipant returns a participant inquiring from rto ns on, keeping
// staged keys as keys interns them.
func NewParticipant[A comparable](rto int64, keys Keys) Participant[A] {
	return Participant[A]{
		rto: rto, keys: keys, appliedCap: AppliedCap,
		locks: make(map[string]uint64), staged: make(map[uint64]*Stage[A]), applied: make(map[uint64]struct{}),
	}
}

// Locked reports whether a prepared transaction holds key.
func (p *Participant[A]) Locked(key []byte) bool {
	_, ok := p.locks[string(key)]
	return ok
}

// Prepare is coord's PREPARE of txid writing ops: VoteYes for a
// duplicate, VoteNo if another transaction holds a key, else Staged, the
// writes staged and every key locked.
func (p *Participant[A]) Prepare(txid uint64, coord A, flow uint64, ops []Op, now int64) Verdict {
	if _, ok := p.applied[txid]; ok {
		return VoteYes // committed here: the duplicate crossed our ack
	}
	if _, ok := p.staged[txid]; ok {
		return VoteYes
	}
	for _, op := range ops {
		if holder, ok := p.locks[string(op.Key)]; ok && holder != txid {
			return VoteNo
		}
	}
	st := sim.Take(&p.free)
	*st = Stage[A]{Txid: txid, Coord: coord, Flow: flow, Ops: st.Ops[:0], inquireAt: now + 4*p.rto, rto: p.rto}
	for _, op := range ops {
		key := p.keys.Intern(op.Key)
		st.Ops = keep(st.Ops, key, op.Val)
		p.locks[key] = txid
	}
	p.staged[txid] = st
	p.list = append(p.list, st)
	return Staged
}

// keep appends (key, a copy of val) to ops, reusing the value buffer a
// retired write left in that slot.
func keep(ops []Write, key string, val []byte) []Write {
	n := len(ops)
	if n == cap(ops) {
		ops = append(ops, Write{})
	}
	ops = ops[:n+1]
	ops[n].Key, ops[n].Val = key, append(ops[n].Val[:0], val...)
	return ops
}

// Commit is a COMMIT of txid: Apply with the stage, its locks released
// and txid remembered as applied, or Ack when nothing is staged.
func (p *Participant[A]) Commit(txid uint64) (*Stage[A], Verdict) {
	st, ok := p.staged[txid]
	if !ok {
		return nil, Ack
	}
	st.done = true
	delete(p.staged, txid)
	p.applied[txid] = struct{}{}
	if old, ok := p.order.PushLast(txid, p.appliedCap); ok {
		delete(p.applied, old)
	}
	for _, op := range st.Ops {
		delete(p.locks, op.Key)
	}
	return st, Apply
}

// Abort is an ABORT of txid: Release with the stage dropped and its
// locks released, or None when nothing is staged.
func (p *Participant[A]) Abort(txid uint64) (*Stage[A], Verdict) {
	st, ok := p.staged[txid]
	if !ok {
		return nil, None
	}
	st.done = true
	delete(p.staged, txid)
	for _, op := range st.Ops {
		if p.locks[op.Key] == txid {
			delete(p.locks, op.Key)
		}
	}
	return st, Release
}

// Due hands each stage whose inquiry deadline passed by now to inquire,
// which sends its coordinator an INQUIRE, and re-arms it with a
// backed-off timeout; it recycles the decided ones.
func (p *Participant[A]) Due(now int64, inquire func(*Stage[A])) {
	live := p.list[:0]
	for _, st := range p.list {
		if st.done {
			p.free.Put(st)
			continue
		}
		if now >= st.inquireAt {
			inquire(st)
			st.rto = Backoff(st.rto, p.rto)
			st.inquireAt = now + st.rto
		}
		live = append(live, st)
	}
	p.list = live
}

// NextDue returns the earliest inquiry deadline before due, or due.
func (p *Participant[A]) NextDue(due int64) int64 {
	for _, st := range p.list {
		if !st.done && st.inquireAt < due {
			due = st.inquireAt
		}
	}
	return due
}
