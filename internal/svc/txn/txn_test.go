package txn

import (
	"testing"
)

// interner is a participant's key table, as the server's names is.
type interner map[string]string

func (n interner) Intern(b []byte) string {
	if s, ok := n[string(b)]; ok {
		return s
	}
	s := string(b)
	n[s] = s
	return s
}

func ops(keys ...string) []Op {
	o := make([]Op, len(keys))
	for i, k := range keys {
		o[i] = Op{Key: []byte(k), Val: []byte("v" + k)}
	}
	return o
}

func TestCache(t *testing.T) {
	c := NewCache()
	if _, v := c.Lookup(3, 1); v != Execute {
		t.Fatalf("a first request: %d, want Execute", v)
	}
	c.Begin(3, 1)
	if _, v := c.Lookup(3, 1); v != Drop {
		t.Fatalf("a duplicate in progress: %d, want Drop", v)
	}
	if _, v := c.Lookup(4, 1); v != Execute {
		t.Fatalf("the same seq on another channel: %d, want Execute", v)
	}
	val := []byte("old")
	c.Record(3, 1, 9, 2, 7, val)
	copy(val, "new")
	r, v := c.Lookup(3, 1)
	if v != Replay || r.Seq != 1 || r.Flow != 9 || r.Status != 2 || r.Ver != 7 || string(r.Val) != "old" {
		t.Fatalf("a duplicate answered: %d %+v, want Replay of seq 1, flow 9, status 2, v7, \"old\"", v, r)
	}
	if _, v := c.Lookup(3, 2); v != Execute {
		t.Fatalf("the next request: %d, want Execute", v)
	}
	c.Begin(3, 2)
	c.Record(3, 2, 10, 1, 0, nil)
	if _, v := c.Lookup(3, 2); v != Replay {
		t.Fatalf("the next request answered: %d, want Replay", v)
	}
}

// dueTxns and dueStages collect what Due hands out.
func dueTxns(c *Coordinator[int], now int64) (due []*Txn[int]) {
	c.Due(now, func(t *Txn[int]) { due = append(due, t) })
	return due
}

func dueStages(p *Participant[int], now int64) (due []*Stage[int]) {
	p.Due(now, func(st *Stage[int]) { due = append(due, st) })
	return due
}

// begin starts a transaction writing at parts 1 and 2.
func begin(c *Coordinator[int], now int64) *Txn[int] {
	t := c.Begin(5, 3, 1, 77, now)
	c.Join(t, 1)
	c.Join(t, 2)
	return t
}

func TestCoordinatorCommit(t *testing.T) {
	c := NewCoordinator[int](2, 100)
	tx := begin(&c, 0)
	if tx.ID != 2<<48|1 || len(tx.Parts) != 2 {
		t.Fatalf("txid %x with %d parts, want %x with 2", tx.ID, len(tx.Parts), 2<<48|1)
	}
	if p, fresh := c.Join(tx, 1); fresh || p != tx.Parts[0] {
		t.Fatal("a second Join of part 1 made a new part")
	}
	steps := []struct {
		what string
		do   func() Verdict
		want Verdict
	}{
		{"YES from part 1", func() Verdict { _, v := c.Vote(tx.ID, 1, true, 10); return v }, None},
		{"a duplicate YES from part 1", func() Verdict { _, v := c.Vote(tx.ID, 1, true, 10); return v }, None},
		{"an inquiry while undecided", func() Verdict { _, v := c.Inquire(tx.ID, 1); return v }, None},
		{"an ack before the decision", func() Verdict { _, v := c.Ack(tx.ID, 1); return v }, None},
		{"YES from part 2", func() Verdict { _, v := c.Vote(tx.ID, 2, true, 20); return v }, Commit},
		{"a vote after the decision", func() Verdict { _, v := c.Vote(tx.ID, 2, false, 20); return v }, None},
		{"an inquiry from part 2", func() Verdict { _, v := c.Inquire(tx.ID, 2); return v }, Commit},
		{"an inquiry from a stranger", func() Verdict { _, v := c.Inquire(tx.ID, 9); return v }, None},
		{"part 1's ack", func() Verdict { _, v := c.Ack(tx.ID, 1); return v }, None},
		{"part 2's ack", func() Verdict { _, v := c.Ack(tx.ID, 2); return v }, Committed},
		{"an ack after", func() Verdict { _, v := c.Ack(tx.ID, 2); return v }, None},
		{"an inquiry after: forgotten", func() Verdict { _, v := c.Inquire(tx.ID, 1); return v }, Abort},
	}
	for _, st := range steps {
		if v := st.do(); v != st.want {
			t.Errorf("%s: %d, want %d", st.what, v, st.want)
		}
	}
}

func TestCoordinatorAbort(t *testing.T) {
	c := NewCoordinator[int](0, 100)
	tx := begin(&c, 0)
	if _, v := c.Vote(tx.ID, 2, false, 5); v != Abort {
		t.Fatalf("NO from part 2 before part 1 voted: %d, want Abort", v)
	}
	if _, v := c.Vote(tx.ID, 1, true, 6); v != None {
		t.Errorf("a vote after the abort: %d, want None", v)
	}
	if _, v := c.Inquire(tx.ID, 1); v != Abort {
		t.Errorf("an inquiry after the abort: %d, want Abort (presumed)", v)
	}
	if due := dueTxns(&c, 1000); len(due) != 0 || len(c.list) != 0 || c.txnFree.InUse() != 0 {
		t.Errorf("an aborted transaction is due (%d) or kept (%d listed, %d records in use)", len(due), len(c.list), c.txnFree.InUse())
	}
}

func TestCoordinatorDue(t *testing.T) {
	c := NewCoordinator[int](0, 100)
	tx := begin(&c, 0)
	resends := func() (v [2]Verdict) {
		for i, p := range tx.Parts {
			v[i] = tx.Resend(p)
		}
		return v
	}
	if d := c.NextDue(1 << 40); d != 100 {
		t.Fatalf("first deadline %d, want 100", d)
	}
	if due := dueTxns(&c, 99); len(due) != 0 {
		t.Fatal("due before its deadline")
	}
	if due := dueTxns(&c, 100); len(due) != 1 || resends() != [2]Verdict{Prepare, Prepare} {
		t.Fatalf("at the deadline: %d due, resends %v, want PREPARE to both", len(due), resends())
	}
	if d := c.NextDue(1 << 40); d != 300 {
		t.Errorf("after one round the deadline is %d, want 300 (backed off to 200)", d)
	}
	c.Vote(tx.ID, 2, true, 150)
	if r := resends(); r != [2]Verdict{Prepare, None} {
		t.Errorf("part 2 voted: resends %v, want PREPARE to part 1 only", r)
	}
	c.Vote(tx.ID, 1, true, 160)
	if d := c.NextDue(1 << 40); d != 360 {
		t.Errorf("the commit's deadline is %d, want 360", d)
	}
	c.Ack(tx.ID, 1)
	if r := resends(); r != [2]Verdict{None, Commit} {
		t.Errorf("part 1 acked: resends %v, want COMMIT to part 2 only", r)
	}
	for now := int64(360); now < 10_000; now += 10 {
		dueTxns(&c, now)
	}
	if tx.rto != 1600 {
		t.Errorf("the timeout backed off to %d, want the ceiling 1600", tx.rto)
	}
	c.Ack(tx.ID, 2)
	if due := dueTxns(&c, 20_000); len(due) != 0 || len(c.list) != 0 || c.partFree.InUse() != 0 {
		t.Errorf("a committed transaction is due or kept")
	}
}

func TestParticipant(t *testing.T) {
	p := NewParticipant[int](100, interner{})
	p.appliedCap = 2
	v := p.Prepare(1, 0, 11, ops("a", "b"), 0)
	st := p.staged[1]
	if v != Staged || !p.Locked([]byte("a")) || !p.Locked([]byte("b")) || p.Locked([]byte("c")) {
		t.Fatalf("a fresh PREPARE: %d, want Staged with a and b locked", v)
	}
	if st.Txid != 1 || st.Flow != 11 || len(st.Ops) != 2 || st.Ops[1].Key != "b" || string(st.Ops[1].Val) != "vb" {
		t.Fatalf("stage %+v", st)
	}
	steps := []struct {
		what string
		do   func() Verdict
		want Verdict
	}{
		{"a duplicate PREPARE", func() Verdict { v := p.Prepare(1, 0, 11, ops("a", "b"), 5); return v }, VoteYes},
		{"another transaction on b", func() Verdict { v := p.Prepare(2, 0, 12, ops("c", "b"), 5); return v }, VoteNo},
		{"an ABORT of what is not staged", func() Verdict { _, v := p.Abort(2); return v }, None},
		{"the COMMIT", func() Verdict { _, v := p.Commit(1); return v }, Apply},
		{"a duplicate COMMIT", func() Verdict { _, v := p.Commit(1); return v }, Ack},
		{"a duplicate PREPARE after the apply", func() Verdict { v := p.Prepare(1, 0, 11, ops("a", "b"), 5); return v }, VoteYes},
		{"the other transaction again", func() Verdict { v := p.Prepare(2, 0, 12, ops("c", "b"), 5); return v }, Staged},
		{"its ABORT", func() Verdict { _, v := p.Abort(2); return v }, Release},
		{"its ABORT again", func() Verdict { _, v := p.Abort(2); return v }, None},
	}
	for _, s := range steps {
		if v := s.do(); v != s.want {
			t.Errorf("%s: %d, want %d", s.what, v, s.want)
		}
	}
	if len(p.locks) != 0 || len(p.staged) != 0 {
		t.Errorf("%d locks and %d stages held after the decisions", len(p.locks), len(p.staged))
	}
}

func TestParticipantDue(t *testing.T) {
	p := NewParticipant[int](100, interner{})
	p.Prepare(1, 0, 0, ops("a"), 0)
	if d := p.NextDue(1 << 40); d != 400 {
		t.Fatalf("the inquiry deadline is %d, want 4 RTOs", d)
	}
	if due := dueStages(&p, 399); len(due) != 0 {
		t.Fatal("due before its deadline")
	}
	if due := dueStages(&p, 400); len(due) != 1 || due[0].Txid != 1 {
		t.Fatalf("%d stages due at the deadline, want transaction 1", len(due))
	}
	if d := p.NextDue(1 << 40); d != 600 {
		t.Errorf("after one inquiry the deadline is %d, want 600", d)
	}
	p.Abort(1)
	if due := dueStages(&p, 1000); len(due) != 0 || len(p.list) != 0 || p.free.InUse() != 0 {
		t.Error("an aborted stage is due or kept")
	}
}

// TestSteadyStateAllocatesNothing: once warm, a committed
// two-participant transaction, an aborted one and each cache verdict
// make no garbage.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	c := NewCoordinator[int](0, 100)
	names := interner{}
	p1, p2 := NewParticipant[int](100, names), NewParticipant[int](100, names)
	cache := NewCache()
	w1, w2 := ops("a", "b"), ops("c")
	var now int64
	var seq uint32
	run := func(abort bool) {
		now += 1000
		seq++
		cache.Lookup(1, seq)
		tx := c.Begin(1, 1, seq, 0, now)
		a, _ := c.Join(tx, 1)
		a.Body = append(a.Body[:0], "PREPARE a b"...)
		c.Join(tx, 2)
		cache.Begin(1, seq)
		p1.Prepare(tx.ID, 0, 0, w1, now)
		if abort {
			p2.Prepare(9, 0, 0, w2, now) // holds c
		}
		v2 := p2.Prepare(tx.ID, 0, 0, w2, now)
		c.Vote(tx.ID, 1, true, now)
		if _, v := c.Vote(tx.ID, 2, v2 != VoteNo, now); v == Abort {
			p1.Abort(tx.ID)
			p2.Abort(9)
			cache.Record(1, seq, 0, 2, 0, nil)
		} else {
			p1.Commit(tx.ID)
			p2.Commit(tx.ID)
			c.Ack(tx.ID, 1)
			c.Ack(tx.ID, 2)
			cache.Record(1, seq, 0, 1, 7, []byte("value"))
		}
		cache.Lookup(1, seq)
		c.Due(now, func(*Txn[int]) {})
		p1.Due(now, func(*Stage[int]) {})
		p2.Due(now, func(*Stage[int]) {})
	}
	for range 3000 { // past appliedCap, so eviction is in the steady state
		run(false)
		run(true)
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"committed", func() { run(false) }},
		{"aborted", func() { run(true) }},
		{"cache verdicts", func() {
			cache.Lookup(1, seq+1) // Execute
			cache.Begin(1, seq+1)
			cache.Lookup(1, seq+1) // Drop
			seq++
			cache.Record(1, seq, 0, 1, 7, []byte("value"))
			cache.Lookup(1, seq) // Replay
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.run); n != 0 {
			t.Errorf("%s: %.1f allocations, want 0", tc.name, n)
		}
	}
	if c.txnFree.InUse() != 0 || p1.free.InUse() != 0 || p2.free.InUse() != 0 {
		t.Errorf("records in use after every transaction ended: %d txns, %d and %d stages",
			c.txnFree.InUse(), p1.free.InUse(), p2.free.InUse())
	}
}
