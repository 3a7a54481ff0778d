package sim

import (
	"fmt"
	"testing"
)

// heapModel is the event kernel as it was before eventQueue, kept as
// the reference the queue is checked against: one binary heap over
// []*event ordered by evLess, a Cancel that only marks the event dead,
// and a pop that skips the dead ones. It has no processes; a process
// that only sleeps is, to the queue, a chain of events (modelKernel.Go).
//
// It departs from the old run loop in one line: cancelled events on top
// of the heap are discarded before the deadline is looked at, not after
// it. With eager cancel they are not there, so a RunUntil window that
// ends before nothing but cancelled timers leaves the clock where the
// last live event put it, as a window over an empty queue always did
// (the old loop moved it to the deadline).
type heapModel struct {
	now    Time
	seq    uint64
	steps  uint64
	pq     []*event
	closed bool
}

// evLess orders events by (time, seq). seq is unique, so the order is
// a strict total order and any correct heap pops the same sequence.
func evLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (m *heapModel) heapPush(ev *event) {
	m.pq = append(m.pq, ev)
	i := len(m.pq) - 1
	ev.index = i
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(m.pq[i], m.pq[parent]) {
			break
		}
		m.pq[i], m.pq[parent] = m.pq[parent], m.pq[i]
		m.pq[i].index = i
		m.pq[parent].index = parent
		i = parent
	}
}

func (m *heapModel) heapPop() *event {
	top := m.pq[0]
	n := len(m.pq) - 1
	m.pq[0] = m.pq[n]
	m.pq[0].index = 0
	m.pq[n] = nil
	m.pq = m.pq[:n]
	top.index = -1
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && evLess(m.pq[l], m.pq[smallest]) {
			smallest = l
		}
		if r < n && evLess(m.pq[r], m.pq[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		m.pq[i], m.pq[smallest] = m.pq[smallest], m.pq[i]
		m.pq[i].index = i
		m.pq[smallest].index = smallest
		i = smallest
	}
	return top
}

// schedule books an event, or nothing on a closed model. Events are not
// pooled here: gen only says whether the event has left the heap.
func (m *heapModel) schedule(t Time) *event {
	if m.closed {
		return nil
	}
	if t < m.now {
		panic("model: scheduling in the past")
	}
	m.seq++
	ev := &event{t: t, seq: m.seq}
	m.heapPush(ev)
	return ev
}

func (m *heapModel) runUntil(deadline Time) Time {
	for !m.closed {
		for len(m.pq) > 0 && m.pq[0].dead {
			m.heapPop().gen++
		}
		if len(m.pq) == 0 {
			break
		}
		if m.pq[0].t > deadline {
			if deadline > m.now {
				m.now = deadline
			}
			break
		}
		ev := m.heapPop()
		ev.gen++
		m.now = ev.t
		m.steps++
		if ev.argFn != nil {
			ev.argFn(ev.a, ev.b)
		} else {
			ev.fn()
		}
	}
	return m.now
}

// kernel is what a replayed program needs of a simulator; the real Env
// and the model both provide it.
type kernel interface {
	Now() Time
	Seq() uint64 // the sequence number given out last
	Steps() uint64
	Live() bool // some event that will run is pending
	At(t Time, fn func()) (cancel func() bool)
	AtArg(t Time, fn func(a, b uint64), a, b uint64)
	// Go starts a process that sleeps each duration in turn and calls
	// woke after each, with the sequence number that sleep's wake-up
	// took.
	Go(sleeps []Time, woke func(i int, seq uint64))
	RunUntil(deadline Time) Time
	Close()
}

type realKernel struct{ e *Env }

func (r realKernel) Now() Time            { return r.e.Now() }
func (r realKernel) Seq() uint64          { return r.e.seq }
func (r realKernel) Steps() uint64        { return r.e.Steps() }
func (r realKernel) Live() bool           { return !r.e.Idle() }
func (r realKernel) Close()               { r.e.Close() }
func (r realKernel) RunUntil(d Time) Time { return r.e.RunUntil(d) }
func (r realKernel) At(t Time, fn func()) func() bool {
	return r.e.At(t, fn).Cancel
}
func (r realKernel) AtArg(t Time, fn func(a, b uint64), a, b uint64) { r.e.AtArg(t, fn, a, b) }
func (r realKernel) Go(sleeps []Time, woke func(i int, seq uint64)) {
	r.e.Go("sleeper", func(p *Proc) {
		for i, d := range sleeps {
			seq := r.e.seq + 1
			p.Sleep(d)
			woke(i, seq)
		}
	})
}

type modelKernel struct{ m *heapModel }

func (k modelKernel) Now() Time     { return k.m.now }
func (k modelKernel) Seq() uint64   { return k.m.seq }
func (k modelKernel) Steps() uint64 { return k.m.steps }
func (k modelKernel) Live() bool {
	for _, ev := range k.m.pq {
		if !ev.dead {
			return true
		}
	}
	return false
}
func (k modelKernel) Close()               { k.m.closed, k.m.pq = true, nil }
func (k modelKernel) RunUntil(d Time) Time { return k.m.runUntil(d) }
func (k modelKernel) At(t Time, fn func()) func() bool {
	ev := k.m.schedule(t)
	if ev == nil {
		return func() bool { return false }
	}
	ev.fn = fn
	return func() bool {
		if ev.gen != 0 || ev.dead {
			return false
		}
		ev.dead = true
		return true
	}
}
func (k modelKernel) AtArg(t Time, fn func(a, b uint64), a, b uint64) {
	if ev := k.m.schedule(t); ev != nil {
		ev.argFn, ev.a, ev.b = fn, a, b
	}
}
func (k modelKernel) Go(sleeps []Time, woke func(i int, seq uint64)) {
	var sleep func(i int)
	sleep = func(i int) {
		if i == len(sleeps) {
			return
		}
		seq := k.m.seq + 1
		k.At(k.m.now+sleeps[i], func() {
			woke(i, seq)
			sleep(i + 1)
		})
	}
	k.At(k.m.now, func() { sleep(0) })
}

// Event-queue programs for the model-equivalence fuzz target. At top
// level an op is one byte (its low three bits) followed by the argument
// bytes it needs; a program that ends mid-op just ends. Every callback
// and every process wake-up, when it runs, takes the next byte of the
// same program as an inner op — so what a program does depends on the
// order its events run in, and two kernels that agree on the order
// read the same program.
const (
	qBook   = iota // kind when: one more callback. kind&1 books it with AtArg (no Timer). when: 0 = now (the ring), 1 = the time of the one booked last (an exact tie), n = now+n-1
	qCancel        // i: Cancel the i-th Timer taken so far (mod their number)
	qGo            // n d...: a process that sleeps n%4+1 times, d%8 ns each
	qRun           // window: RunUntil. 0 = now (zero length), 1 = the time of the callback booked last, 2 = now-5 (in the past), 255 = Forever, n = now+n
	qClose         // Close

	// Inner ops (low two bits): nothing, book (kind when), cancel (i);
	// inClose, the whole byte, closes the environment from inside the run.
	inNone   = 0
	inBook   = 1
	inCancel = 2
	inClose  = 0xff
)

// replay runs one program on k and returns everything it could observe:
// each executed callback or wake-up as (t, seq, id), every Cancel's
// answer, and the clock, step count and liveness after every step.
type replay struct {
	k      kernel
	ops    []byte
	log    []string
	timers []func() bool
	ids    int
	lastT  Time
	argFn  func(a, b uint64)
}

func (r *replay) next() (byte, bool) {
	if len(r.ops) == 0 {
		return 0, false
	}
	b := r.ops[0]
	r.ops = r.ops[1:]
	return b, true
}

func (r *replay) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *replay) book() {
	kind, _ := r.next()
	when, ok := r.next()
	if !ok {
		return
	}
	t := r.k.Now()
	switch {
	case when == 1:
		t = max(t, r.lastT)
	case when > 1:
		t += Time(when) - 1
	}
	r.lastT = t
	id, seq := r.ids, r.k.Seq()+1
	r.ids++
	if kind&1 == 1 {
		r.k.AtArg(t, r.argFn, uint64(id), seq)
		return
	}
	r.timers = append(r.timers, r.k.At(t, func() { r.ran(id, seq) }))
}

func (r *replay) cancel() {
	i, ok := r.next()
	if !ok || len(r.timers) == 0 {
		return
	}
	n := int(i) % len(r.timers)
	r.logf("cancel %d: %v", n, r.timers[n]())
}

// ran is the body of every callback and wake-up.
func (r *replay) ran(id int, seq uint64) {
	r.logf("run t=%d seq=%d id=%d live=%v", r.k.Now(), seq, id, r.k.Live())
	op, _ := r.next()
	switch {
	case op == inClose:
		r.k.Close()
		r.logf("closed inside")
	case op&3 == inBook:
		r.book()
	case op&3 == inCancel:
		r.cancel()
	}
}

func runProgram(k kernel, ops []byte) []string {
	r := &replay{k: k, ops: ops}
	r.argFn = func(a, b uint64) { r.ran(int(a), b) }
	for {
		op, ok := r.next()
		if !ok {
			break
		}
		switch op & 7 {
		case qBook:
			r.book()
		case qCancel:
			r.cancel()
		case qGo:
			n, _ := r.next()
			sleeps := make([]Time, n%4+1)
			for i := range sleeps {
				d, _ := r.next()
				sleeps[i] = Time(d % 8)
			}
			id := r.ids
			r.ids += len(sleeps)
			k.Go(sleeps, func(i int, seq uint64) { r.ran(id+i, seq) })
		case qRun:
			w, ok := r.next()
			if !ok {
				continue
			}
			deadline := k.Now() + Time(w)
			switch w {
			case 0:
			case 1:
				deadline = r.lastT
			case 2:
				deadline = k.Now() - 5
			case 255:
				deadline = Forever
			}
			r.logf("RunUntil(%d) = %d", deadline, k.RunUntil(deadline))
		case qClose:
			k.Close()
		default:
			continue
		}
		r.logf("now=%d steps=%d live=%v", k.Now(), k.Steps(), k.Live())
	}
	r.logf("Run() = %d, steps=%d live=%v", k.RunUntil(Forever), k.Steps(), k.Live())
	k.Close()
	return r.log
}

// checkQueueAgainstModel replays ops on an Env and on the heap model
// and compares what each observed, entry by entry.
func checkQueueAgainstModel(t *testing.T, ops []byte) {
	t.Helper()
	got := runProgram(realKernel{NewEnv(1)}, ops)
	want := runProgram(modelKernel{&heapModel{}}, ops)
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "(nothing)", "(nothing)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("program %v\nentry %d: Env %q, model %q\nbefore it: %q", ops, i, g, w, got[max(0, i-5):i])
		}
	}
}

var eventQueueCases = []struct {
	name string
	ops  []byte
}{
	{"cancel a pending, a cancelled and a fired timer", []byte{
		qBook, 0, 5, qBook, 0, 9, qCancel, 0, qCancel, 0,
		qRun, 255, inNone,
		qCancel, 1,
	}},
	{"cancel in the ring leaves a tombstone, not a pending event", []byte{
		qBook, 0, 0, qBook, 0, 0, qCancel, 0, qCancel, 0, qCancel, 1,
		qBook, 0, 0, qRun, 0, inNone,
	}},
	{"cancel from its own and from another callback", []byte{
		qBook, 0, 3, qBook, 0, 5, qBook, 0, 7,
		qRun, 255, inCancel, 0, inCancel, 2,
	}},
	{"a sleeper behind a timer, in place, and behind a cancelled timer", []byte{
		qGo, 2, 3, 0, 4, qBook, 0, 2, qBook, 0, 6,
		qRun, 255, inNone, inCancel, 1, inNone, inNone,
	}},
	{"sleepers that tie with each other and with a callback", []byte{
		qGo, 1, 2, 2, qGo, 1, 2, 0, qBook, 1, 3,
		qRun, 3, inBook, 0, 0, inNone, inNone, inBook, 1, 1,
	}},
	{"windows of zero length, in the past and ending on a timestamp", []byte{
		qBook, 1, 0, qRun, 2, qRun, 0, inNone,
		qBook, 0, 11, qRun, 1, inNone,
		qRun, 2,
	}},
	{"a window that ends before nothing but a cancelled timer", []byte{
		qBook, 0, 11, qRun, 5, qCancel, 0, qRun, 3, qRun, 20,
	}},
	{"ties run in booking order, the heap's before the ring's", []byte{
		qBook, 0, 4, qBook, 1, 1, qBook, 0, 1,
		qRun, 1, inBook, 0, 0, inBook, 1, 0, inNone, inNone, inNone,
	}},
	// Booked in this order the ten sit in the heap as booked: 100 at
	// slot 1 with 101..104 under it, 5 last, under 2. Cancelling 101
	// leaves a hole under 100 for 5 to fill; three later ones keep 5
	// from being moved again before 100 reaches the top.
	{"cancel deep in the heap: the entry that fills the hole has to rise", []byte{
		qBook, 0, 2, qBook, 0, 101, qBook, 0, 3, qBook, 0, 4, qBook, 0, 5,
		qBook, 0, 102, qBook, 0, 103, qBook, 0, 104, qBook, 0, 105, qBook, 0, 6,
		qCancel, 5, qBook, 0, 202, qBook, 0, 203, qBook, 0, 204, qRun, 255,
	}},
	{"cancel the root and the last entry of a full heap level", []byte{
		qBook, 0, 9, qBook, 0, 8, qBook, 0, 7, qBook, 0, 6, qBook, 0, 5,
		qCancel, 4, qCancel, 0, qRun, 255,
	}},
	{"Close inside a run, then Cancel and book on the closed environment", []byte{
		qBook, 0, 3, qBook, 0, 5, qGo, 0, 7,
		qRun, 255, inClose,
		qCancel, 1, qCancel, 1, qBook, 0, 0, qCancel, 2, qRun, 9,
	}},
	{"Close between runs with a process parked", []byte{
		qGo, 1, 5, 5, qBook, 0, 2, qRun, 3, inNone, qClose, qCancel, 0,
	}},
}

func TestEventQueueMatchesHeapModel(t *testing.T) {
	for _, tc := range eventQueueCases {
		t.Run(tc.name, func(t *testing.T) { checkQueueAgainstModel(t, tc.ops) })
	}
	// The engine of native fuzzing stalls in some sandboxes; a fixed
	// stream of random programs costs a fraction of a second and, with
	// more booking than running, reaches heaps three levels deep, which
	// the cases above do not.
	t.Run("random programs", func(t *testing.T) {
		rng := NewRand(20)
		for i := 0; i < 2000; i++ {
			checkQueueAgainstModel(t, randomProgram(rng))
		}
	})
}

// randomProgram draws a program that books about three callbacks for
// every one its short windows let run. Callbacks read their inner ops
// from whatever follows the window that runs them.
func randomProgram(rng *Rand) []byte {
	var ops []byte
	for n := 8 + rng.Intn(150); n > 0; n-- {
		switch x := rng.Intn(100); {
		case x < 55:
			ops = append(ops, qBook, byte(rng.Intn(2)), byte(rng.Intn(64)))
		case x < 75:
			ops = append(ops, qCancel, byte(rng.Intn(256)))
		case x < 80:
			ops = append(ops, qGo, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(8)), byte(rng.Intn(8)), byte(rng.Intn(8)))
		case x < 99:
			ops = append(ops, qRun, byte(rng.Intn(8)))
		default:
			ops = append(ops, []byte{qClose, qRun, inClose}[rng.Intn(3)], 255)
		}
	}
	return ops
}

func FuzzEventQueue(f *testing.F) {
	for _, tc := range eventQueueCases {
		f.Add(tc.ops)
	}
	f.Fuzz(checkQueueAgainstModel)
}

// A cancelled timer is gone at Cancel: it does not count as pending, and
// its pooled event serves the next schedule. (Marked dead and left in
// the heap, a thousand of them were a thousand pending events and a
// thousand fresh allocations.)
func TestCancelledTimersLeaveAtCancel(t *testing.T) {
	e := NewEnv(1)
	nop := func() {}
	for i := 0; i < 1000; i++ {
		if !e.After(Time(400+i%7), nop).Cancel() {
			t.Fatalf("Cancel %d of a pending timer reported false", i)
		}
	}
	if _, misses := e.PoolStats(); misses > 1 || !e.Idle() {
		t.Fatalf("after 1000 arm+cancel: %d pool misses, Idle %v; want at most 1 and true", misses, e.Idle())
	}
	// Run has nothing to do, and a window that ends before where the
	// timers stood does not move the clock: no event remains beyond it.
	if end, steps := e.Run(), e.Steps(); end != 0 || steps != 0 {
		t.Fatalf("Run() = %d after %d steps, want 0 and 0", end, steps)
	}
	e.After(50, nop)
	tm := e.After(400, nop)
	if got := e.RunUntil(20); got != 20 {
		t.Fatalf("RunUntil(20) before a live event = %d, want the deadline", got)
	}
	tm.Cancel()
	if got := e.RunUntil(100); got != 50 {
		t.Fatalf("RunUntil(100) = %d, want 50: the clock stays at the last event when only a cancelled timer lay beyond the deadline", got)
	}
}

// A Sleep whose only company is a cancelled timer due before its
// wake-up is taken in place: no event is booked and nothing switches.
func TestSleepBehindCancelledTimerIsInPlace(t *testing.T) {
	e := NewEnv(1)
	woke := Time(-1)
	e.Go("sleeper", func(p *Proc) {
		e.After(5, func() { t.Error("cancelled timer fired") }).Cancel()
		hits, misses := e.PoolStats()
		switches, steps, seq := e.Switches(), e.Steps(), e.seq
		p.Sleep(10)
		woke = p.Now()
		if h, m := e.PoolStats(); h != hits || m != misses || e.Switches() != switches {
			t.Errorf("Sleep took %d pooled and %d fresh events and %d switches, want none: it was next to run",
				h-hits, m-misses, e.Switches()-switches)
		}
		if e.Steps() != steps+1 || e.seq != seq+1 {
			t.Errorf("Sleep took %d steps and %d sequence numbers, want one each, as the event would have",
				e.Steps()-steps, e.seq-seq)
		}
	})
	e.Run()
	if woke != 10 {
		t.Fatalf("sleeper woke at %d, want 10", woke)
	}
	e.Close()
}

// Timer churn and zero-delay wake-ups make no garbage once the pool,
// the heap and the ring have grown to their working size.
func TestQueueChurnAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	nop := func() {}
	var timers [8]Timer
	if avg := testing.AllocsPerRun(100, func() {
		for i := range timers {
			timers[i] = e.After(Time(400+i), nop)
		}
		for i := range timers {
			timers[(i*3)%len(timers)].Cancel()
		}
	}); avg != 0 {
		t.Errorf("arming and cancelling 8 timers: %v allocs per round, want 0", avg)
	}

	// Eight processes parked on a condition; a round is one Broadcast
	// (eight wake-up events in the ring) and the window that runs them.
	c := NewCond(e)
	woken := 0
	for i := 0; i < 8; i++ {
		e.Go("waiter", func(p *Proc) {
			for {
				c.Wait(p)
				woken++
			}
		})
	}
	e.RunUntil(e.Now())
	if avg := testing.AllocsPerRun(100, func() {
		c.Broadcast()
		e.RunUntil(e.Now())
	}); avg != 0 {
		t.Errorf("a round of 8 zero-delay wake-ups: %v allocs, want 0", avg)
	}
	if woken != 8*101 { // AllocsPerRun warms up with one extra round
		t.Errorf("%d wake-ups, want %d", woken, 8*101)
	}
	e.Close()
}
