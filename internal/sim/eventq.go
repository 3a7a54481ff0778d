package sim

// eventQueue is the pending-event set, popped in (t, seq) order. seq is
// unique, so that is a strict total order and any correct queue pops the
// same sequence; this one is shaped by what the simulator books:
//
//   - An event for the current instant (a wake-up, a zero-length sleep,
//     a continuation) needs no ordering beyond first come, first served,
//     and goes to a FIFO ring. Every ring entry has t == now: the clock
//     only moves when the ring is empty (drive pops it dry before taking
//     a later event, and Sleep steps the clock in place only past an
//     empty ring).
//   - Everything else goes to a 4-ary implicit heap whose entries carry
//     the key beside the pointer, so a sift compares and moves 24-byte
//     values in one or two cache lines and never loads an event.
//
// A heap entry with t == now was booked before the clock got there, so
// its seq is smaller than that of any ring entry, which was booked
// since: such entries pop first, then the ring in arrival order, and
// only then does the clock move. A cancelled heap entry leaves at once
// (event.index says where it is), so the heap holds only what will run;
// a FIFO has no cheap way out of the middle, so a cancelled ring entry
// stays as a tombstone (event.dead) until its turn comes — at the
// current instant, that is, before the clock moves again.
type eventQueue struct {
	heap []heapEntry
	ring Ring[*event]
	dead int // tombstones in ring
}

type heapEntry struct {
	t   Time
	seq uint64
	ev  *event
}

func (a heapEntry) before(b heapEntry) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// len counts the events that will run: tombstones are not among them.
func (q *eventQueue) len() int { return len(q.heap) + q.ring.Len() - q.dead }

// push books ev, whose t and seq are set and whose t is not before now.
func (q *eventQueue) push(ev *event, now Time) {
	if ev.t == now {
		q.ring.Push(ev)
		return
	}
	q.heap = append(q.heap, heapEntry{})
	q.up(len(q.heap)-1, heapEntry{ev.t, ev.seq, ev})
}

// peek reports the time of the entry pop would return, tombstones
// included; ok is false when there is none. A non-empty ring answers
// for the heap too: whichever of them holds the next entry, its time is
// now.
func (q *eventQueue) peek(now Time) (t Time, ok bool) {
	if q.ring.Len() > 0 {
		return now, true
	}
	if len(q.heap) > 0 {
		return q.heap[0].t, true
	}
	return 0, false
}

// pop removes and returns the earliest entry, which must exist. A ring
// entry comes back as booked, tombstone or not; the caller checks dead.
func (q *eventQueue) pop(now Time) *event {
	if q.ring.Len() > 0 && (len(q.heap) == 0 || q.heap[0].t > now) {
		ev := q.ring.Pop()
		if ev.dead {
			q.dead--
		}
		return ev
	}
	return q.removeAt(0)
}

// remove cancels a pending event and reports whether it was still going
// to run. One taken from the heap is the caller's to recycle; one in the
// ring stays there as a tombstone and is recycled when popped.
func (q *eventQueue) remove(ev *event) (removed, recycle bool) {
	if ev.index < 0 {
		if ev.dead {
			return false, false
		}
		ev.dead = true
		q.dead++
		return true, false
	}
	q.removeAt(ev.index)
	return true, true
}

// removeAt takes entry i out of the heap and refills the hole with the
// last entry, sifted whichever way it has to go.
func (q *eventQueue) removeAt(i int) *event {
	h := q.heap
	n := len(h) - 1
	ev, last := h[i].ev, h[n]
	h[n] = heapEntry{}
	q.heap = h[:n]
	ev.index = -1
	if i == n {
		return ev
	}
	if i > 0 && last.before(h[(i-1)/4]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
	return ev
}

// up places x at or above the hole i.
func (q *eventQueue) up(i int, x heapEntry) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = x
	x.ev.index = i
}

// down places x at or below the hole i.
func (q *eventQueue) down(i int, x heapEntry) {
	h := q.heap
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, len(h)); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = x
	x.ev.index = i
}
