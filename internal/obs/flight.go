package obs

import (
	"fmt"
	"strings"

	"bcl/internal/sim"
)

// Event is one flight-recorder entry: a protocol event worth seeing in
// a post-mortem (retransmit round, peer death, rail failover, send
// failure, CRC drop, ...).
type Event struct {
	T      sim.Time `json:"t_ns"`
	Node   int      `json:"node"` // -1 for cluster-wide events
	Layer  string   `json:"layer"`
	What   string   `json:"what"`
	Trace  uint64   `json:"trace,omitempty"` // causal trace id, 0 if not tied to one message
	Detail string   `json:"detail,omitempty"`
}

// Recorder is a bounded ring buffer of recent protocol events: cheap
// enough to leave on, dumped on assertion failures and on demand.
type Recorder struct {
	buf   sim.Ring[Event]
	keep  int
	total uint64
}

// NewRecorder returns a recorder keeping the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &Recorder{keep: capacity}
}

// Record appends an event, evicting the oldest once full. A nil
// recorder is a no-op.
func (r *Recorder) Record(t sim.Time, node int, layer, what string, trace uint64, detail string) {
	if r == nil {
		return
	}
	r.buf.PushLast(Event{T: t, Node: node, Layer: layer, What: what, Trace: trace, Detail: detail}, r.keep)
	r.total++
}

// Total returns how many events were ever recorded (including evicted
// ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns how many events were evicted to make room — the gap
// between everything ever recorded and what the ring still retains.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(r.buf.Len())
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.buf.AppendTo(nil)
}

// Text renders the last n retained events (all of them if n <= 0) as a
// flight-recorder dump.
func (r *Recorder) Text(n int) string {
	evs := r.Events()
	if len(evs) == 0 {
		return "(flight recorder empty)\n"
	}
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: last %d of %d events\n", len(evs), r.Total())
	for _, e := range evs {
		where := "-"
		if e.Node >= 0 {
			where = fmt.Sprintf("n%d", e.Node)
		}
		fmt.Fprintf(&b, "%10.3fms %-4s %-16s %-16s", float64(e.T)/float64(sim.Millisecond), where, e.Layer, e.What)
		if e.Trace != 0 {
			fmt.Fprintf(&b, " trace=%x", e.Trace)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " %s", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
