package gbn

import (
	"math/rand"
	"testing"
)

// doneModel is the receiver's done-ring as it was before it became one:
// a set of ids plus their arrival order, resliced from the front. It is
// the model Receiver's ring is replayed against.
type doneModel struct {
	done  map[uint64]bool
	order []uint64
}

func (m *doneModel) mark(id uint64) {
	if m.done == nil {
		m.done = make(map[uint64]bool)
	}
	m.done[id] = true
	m.order = append(m.order, id)
	if len(m.order) > DoneRing {
		delete(m.done, m.order[0])
		m.order = m.order[1:]
	}
}

func (m *doneModel) restore(ids []uint64) {
	for _, id := range ids {
		if m.done == nil {
			m.done = make(map[uint64]bool)
		}
		if !m.done[id] {
			m.done[id] = true
			m.order = append(m.order, id)
		}
	}
}

// replayDoneRing drives a receiver's done-ring and the model through
// the completions prog encodes, two bytes an operation: messages
// completing with ids that mostly grow but also fall behind (two ports
// interleaved by the WRR arbiter, a replay landing late), and reboots,
// after which a fresh receiver is re-seeded by Restore from what the
// kernel journal mirrored — the last DoneRing completions, oldest first. As
// on the card, a message completes only if it is not in the ring: one
// that is gets swallowed before it is assembled. After every step,
// membership must agree for every id near the ones in play.
func replayDoneRing(t *testing.T, prog []byte) {
	t.Helper()
	f, want := &Receiver{}, &doneModel{}
	var journal []uint64 // the kernel's mirror: last DoneRing completions
	next := uint64(1)
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step]%8, uint64(prog[step+1])
		switch {
		case op < 6: // a message completes
			id := next
			switch op {
			case 4: // an older id: behind the front by up to 255
				id = next - min(next-1, arg)
			case 5: // ids jump (other destinations took the ones between)
				next += arg
				id = next
			}
			if id == next {
				next++
			}
			if f.Done(id) != want.done[id] {
				t.Fatalf("step %d: Done(%d) = %v, model %v", step/2, id, f.Done(id), want.done[id])
			}
			if !f.Done(id) {
				f.Record(id)
				want.mark(id)
				if journal = append(journal, id); len(journal) > DoneRing {
					journal = journal[1:]
				}
			}
		case op == 6 && arg%4 == 0: // reboot: SRAM wiped, ring restored from the journal
			f, want = &Receiver{}, &doneModel{}
			f.Restore(journal)
			want.restore(journal)
		case op == 7: // a restore that names ids twice adds each once
			ids := append(append([]uint64(nil), journal...), journal...)
			f.Restore(ids)
			want.restore(ids)
		}
		lo := uint64(0)
		if next > 300 {
			lo = next - 300
		}
		for id := lo; id < next+3; id++ {
			if f.Done(id) != want.done[id] {
				t.Fatalf("step %d (op %d): Done(%d) = %v, model %v", step/2, op, id, f.Done(id), want.done[id])
			}
		}
		if f.done.Len() > DoneRing && op != 7 {
			t.Fatalf("step %d: ring holds %d ids, bound %d", step/2, f.done.Len(), DoneRing)
		}
	}
}

func TestDoneRingMatchesMapModel(t *testing.T) {
	wrap := make([]byte, 2*3*DoneRing) // in-order completions, three times round the ring
	replayDoneRing(t, wrap)
	late := append(append([]byte(nil), wrap[:2*200]...), 4, 100, 4, 150, 4, 3, 6, 0, 4, 100, 0, 0)
	replayDoneRing(t, late) // ids behind the front, across a reboot
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 100; i++ {
		prog := make([]byte, 2*(1+rng.Intn(500)))
		rng.Read(prog)
		replayDoneRing(t, prog)
	}
}

func FuzzDoneRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 4, 1, 5, 9, 6, 0, 4, 2, 7, 0})
	f.Fuzz(func(t *testing.T, prog []byte) { replayDoneRing(t, prog) })
}

// BenchmarkDoneRing is the done-ring's share of one received message:
// the membership test every in-order data packet takes, then the entry
// of the completed message, on a ring that has long since wrapped.
func BenchmarkDoneRing(b *testing.B) {
	f := &Receiver{}
	id := uint64(0)
	for ; id < 4*DoneRing; id++ {
		f.Record(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id += 3 // this card's ids, as one peer sees them
		if !f.Done(id) {
			f.Record(id)
		}
	}
}
