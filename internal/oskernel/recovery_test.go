package oskernel

import (
	"math/rand"
	"slices"
	"testing"

	"bcl/internal/fabric/myrinet"
	"bcl/internal/mem"
	"bcl/internal/nic"
	"bcl/internal/nic/coll"
	"bcl/internal/sim"
)

// shadowModel is the NIC journal as it was before it became arrays:
// every table a map, the sends a slice of pointers with a map index and
// tombstones compacted lazily, the done mirror a slice resliced from
// the front. It is the model NICShadow is replayed against.
type shadowModel struct {
	ports     map[int]*portModel
	sends     []*sendModel
	sendIdx   map[uint64]*sendModel
	doneCount int
	rxDone    map[int][]uint64
}

type portModel struct {
	normal, opens map[int]*nic.RecvDesc
	sys           []sysEntry
}

type sendModel struct {
	desc *nic.SendDesc
	done bool
}

func newShadowModel() *shadowModel {
	return &shadowModel{ports: map[int]*portModel{}, sendIdx: map[uint64]*sendModel{}, rxDone: map[int][]uint64{}}
}

func (s *shadowModel) port(id int) *portModel {
	ps, ok := s.ports[id]
	if !ok {
		ps = &portModel{normal: map[int]*nic.RecvDesc{}, opens: map[int]*nic.RecvDesc{}}
		s.ports[id] = ps
	}
	return ps
}

func (s *shadowModel) SendPosted(d *nic.SendDesc) {
	e := &sendModel{desc: d}
	s.sends = append(s.sends, e)
	s.sendIdx[d.MsgID] = e
}

func (s *shadowModel) SendRetired(msgID uint64) {
	e, ok := s.sendIdx[msgID]
	if !ok || e.done {
		return
	}
	e.done = true
	s.doneCount++
	if s.doneCount > 64 && s.doneCount > len(s.sends)/2 {
		live := s.sends[:0]
		for _, e := range s.sends {
			if e.done {
				delete(s.sendIdx, e.desc.MsgID)
				continue
			}
			live = append(live, e)
		}
		s.sends = live
		s.doneCount = 0
	}
}

func (s *shadowModel) SysConsumed(port int, va mem.VAddr) {
	ps, ok := s.ports[port]
	if !ok {
		return
	}
	for i, e := range ps.sys {
		if e.va == va {
			ps.sys = append(ps.sys[:i], ps.sys[i+1:]...)
			return
		}
	}
}

func (s *shadowModel) MsgDone(src int, msgID uint64) {
	ring := append(s.rxDone[src], msgID)
	if len(ring) > nic.DoneRing {
		ring = ring[1:]
	}
	s.rxDone[src] = ring
}

func (s *shadowModel) closePort(id int) {
	delete(s.ports, id)
	for _, e := range s.sends {
		if !e.done && e.desc.SrcPort == id {
			e.done = true
			s.doneCount++
		}
	}
}

func (s *shadowModel) Pending() (ports, recvs, colls, sends int) {
	for _, ps := range s.ports {
		recvs += len(ps.normal) + len(ps.opens) + len(ps.sys)
	}
	return len(s.ports), recvs, 0, len(s.sends) - s.doneCount
}

// replayShadow drives a NICShadow and the model through the journal
// traffic prog encodes, three bytes an operation, and after each step
// compares what a recovery would replay — the unretired sends in
// posting order with the descriptor each would repost, every port's
// postings and system pool in order, every source's done-ring oldest
// first — and Pending. Ids are handed out in order and posted when the
// program says, so two ports post out of id order. Each message is
// journaled once: a rewind or a reboot replay reposts it unjournaled.
func replayShadow(t *testing.T, prog []byte) {
	t.Helper()
	got, want := newNICShadow(), newShadowModel()
	var (
		nextID   uint64
		unposted []*nic.SendDesc
		inflight []*nic.SendDesc // posted, not retired, port not closed since
		doneID   [3]uint64
	)
	for step := 0; step+2 < len(prog); step += 3 {
		op, a, b := prog[step]%16, int(prog[step+1]), int(prog[step+2])
		port, ch := 1+a%3, 1+b%5
		switch op {
		case 0, 1, 2, 4: // take an id; post it at once unless told to hold it back
			nextID++
			d := &nic.SendDesc{MsgID: nextID, SrcPort: port}
			if op == 2 {
				unposted = append(unposted, d)
				break
			}
			got.SendPosted(d)
			want.SendPosted(d)
			inflight = append(inflight, d)
		case 3: // a held-back id posts late
			if len(unposted) > 0 {
				i := a % len(unposted)
				d := unposted[i]
				unposted = slices.Delete(unposted, i, i+1)
				got.SendPosted(d)
				want.SendPosted(d)
				inflight = append(inflight, d)
			}
		case 5, 6, 7: // retire: usually the oldest in flight, sometimes any, sometimes a stale or unknown id
			id := uint64(a)
			if len(inflight) > 0 && b%8 != 0 {
				i := 0
				if op == 7 {
					i = a % len(inflight)
				}
				id = inflight[i].MsgID
			}
			inflight = slices.DeleteFunc(inflight, func(d *nic.SendDesc) bool { return d.MsgID == id })
			got.SendRetired(id)
			want.SendRetired(id)
		case 8:
			if b%4 == 0 {
				got.closePort(port)
				want.closePort(port)
				inflight = slices.DeleteFunc(inflight, func(d *nic.SendDesc) bool { return d.SrcPort == port })
			}
		case 9, 10: // a buffer joins the system pool
			e := sysEntry{va: mem.VAddr(4096 * (1 + b%24)), desc: &nic.RecvDesc{}}
			got.port(port).sys.Push(e)
			want.port(port).sys = append(want.port(port).sys, e)
		case 11, 12: // a pool buffer is consumed: the front one, or (intra-node) any
			if ps := want.ports[port]; ps != nil && len(ps.sys) > 0 {
				va := ps.sys[0].va
				if op == 12 {
					va = ps.sys[b%len(ps.sys)].va
				}
				got.SysConsumed(port, va)
				want.SysConsumed(port, va)
			}
		case 13:
			d := &nic.RecvDesc{}
			if b%2 == 0 {
				got.port(port).normal.Set(ch, d)
				want.port(port).normal[ch] = d
			} else {
				got.port(port).opens.Set(ch, d)
				want.port(port).opens[ch] = d
			}
		case 14:
			got.RecvConsumed(port, ch)
			if ps, ok := want.ports[port]; ok {
				delete(ps.normal, ch)
			}
		case 15:
			src := a % len(doneID)
			doneID[src] += 1 + uint64(b%3)
			got.MsgDone(src, doneID[src])
			want.MsgDone(src, doneID[src])
		}

		gp, gr, _, gs := got.Pending()
		wp, wr, _, ws := want.Pending()
		if gp != wp || gr != wr || gs != ws {
			t.Fatalf("step %d (op %d): Pending ports/recvs/sends = %d/%d/%d, model %d/%d/%d", step/3, op, gp, gr, gs, wp, wr, ws)
		}
		var gotSends, wantSends []*nic.SendDesc
		for _, e := range got.sends.AppendTo(nil) {
			if e.id != e.desc.MsgID {
				t.Fatalf("step %d: entry id %d holds descriptor of message %d", step/3, e.id, e.desc.MsgID)
			}
			gotSends = append(gotSends, e.desc)
		}
		for _, e := range want.sends {
			if !e.done {
				wantSends = append(wantSends, e.desc)
			}
		}
		if !slices.Equal(gotSends, wantSends) {
			t.Fatalf("step %d (op %d): replay would repost %d sends, model %d, or in another order", step/3, op, len(gotSends), len(wantSends))
		}
		for id := 1; id <= 3; id++ {
			gps, wps := got.ports.Get(id), want.ports[id]
			if (gps == nil) != (wps == nil) {
				t.Fatalf("step %d: port %d journaled: %v, model %v", step/3, id, gps != nil, wps != nil)
			}
			if gps == nil {
				continue
			}
			if sys := gps.sys.AppendTo(nil); !slices.Equal(sys, wps.sys) {
				t.Fatalf("step %d (op %d): port %d system pool %v, model %v", step/3, op, id, sys, wps.sys)
			}
			for c := 0; c <= 5; c++ {
				if gps.normal.Get(c) != wps.normal[c] || gps.opens.Get(c) != wps.opens[c] {
					t.Fatalf("step %d: port %d channel %d postings differ", step/3, id, c)
				}
			}
		}
		for src := range doneID {
			var ids []uint64
			if l := got.rxDone.Get(src); l != nil {
				ids = l.AppendTo(nil)
			}
			if !slices.Equal(ids, want.rxDone[src]) {
				t.Fatalf("step %d: done-ring of source %d is %v, model %v", step/3, src, ids, want.rxDone[src])
			}
		}
	}
	if c := got.sends.Cap(); c > 4*(64+len(inflight)) {
		t.Fatalf("send journal holds %d entries for %d sends in flight", c, len(inflight))
	}
}

func TestShadowMatchesMapModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog []byte
	}{
		{"post, retire", []byte{0, 0, 0, 5, 0, 1}},
		{"two ports out of id order", []byte{2, 0, 0, 0, 1, 0, 3, 0, 0, 5, 0, 1, 5, 0, 1}},
		{"retire behind a live head", []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 2, 1, 7, 1, 1, 5, 0, 1}},
		{"close with queued sends", []byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 8, 0, 0, 5, 0, 1, 0, 0, 0}},
		{"pool out of order", []byte{9, 0, 1, 9, 0, 2, 9, 0, 3, 12, 0, 1, 11, 0, 0, 9, 0, 4, 11, 0, 0}},
		{"retire unknown", []byte{5, 9, 0, 0, 0, 0, 5, 200, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) { replayShadow(t, tc.prog) })
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 600; i++ {
		prog := make([]byte, 3*(1+rng.Intn(900)))
		rng.Read(prog)
		replayShadow(t, prog)
	}
	// The done mirror wraps: more completions than the ring is deep.
	long := make([]byte, 3*3*nic.DoneRing)
	for i := 0; i < len(long); i += 3 {
		long[i], long[i+1], long[i+2] = 15, byte(i%2), byte(i)
	}
	replayShadow(t, long)
}

func FuzzShadow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 0, 0, 1, 0, 3, 0, 0, 7, 1, 1, 8, 0, 0, 5, 0, 1})
	f.Add([]byte{9, 0, 1, 9, 0, 2, 12, 0, 1, 11, 0, 0, 15, 0, 0, 15, 0, 1})
	f.Fuzz(func(t *testing.T, prog []byte) { replayShadow(t, prog) })
}

// TestRetiredSendsLeaveTheJournal: a retired send leaves the journal's
// queue at once, wherever it stands. One send stays unretired toward a
// dead peer while 10 000 sends to another node are posted and retire,
// four in flight at a time: the queue ends holding only the live sends,
// in posting order, in no more than twice the slots they ever needed.
// (A queue that kept retired entries behind the stuck head until
// something compacted it grew by one slot a send here.)
func TestRetiredSendsLeaveTheJournal(t *testing.T) {
	s := newNICShadow()
	stuck := &nic.SendDesc{MsgID: 1, SrcPort: 1, DstNode: 1}
	s.SendPosted(stuck)
	inflight, peak := []*nic.SendDesc{stuck}, 0
	for id := uint64(2); id < 10002; id++ {
		d := &nic.SendDesc{MsgID: id, SrcPort: 1, DstNode: 2}
		s.SendPosted(d)
		inflight = append(inflight, d)
		peak = max(peak, s.sends.Len())
		if len(inflight) == 5 {
			s.SendRetired(inflight[1].MsgID)
			inflight = slices.Delete(inflight, 1, 2)
		}
	}
	var got []*nic.SendDesc
	for _, e := range s.sends.AppendTo(nil) {
		got = append(got, e.desc)
	}
	if !slices.Equal(got, inflight) {
		t.Fatalf("journal holds %d sends, want the %d live ones in posting order", len(got), len(inflight))
	}
	if c := s.sends.Cap(); c > 2*peak {
		t.Fatalf("journal queue has %d slots for at most %d live sends", c, peak)
	}
}

// BenchmarkShadowSendCycle is the journal's share of one message: the
// send posted and retired, a system buffer consumed and returned, the
// completion mirrored — with four sends outstanding, as a rank in a
// collective has.
func BenchmarkShadowSendCycle(b *testing.B) {
	s := newNICShadow()
	ps := s.port(1)
	var bufs [16]nic.RecvDesc
	for i := range bufs {
		ps.sys.Push(sysEntry{va: mem.VAddr(4096 * (i + 1)), desc: &bufs[i]})
	}
	var descs [4]nic.SendDesc
	id := uint64(0)
	for i := range descs {
		id++
		descs[i] = nic.SendDesc{MsgID: id, SrcPort: 1}
		s.SendPosted(&descs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &descs[i%len(descs)]
		s.SendRetired(d.MsgID)
		id++
		d.MsgID = id
		s.SendPosted(d)
		buf := &bufs[i%len(bufs)]
		va := mem.VAddr(4096 * (i%len(bufs) + 1))
		s.SysConsumed(1, va)
		s.MsgDone(2, id)
		ps.sys.Push(sysEntry{va: va, desc: buf})
	}
}

// newKernelNIC boots a kernel over the card of a one-node Myrinet,
// attached as a cluster node attaches it.
func newKernelNIC() (*sim.Env, *Kernel, *nic.NIC) {
	env, k := newKernel()
	n := nic.New(env, k.prof, nic.Config{Reliable: true}, 0, myrinet.New(env, k.prof, 1).Attach(0), k.mem)
	k.AttachNIC(n)
	return env, k, n
}

// TestReplayCostsWhatBootCost: recovery programs the card through the
// commands' card halves, so replaying a port and a receive posting over
// two frames apart costs the same PIO time as programming them did,
// segment words included.
func TestReplayCostsWhatBootCost(t *testing.T) {
	env, k, n := newKernelNIC()
	proc, other := k.Spawn(), k.Spawn()
	va := proc.Space.Alloc(4096)
	other.Space.Alloc(4096) // takes the next frame
	proc.Space.Alloc(4096)  // va's virtual neighbour, in a frame apart
	var boot, replay sim.Time
	env.Go("p", func(p *sim.Proc) {
		segs, err := k.TranslateAndPin(p, proc.PID, proc.Space, va, 8192, nil)
		if err != nil || len(segs) != 2 {
			t.Errorf("buffer translates to %d segments, %v; want 2", len(segs), err)
			return
		}
		d := n.GetRecvDesc()
		d.Len, d.VA, d.Space, d.Segs = 8192, va, proc.Space, segs
		start := p.Now()
		k.RegisterPort(p, 1, 1)
		if err := k.PostRecv(p, 1, 1, d); err != nil {
			t.Error(err)
		}
		boot = p.Now() - start
		n.CrashFirmware()
		n.BeginReboot()
		start = p.Now()
		k.replayNIC(p)
		replay = p.Now() - start
		n.FinishReboot()
	})
	env.Run()
	if want := k.prof.PIOFill(8) + k.PIOFillCost(k.prof.RecvDescWords, 2); boot != want {
		t.Fatalf("programming cost %d, want %d", boot, want)
	}
	if replay != boot {
		t.Fatalf("replay cost %d, programming %d", replay, boot)
	}
	if got := k.Stats().ReplayedRecords; got != 2 {
		t.Fatalf("replayed %d records, want 2", got)
	}
	if err := n.Drained(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedCommandsAreNotJournaled: a command journals only what the
// card accepted. Rebinding an armed channel leaves the journal holding
// the first posting, and a buffer for an unregistered port or a bad
// collective context leaves Pending unchanged.
func TestRejectedCommandsAreNotJournaled(t *testing.T) {
	env, k, n := newKernelNIC()
	proc := k.Spawn()
	va := proc.Space.Alloc(4096)
	desc := func() *nic.RecvDesc {
		d := n.GetRecvDesc()
		d.Len, d.VA, d.Space = 4096, va, proc.Space
		return d
	}
	env.Go("p", func(p *sim.Proc) {
		k.RegisterPort(p, 1, 1)
		first := desc()
		if err := k.PostRecv(p, 1, 1, first); err != nil {
			t.Error(err)
			return
		}
		ports, recvs, colls, sends := k.shadow.Pending()
		if err := k.PostRecv(p, 1, 1, desc()); err == nil {
			t.Error("rebinding an armed channel was accepted")
		}
		if err := k.AddSystemBuffer(p, 9, desc()); err == nil {
			t.Error("a system buffer for an unregistered port was accepted")
		}
		if err := k.RegisterOpen(p, 9, 1, desc()); err == nil {
			t.Error("an open channel on an unregistered port was accepted")
		}
		if err := k.RegisterCollCtx(p, &nic.CollSpec{ID: 1, Nodes: []int{0}, Ports: []int{1}}); err == nil {
			t.Error("a collective context with no members was accepted")
		}
		p2, r2, c2, s2 := k.shadow.Pending()
		if p2 != ports || r2 != recvs || c2 != colls || s2 != sends {
			t.Errorf("Pending %d/%d/%d/%d after rejected commands, was %d/%d/%d/%d", p2, r2, c2, s2, ports, recvs, colls, sends)
		}
		if got := k.shadow.ports.Get(1).normal.Get(1); got != first {
			t.Error("the journal lost the posting the card still holds")
		}
	})
	env.Run()
	if err := n.Drained(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedPortLeavesTheJournal: closing a port drops the collective
// contexts whose local member it is along with its tables, so
// journal_records is back at its value before the port opened, and the
// watchdog's recovery after a firmware crash programs no context for
// the endpoint.
func TestClosedPortLeavesTheJournal(t *testing.T) {
	env, k, n := newKernelNIC()
	proc := k.Spawn()
	va := proc.Space.Alloc(4096)
	records := func() (got int64) {
		k.CollectGauges(func(_ int, _, name string, v int64) {
			if name == "journal_records" {
				got = v
			}
		})
		return got
	}
	spec := &nic.CollSpec{
		ID: 7, Me: 0, Nodes: []int{0}, Ports: []int{1}, Plan: coll.Binomial(1, 0),
		Landing: nic.RecvDesc{Len: 4096, VA: va, Space: proc.Space}, SlotSize: 64, Slots: 4,
	}
	env.Go("p", func(p *sim.Proc) {
		before := records()
		k.RegisterPort(p, 1, 1)
		if err := k.RegisterCollCtx(p, spec); err != nil {
			t.Error(err)
			return
		}
		if got := records(); got != before+2 {
			t.Errorf("journal_records %d with a port and a context, want %d", got, before+2)
		}
		k.ClosePort(1)
		if got := records(); got != before {
			t.Errorf("journal_records %d after ClosePort, want %d as before the port opened", got, before)
		}
		n.CrashFirmware()
		k.recoverNIC(p)
		if got := k.Stats().ReplayedRecords; got != 0 {
			t.Errorf("the recovery replayed %d records of a closed port", got)
		}
		if err := n.RegisterCollCtx(spec); err != nil {
			t.Errorf("the recovery programmed the closed port's context: %v", err)
		}
	})
	env.Run()
}
