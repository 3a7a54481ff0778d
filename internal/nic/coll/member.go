package coll

import "bcl/internal/fabric"

// A Member is the collective protocol at one member of one context: it
// makes every fold, forward, adoption and retry decision and has no
// clock. Its inputs are Post (the host's own contribution, or a
// multicast it originates), Receive (a collective packet off the wire),
// Failed (a forward whose flow was declared dead) and Retry (a retry
// the Member armed is due). It keeps one record per combine sequence
// and one per multicast (origin, sequence); the NIC's collective engine
// carries out what it decides through Acts.
type Member struct {
	Plan
	Me     int
	insts  map[uint64]*inst
	mcasts map[mkey]*once
}

// NewMember returns member me's core for a context over plan pl.
func NewMember(pl Plan, me int) *Member {
	return &Member{Plan: pl, Me: me, insts: make(map[uint64]*inst), mcasts: make(map[mkey]*once)}
}

// Acts carries out what a Member decides, in the order it decides it.
// Send, Deliver, Hold and Fold take model time; Healthy is asked at the
// moment of each decision, because an earlier Send may have blocked.
type Acts interface {
	Healthy(m int) bool             // member m's node is believed alive
	Send(m int, pkt *fabric.Packet) // forward pkt to m over its reliable flow
	Deliver(pkt *fabric.Packet, result bool)
	Hold(bytes int) // SRAM for an aggregate
	Free(bytes int)
	Fold(trace uint64)         // charge folding one contribution
	Arm(seq uint64, round int) // Retry(seq) is due after round's backoff
	Disarm(seq uint64)
	Keep(seq, msgID uint64) // the journal holds the local contribution
	Retire(seq uint64)      // and lets it go
	Note(k Note, pkt *fabric.Packet, x uint64)
}

// Note names what a Member did besides its acts, about pkt.
type Note uint8

// Notes; x is as each says.
const (
	Dup        Note = iota // a delivery or contribution seen before
	Overlap                // a contribution partly folded already, dropped; x: the mask held
	Reparent               // member x routed around
	Adopt                  // member x adopted
	NoAncestor             // no live ancestor to forward to
	Retried                // the own contribution re-offered to the root; x: the round
)

// retryRounds bounds the healing path: past it the instance cannot heal.
const retryRounds = 16

type mkey struct {
	origin int
	seq    uint64
}

// once is a downward message's progress at this member.
type once struct{ delivered, forwarded bool }

// inst is one combine at this member: the running aggregate until it
// goes up (at the root, the result), the members folded and learned
// dead, and in release mode the own contribution kept for the healing
// path. Its SRAM goes back once the aggregate leaves or the result
// arrives; the record stays, so a straggler is still a duplicate.
type inst struct {
	once                   // release: the result delivered, forwarded
	agg     *fabric.Packet // the first contribution's header, tag, trace and birth
	sram    int
	mask    uint64
	dead    uint64
	sent    bool // the single upward forward is out
	done    bool
	own     *fabric.Packet
	ownSRAM int
	round   int
}

// packet is the one constructor of a collective packet: kind, header
// and payload on like's tag, trace and birth time. The engine fills in
// the addressing when it sends one.
func packet(kind fabric.PacketKind, h fabric.CollHdr, payload []byte, like *fabric.Packet) *fabric.Packet {
	return &fabric.Packet{Kind: kind, Coll: h, Payload: payload, Tag: like.Tag, Trace: like.Trace, Born: like.Born}
}

func (c *Member) inst(seq uint64) *inst {
	r := c.insts[seq]
	if r == nil {
		r = &inst{}
		c.insts[seq] = r
	}
	return r
}

// SRAM returns what the records hold, for a context leaving the card.
func (c *Member) SRAM() (b int) {
	for _, r := range c.insts {
		b += r.sram + r.ownSRAM
	}
	return b
}

// Post takes the host's own contribution (KindCollComb) or a multicast
// it originates, whose payload the fetch staged in sram bytes of SRAM;
// pkt.MsgID is the descriptor's.
func (c *Member) Post(a Acts, pkt *fabric.Packet, sram int) {
	h := &pkt.Coll
	h.Origin = c.Me
	if pkt.Kind == fabric.KindCollMcast {
		// The origin holds the data: the tree's copy that loops back is
		// only forwarded. Another origin hands it to the root, which
		// owns the distribution tree.
		o := c.mcast(c.Me, h.Seq)
		o.delivered = true
		if c.Me == c.Root {
			o.forwarded = true
			c.fanout(a, pkt, c.Children(c.Me))
		} else {
			c.fanout(a, pkt, []int{c.Root})
		}
		a.Free(sram)
		return
	}
	h.Mask, h.Dead = Bit(c.Me), 0
	r := c.inst(h.Seq)
	if h.Release && !r.done && r.mask&h.Mask == 0 {
		// Until the result returns: a firmware crash in between
		// replays the contribution instead of stalling the barrier.
		a.Keep(h.Seq, pkt.MsgID)
	}
	c.fold(a, pkt)
	if h.Release && c.Me != c.Root && r.own == nil && !r.done {
		r.own, r.ownSRAM = pkt, sram
		c.arm(a, h.Seq, r)
	} else {
		a.Free(sram)
	}
}

func (c *Member) mcast(origin int, seq uint64) *once {
	k := mkey{origin, seq}
	o := c.mcasts[k]
	if o == nil {
		o = &once{}
		c.mcasts[k] = o
	}
	return o
}

// Receive takes a collective packet off the wire: a contribution from
// below, a combine's result from above, or a multicast.
func (c *Member) Receive(a Acts, pkt *fabric.Packet) {
	switch {
	case pkt.Kind == fabric.KindCollComb:
		c.fold(a, pkt)
	case pkt.Coll.Release:
		seq := pkt.Coll.Seq
		r := c.inst(seq)
		if r.own != nil {
			a.Disarm(seq)
			a.Free(r.ownSRAM)
			r.own, r.ownSRAM = nil, 0
		}
		a.Free(r.sram)
		r.sram, r.done = 0, true
		a.Retire(seq)
		c.down(a, &r.once, pkt, true)
	default:
		c.down(a, c.mcast(pkt.Coll.Origin, pkt.Coll.Seq), pkt, false)
	}
}

// down delivers a downward packet once and forwards it to the children
// once.
func (c *Member) down(a Acts, o *once, pkt *fabric.Packet, result bool) {
	if !o.delivered {
		o.delivered = true
		a.Deliver(pkt, result)
	} else {
		a.Note(Dup, pkt, 0)
	}
	if !o.forwarded {
		o.forwarded = true
		c.fanout(a, pkt, c.Children(c.Me))
	}
}

// fold takes one contribution, the own one or a child's. Only disjoint
// coverage folds: a subset is a duplicate, and a partial overlap cannot
// be taken apart from the bytes folded already, so it is dropped.
func (c *Member) fold(a Acts, pkt *fabric.Packet) {
	h := pkt.Coll
	r := c.inst(h.Seq)
	if r.done {
		a.Note(Dup, pkt, 0)
		if c.Me == c.Root && r.agg.Coll.Release && h.Origin != c.Me {
			// A straggler still re-offering its contribution missed the
			// release: answer it from the kept result.
			a.Send(h.Origin, r.agg)
		}
		return
	}
	switch {
	case r.mask&h.Mask == 0:
		if r.agg == nil {
			r.agg = packet(fabric.KindCollComb, h, nil, pkt)
		}
		if r.agg.Payload == nil {
			r.agg.Payload = append([]byte(nil), pkt.Payload...)
			r.sram = len(r.agg.Payload)
			a.Hold(r.sram)
		} else {
			a.Fold(pkt.Trace)
			Combine(r.agg.Payload, pkt.Payload, Op(r.agg.Coll.Op), DT(r.agg.Coll.DT))
		}
		r.mask |= h.Mask
	case h.Mask&^r.mask == 0:
		a.Note(Dup, pkt, 0)
	default:
		a.Note(Overlap, pkt, r.mask)
	}
	r.dead |= h.Dead
	c.advance(a, r)
}

// advance completes a combine at the root once every member is folded
// or dead, and elsewhere sends the aggregate up once the subtree's live
// members are in.
func (c *Member) advance(a Acts, r *inst) {
	h := r.agg.Coll
	if c.Me == c.Root {
		if full := c.FullMask(); (r.mask|r.dead)&full != full {
			return
		}
		// The result names dead exactly the members it lacks: one learned
		// dead whose contribution came in anyway is folded, not dead.
		r.agg = packet(fabric.KindCollMcast, fabric.CollHdr{Ctx: h.Ctx, Seq: h.Seq, Origin: c.Me, Dead: r.dead &^ r.mask, Op: h.Op, DT: h.DT, Release: h.Release}, r.agg.Payload, r.agg)
		sram := r.sram
		r.sram, r.done = 0, true
		a.Retire(h.Seq)
		a.Deliver(r.agg, true)
		if h.Release {
			r.delivered, r.forwarded = true, true
			c.fanout(a, r.agg, c.Children(c.Me))
		}
		a.Free(sram)
		return
	}
	if need := c.SubtreeMask(c.Me) &^ r.dead; r.sent || r.mask&need != need {
		return // forward once; the healing path re-offers single bits
	}
	h.Origin, h.Mask, h.Dead = c.Me, r.mask, r.dead
	fwd := packet(fabric.KindCollComb, h, r.agg.Payload, r.agg)
	to := c.up(a, r, fwd)
	if to < 0 {
		return
	}
	// The aggregate moves into the forward and its SRAM goes back; a
	// later disjoint contribution is charged and folds into nothing.
	r.sent = true
	if r.agg.Payload != nil {
		r.agg.Payload = []byte{}
	}
	a.Free(r.sram)
	r.sram = 0
	a.Send(to, fwd)
}

// up finds pkt's first live ancestor, routing around each dead one on
// the way; -1 if there is none.
func (c *Member) up(a Acts, r *inst, pkt *fabric.Packet) int {
	to := -1
	for _, m := range c.Ancestors(c.Me) {
		if pkt.Coll.Dead&Bit(m) == 0 && a.Healthy(m) {
			to = m
			break
		}
		c.bury(a, pkt, m)
	}
	r.dead |= pkt.Coll.Dead
	if to < 0 {
		a.Note(NoAncestor, pkt, 0)
	}
	return to
}

// bury puts member m in pkt's dead mask, noting it the first time.
func (c *Member) bury(a Acts, pkt *fabric.Packet, m int) {
	if pkt.Coll.Dead&Bit(m) == 0 {
		pkt.Coll.Dead |= Bit(m)
		a.Note(Reparent, pkt, uint64(m))
	}
}

// fanout forwards a downward packet to members, adopting the children
// of any it believes dead.
func (c *Member) fanout(a Acts, pkt *fabric.Packet, members []int) {
	for _, m := range members {
		switch {
		case m == c.Me:
		case pkt.Coll.Dead&Bit(m) != 0 || !a.Healthy(m):
			c.adopt(a, pkt, m)
		default:
			a.Send(m, pkt)
		}
	}
}

// adopt routes a downward packet around member m: m's children receive
// it from here. The packet is not marked: m's subtree never meets m, and
// a result's dead mask names only the members the root's fold lacks.
func (c *Member) adopt(a Acts, pkt *fabric.Packet, m int) {
	if pkt.Coll.Dead&Bit(m) == 0 {
		a.Note(Reparent, pkt, uint64(m))
	}
	kids := c.Children(m)
	for _, k := range kids {
		a.Note(Adopt, pkt, uint64(k))
	}
	c.fanout(a, pkt, kids)
}

// Failed takes a forward to member m whose flow was declared dead, and
// heals the tree around m: a multicast or a result goes to m's
// children, an aggregate or a retry to the next live ancestor.
func (c *Member) Failed(a Acts, m int, pkt *fabric.Packet) {
	if pkt.Kind != fabric.KindCollComb {
		c.adopt(a, pkt, m)
		return
	}
	pkt = pkt.CopyOut()
	c.bury(a, pkt, m)
	if r := c.insts[pkt.Coll.Seq]; r != nil && !r.done {
		if to := c.up(a, r, pkt); to >= 0 {
			a.Send(to, pkt)
		}
	}
}

// Retry re-offers the own contribution straight to the root while the
// result is out. A single bit never partly overlaps, so the healing
// path composes with whatever aggregates survived.
func (c *Member) Retry(a Acts, seq uint64) {
	r := c.insts[seq]
	if r == nil || r.own == nil {
		return
	}
	r.round++
	pkt := packet(fabric.KindCollComb, r.own.Coll, r.own.Payload, r.own)
	pkt.Coll.Dead = r.dead
	a.Note(Retried, pkt, uint64(r.round))
	a.Send(c.Root, pkt)
	c.arm(a, seq, r)
}

func (c *Member) arm(a Acts, seq uint64, r *inst) {
	if r.round < retryRounds {
		a.Arm(seq, r.round)
	}
}
