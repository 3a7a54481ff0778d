package svc

import (
	"fmt"

	"bcl/internal/bcl"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/obs/reqtrace"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// Server is one shard of the service: a single event-loop process
// owning a slice of the keyspace (by consistent hash), the sessions of
// the clients talking to it, the cache-interest sets that drive
// write-invalidation, and both halves of the two-phase-commit engine
// (it coordinates transactions whose first key it owns, and
// participates in everyone else's).
//
// Everything is a state machine driven by one loop: no handler ever
// blocks on the network, so a lost peer can never wedge the shard.
// Every handler is idempotent — duplicates re-send the recorded
// answer — and every outbound protocol message sits on a retransmit
// timer until acknowledged, except ABORT, which presumed-abort lets us
// send exactly once and forget.
type Server struct {
	cfg  ServerConfig
	ep   *endpoint
	env  *sim.Env
	node int
	row  string // "host<node>", the trace row of this process
	tr   *trace.Tracer
	rt   *reqtrace.Recorder

	store map[string]entry
	locks map[string]uint64 // key -> txid holding a prepare lock
	names names             // every key a kept record names

	sessions   map[uint16]*session
	helloIndex map[helloKey]uint16
	nextSess   uint16

	interest map[string][]uint16 // key -> sessions holding a cached copy

	invs    []*invState
	invByID map[uint32]*invState
	nextInv uint32

	// Retired records, reused: a record goes back once nothing can
	// reach it (a group when it fires, the others when runTimers drops
	// them from their table).
	invFree   sim.FreeList[*invState]
	groupFree sim.FreeList[*invGroup]
	coordFree sim.FreeList[*cTxn]
	partFree  sim.FreeList[*cPart]
	stageFree sim.FreeList[*pTxn]

	coord     map[uint64]*cTxn
	coordList []*cTxn
	nextTxn   uint64

	staged     map[uint64]*pTxn
	stagedList []*pTxn

	// Recently applied transactions: a duplicated COMMIT after apply is
	// re-acked, never re-applied.
	applied      map[uint64]struct{}
	appliedOrder sim.Ring[uint64]

	rng uint64

	stats serverStats
}

type serverStats struct {
	reqGet, reqPut, reqTxn uint64
	replies, dedupReplays  uint64
	authFail               uint64
	invsSent, invAcks      uint64
	invRetrans             uint64
	prepares, votesNo      uint64
	txnCommitted           uint64
	txnAborted             uint64
	txnRetrans             uint64
	putConflicts           uint64
	dropped                uint64
}

// ServerConfig wires one shard into the deployment.
type ServerConfig struct {
	Index    int        // this shard's index in Shards
	Shards   []bcl.Addr // every shard's port address, in index order
	Ring     *Ring
	AuthSeed uint64   // shared credential seed (see userSecret)
	Seed     uint64   // challenge RNG seed
	RTO      sim.Time // initial service-level retransmit timeout
	Tick     sim.Time // max event-loop sleep
	// ReqObs mirrors every flow-stage marker into the request-level
	// observability recorder (the client side opens the records).
	ReqObs *reqtrace.Recorder
}

type entry struct {
	val []byte
	ver uint64
}

type helloKey struct {
	client bcl.Addr
	nonce  uint64
}

// Session auth states.
const (
	sessChallenged = 1
	sessUp         = 2
)

type session struct {
	id        uint16
	client    bcl.Addr
	nonce     uint64 // with client, the session's helloIndex key
	user      string
	state     uint8
	challenge uint64
	lastReply map[uint16]replyCache // per user channel
	inProg    map[uint16]uint32     // user channel -> seq being executed
}

// replyCache is a user channel's last reply, kept as its fields: only a
// get's value is copied, into the buffer the channel's previous reply
// left. The fields are ordered widest first, 48 bytes with no padding.
type replyCache struct {
	flow   uint64
	ver    uint64
	val    []byte
	seq    uint32
	status byte
}

// invGroup gathers the invalidations one write fanned out; fire sends
// the write's answer when the last ack lands (it is withheld until
// then, which is what makes the cache tier coherent: an acknowledged
// write means no client cache still serves an older version). The
// answer is a put's reply to se, or a committed transaction's ack to
// its coordinator.
type invGroup struct {
	waiting int
	flow    uint64
	se      *session // put: the writer, answered on (uch, seq)
	uch     uint16
	seq     uint32
	ver     uint64
	coord   bcl.Addr // commit (se nil): the coordinator to ack
	txid    uint64
}

type invState struct {
	id     uint32
	key    string
	ver    uint64
	sess   uint16
	client bcl.Addr
	group  *invGroup
	nextAt sim.Time
	rto    sim.Time
	done   bool
}

type txOp struct {
	key string
	val []byte
}

// writeSet reads a write set's op count and walks that many (key,
// value) pairs, so r.ok says whether the set is whole; ops is a reader
// at the first pair, to read the set again.
func writeSet(r *reader) (nops int, ops reader) {
	nops = int(r.byte())
	ops = *r
	for i := 0; i < nops && r.ok; i++ {
		r.bytes()
		r.bytes()
	}
	return nops, ops
}

// keepOp appends (key, a copy of val) to ops, reusing the value buffer
// a retired op left in that slot.
func keepOp(ops []txOp, key string, val []byte) []txOp {
	n := len(ops)
	if n == cap(ops) {
		ops = append(ops, txOp{})
	}
	ops = ops[:n+1]
	ops[n].key, ops[n].val = key, append(ops[n].val[:0], val...)
	return ops
}

// cTxn is coordinator-side transaction state (presumed abort: it is
// deleted the moment an abort is decided; only commits are remembered
// until every participant acks).
type cTxn struct {
	txid    uint64
	sess    uint16
	uch     uint16
	seq     uint32
	flow    uint64
	parts   []*cPart
	decided bool
	commit  bool
	done    bool
	nextAt  sim.Time
	rto     sim.Time
}

type cPart struct {
	shard   int
	addr    bcl.Addr
	voted   bool
	vote    bool
	acked   bool
	payload []byte // the PREPARE body, kept for retransmission
}

// prepareCount is the offset of the op count in a PREPARE body, after
// the txid and the flow id.
const prepareCount = 16

// pTxn is participant-side staged state between PREPARE and the
// decision; only a YES voter stages one.
type pTxn struct {
	txid      uint64
	coord     bcl.Addr
	flow      uint64
	ops       []txOp
	inquireAt sim.Time
	rto       sim.Time
	done      bool
}

const appliedCap = 2048

// StartShards boots the service's shards from the setup process p:
// for each shard of cfg.Ring it opens a port on the node of the same
// index, with opts and bufSize-byte system buffers, then starts that
// shard's server as process "shard<i>". cfg carries what the shards
// share; StartShards fills in Index and Shards.
func StartShards(p *sim.Proc, sys *bcl.System, opts bcl.Options, bufSize int, cfg ServerConfig) ([]*Server, error) {
	place := make([]int, cfg.Ring.Shards())
	for i := range place {
		place[i] = i
	}
	opts.SystemBufSize = bufSize
	ports, err := sys.OpenJob(p, place, opts)
	if err != nil {
		return nil, err
	}
	cfg.Shards = bcl.Addrs(ports)
	servers := make([]*Server, len(ports))
	for i, pt := range ports {
		cfg.Index = i
		servers[i] = NewServer(p, pt, bufSize, cfg)
		sys.Cluster.Env.Go(fmt.Sprintf("shard%d", i), servers[i].Run)
	}
	return servers, nil
}

// NewServer attaches a shard server to an opened BCL port. The port's
// system pool should be generously sized (64+ buffers); the caller
// starts the loop with env.Go(..., srv.Run).
func NewServer(p *sim.Proc, port *bcl.Port, bufSize int, cfg ServerConfig) *Server {
	if cfg.RTO == 0 {
		cfg.RTO = 300 * sim.Microsecond
	}
	if cfg.Tick == 0 {
		cfg.Tick = 100 * sim.Microsecond
	}
	s := &Server{
		cfg:        cfg,
		ep:         newEndpoint(p, port, 64, bufSize),
		env:        port.Node().Env,
		node:       port.Addr().Node,
		row:        fmt.Sprintf("host%d", port.Addr().Node),
		tr:         port.Tracer(),
		rt:         cfg.ReqObs,
		store:      make(map[string]entry),
		locks:      make(map[string]uint64),
		names:      make(names),
		sessions:   make(map[uint16]*session),
		helloIndex: make(map[helloKey]uint16),
		interest:   make(map[string][]uint16),
		invByID:    make(map[uint32]*invState),
		coord:      make(map[uint64]*cTxn),
		staged:     make(map[uint64]*pTxn),
		applied:    make(map[uint64]struct{}),
		rng:        sim.Splitmix64(cfg.Seed ^ uint64(cfg.Index)<<32),
	}
	node := s.node
	port.Node().Obs.RegisterCollector(func(set obs.Set) {
		set(node, "svc", "req_get", s.stats.reqGet)
		set(node, "svc", "req_put", s.stats.reqPut)
		set(node, "svc", "req_txn", s.stats.reqTxn)
		set(node, "svc", "replies", s.stats.replies)
		set(node, "svc", "dedup_replays", s.stats.dedupReplays)
		set(node, "svc", "auth_fail", s.stats.authFail)
		set(node, "svc", "invs_sent", s.stats.invsSent)
		set(node, "svc", "inv_acks", s.stats.invAcks)
		set(node, "svc", "inv_retrans", s.stats.invRetrans)
		set(node, "svc", "prepares", s.stats.prepares)
		set(node, "svc", "votes_no", s.stats.votesNo)
		set(node, "svc", "txn_committed", s.stats.txnCommitted)
		set(node, "svc", "txn_aborted", s.stats.txnAborted)
		set(node, "svc", "txn_retrans", s.stats.txnRetrans)
		set(node, "svc", "put_conflicts", s.stats.putConflicts)
		set(node, "svc", "rpc_dropped", s.stats.dropped)
	})
	return s
}

// Addr returns the shard's port address.
func (s *Server) Addr() bcl.Addr { return s.ep.port.Addr() }

// Peek inspects a key's committed value and version directly (bench
// verification only — it bypasses the protocol on purpose).
func (s *Server) Peek(key string) ([]byte, uint64) {
	e, ok := s.store[key]
	if !ok {
		return nil, 0
	}
	return e.val, e.ver
}

// Stats returns a snapshot of the shard's counters.
func (s *Server) Stats() (committed, aborted, invsSent uint64) {
	return s.stats.txnCommitted, s.stats.txnAborted, s.stats.invsSent
}

// DedupReplays counts requests answered from the per-channel reply
// cache (retransmissions the server refused to re-execute).
func (s *Server) DedupReplays() uint64 { return s.stats.dedupReplays }

func (s *Server) rand() uint64 {
	s.rng = sim.Splitmix64(s.rng)
	return s.rng
}

// Run is the shard's event loop; it never returns.
func (s *Server) Run(p *sim.Proc) {
	for {
		now := p.Now()
		wake := s.nextDue(now + s.cfg.Tick)
		d := wake - now
		if d < sim.Microsecond {
			d = sim.Microsecond
		}
		ev, ok := s.ep.port.WaitRecvTimeout(p, d)
		if ok {
			s.handle(p, ev)
		} else {
			s.ep.flushReturns(p)
		}
		s.ep.drainSends(p)
		s.runTimers(p)
	}
}

// nextDue scans the retransmit tables for the earliest deadline.
func (s *Server) nextDue(cap sim.Time) sim.Time {
	due := cap
	for _, iv := range s.invs {
		if !iv.done && iv.nextAt < due {
			due = iv.nextAt
		}
	}
	for _, t := range s.coordList {
		if !t.done && t.nextAt < due {
			due = t.nextAt
		}
	}
	for _, t := range s.stagedList {
		if !t.done && t.inquireAt < due {
			due = t.inquireAt
		}
	}
	return due
}

func (s *Server) handle(p *sim.Proc, ev nic.Event) {
	kind, sess, uch, seq := unpackTag(ev.Tag)
	body := s.ep.read(p, ev)
	src := bcl.Addr{Node: ev.SrcNode, Port: ev.SrcPort}
	r := newReader(body)
	switch kind {
	case kindHello:
		s.onHello(p, src, r)
	case kindAuth:
		s.onAuth(p, src, sess, r)
	case kindGet:
		s.onGet(p, sess, uch, seq, r)
	case kindPut:
		s.onPut(p, sess, uch, seq, r)
	case kindTxn:
		s.onTxn(p, sess, uch, seq, r)
	case kindInvAck:
		s.onInvAck(p, seq)
	case kindPrepare:
		s.onPrepare(p, src, r)
	case kindVote:
		s.onVote(p, src, r)
	case kindCommit:
		s.onCommit(p, src, r)
	case kindAbort:
		s.onAbort(p, r)
	case kindTxnAck:
		s.onTxnAck(p, src, r)
	case kindInquire:
		s.onInquire(p, src, r)
	default:
		s.stats.dropped++
	}
}

// ------------------------------------------------------ session + auth

func (s *Server) onHello(p *sim.Proc, src bcl.Addr, r *reader) {
	user := r.bytes()
	nonce := r.u64()
	if !r.ok {
		s.stats.dropped++
		return
	}
	hk := helloKey{client: src, nonce: nonce}
	id, ok := s.helloIndex[hk]
	if !ok {
		s.nextSess++
		id = s.nextSess
		s.helloIndex[hk] = id
		s.sessions[id] = &session{
			id: id, client: src, nonce: nonce, user: string(user),
			state: sessChallenged, challenge: s.rand(),
			lastReply: make(map[uint16]replyCache),
			inProg:    make(map[uint16]uint32),
		}
	}
	se := s.sessions[id]
	// (Re)send the challenge — a duplicated HELLO gets the same one.
	s.sendTo(p, src, kindChall, id, 0, 0, putU64(s.ep.frame(), se.challenge))
}

func (s *Server) onAuth(p *sim.Proc, src bcl.Addr, sessID uint16, r *reader) {
	resp := r.u64()
	se, ok := s.sessions[sessID]
	if !ok || !r.ok {
		s.stats.dropped++
		return
	}
	if se.state == sessUp {
		// Duplicate AUTH after establishment: replay the OK.
		s.sendTo(p, src, kindAuthOK, sessID, 0, 0, nil)
		return
	}
	if authResponse(se.challenge, userSecret(se.user, s.cfg.AuthSeed)) != resp {
		s.stats.authFail++
		// Forget the session whole: a later HELLO with the same nonce
		// opens a fresh one, as a first HELLO would.
		delete(s.sessions, sessID)
		delete(s.helloIndex, helloKey{client: se.client, nonce: se.nonce})
		s.sendTo(p, src, kindAuthFail, sessID, 0, 0, nil)
		return
	}
	se.state = sessUp
	s.sendTo(p, src, kindAuthOK, sessID, 0, 0, nil)
}

// established resolves a request's session, dropping unauthenticated
// traffic.
func (s *Server) established(sessID uint16) *session {
	se, ok := s.sessions[sessID]
	if !ok || se.state != sessUp {
		s.stats.dropped++
		return nil
	}
	return se
}

// dedup returns true when a request was already executed (the recorded
// reply is replayed) or is still executing (the in-flight state
// machine will answer it).
func (s *Server) dedup(p *sim.Proc, se *session, uch uint16, seq uint32) bool {
	if rc, ok := se.lastReply[uch]; ok && rc.seq == seq {
		s.stats.dedupReplays++
		s.sendTo(p, se.client, kindReply, se.id, uch, seq, replyFrame(s.ep.frame(), rc.flow, rc.status, rc.ver, rc.val))
		return true
	}
	if cur, busy := se.inProg[uch]; busy && cur == seq {
		return true
	}
	return false
}

// reply records the outcome for the (session, user channel) and sends
// it; retransmitted requests replay it from the record.
func (s *Server) reply(p *sim.Proc, se *session, uch uint16, seq uint32, flow uint64, status byte, ver uint64, val []byte) {
	rc := se.lastReply[uch]
	rc.seq, rc.flow, rc.status, rc.ver = seq, flow, status, ver
	rc.val = append(rc.val[:0], val...)
	se.lastReply[uch] = rc
	delete(se.inProg, uch)
	s.stats.replies++
	s.sendTo(p, se.client, kindReply, se.id, uch, seq, replyFrame(s.ep.frame(), flow, status, ver, val))
}

// replyFrame encodes a request's outcome into b.
func replyFrame(b []byte, flow uint64, status byte, ver uint64, val []byte) []byte {
	b = putU64(b, flow)
	b = append(b, status)
	b = putU64(b, ver)
	return putBytes(b, val)
}

// ------------------------------------------------------------ KV plane

func (s *Server) onGet(p *sim.Proc, sessID, uch uint16, seq uint32, r *reader) {
	se := s.established(sessID)
	if se == nil {
		return
	}
	if s.dedup(p, se, uch, seq) {
		return
	}
	flow := r.u64()
	key := r.bytes()
	if !r.ok {
		s.stats.dropped++
		return
	}
	s.stats.reqGet++
	status, ver, val := byte(StatusNotFound), uint64(0), []byte(nil)
	if e, ok := s.store[string(key)]; ok {
		s.trace(p, flow, "svc: get serve")
		// The reply is a cache fill: remember who holds a copy.
		s.addInterest(s.names.intern(key), se.id)
		status, ver, val = StatusOK, e.ver, e.val
	}
	s.reply(p, se, uch, seq, flow, status, ver, val)
}

func (s *Server) onPut(p *sim.Proc, sessID, uch uint16, seq uint32, r *reader) {
	se := s.established(sessID)
	if se == nil {
		return
	}
	if s.dedup(p, se, uch, seq) {
		return
	}
	flow := r.u64()
	kb := r.bytes()
	val := r.bytes()
	if !r.ok {
		s.stats.dropped++
		return
	}
	s.stats.reqPut++
	if _, locked := s.locks[string(kb)]; locked {
		// A prepared transaction owns the key; the client retries.
		s.stats.putConflicts++
		s.reply(p, se, uch, seq, flow, StatusConflict, 0, nil)
		return
	}
	key := s.names.intern(kb)
	s.trace(p, flow, "svc: put apply")
	ver := s.apply(key, val)
	// The reply goes once every invalidation is acked.
	se.inProg[uch] = seq
	g := take(&s.groupFree)
	*g = invGroup{flow: flow, se: se, uch: uch, seq: seq, ver: ver}
	s.invalidate(p, key, ver, se.id, g)
	// The writer's own cache now holds the new value.
	s.addInterest(key, se.id)
	if g.waiting == 0 {
		s.fire(p, g)
	}
}

// fire sends a write's withheld answer and retires its group.
func (s *Server) fire(p *sim.Proc, g *invGroup) {
	if g.se != nil {
		s.trace(p, g.flow, "svc: put reply")
		s.reply(p, g.se, g.uch, g.seq, g.flow, StatusOK, g.ver, nil)
	} else {
		s.trace(p, g.flow, "svc: txn ack")
		s.ackTxn(p, g.coord, g.txid)
	}
	s.groupFree.Put(g)
}

// settle counts one of g's invalidations as done; the last fires g.
func (s *Server) settle(p *sim.Proc, g *invGroup) {
	g.waiting--
	if g.waiting == 0 {
		s.fire(p, g)
	}
}

// apply writes a copy of val under key (kept, so interned) and bumps
// its version.
func (s *Server) apply(key string, val []byte) uint64 {
	e := s.store[key]
	e.val = append(e.val[:0], val...)
	e.ver++
	s.store[key] = e
	return e.ver
}

func (s *Server) addInterest(key string, sessID uint16) {
	for _, id := range s.interest[key] {
		if id == sessID {
			return
		}
	}
	s.interest[key] = append(s.interest[key], sessID)
}

// invalidate fans one write's invalidations out to every interested
// session except the writer, clearing the interest set (survivors
// re-register on their next fill). Each invalidation retransmits until
// acked and holds the group's completion.
func (s *Server) invalidate(p *sim.Proc, key string, ver uint64, writer uint16, g *invGroup) {
	holders := s.interest[key]
	if len(holders) == 0 {
		return
	}
	// Emptied, not deleted: the set keeps its capacity. Nothing adds to
	// it before the loop below is done.
	s.interest[key] = holders[:0]
	for _, id := range holders {
		if id == writer {
			continue
		}
		se, ok := s.sessions[id]
		if !ok {
			continue
		}
		s.nextInv++
		iv := take(&s.invFree)
		*iv = invState{
			id: s.nextInv, key: key, ver: ver, sess: id, client: se.client,
			group: g, nextAt: p.Now() + s.cfg.RTO, rto: s.cfg.RTO,
		}
		g.waiting++
		s.invs = append(s.invs, iv)
		s.invByID[iv.id] = iv
		s.stats.invsSent++
		s.sendInv(p, iv)
	}
}

func (s *Server) sendInv(p *sim.Proc, iv *invState) {
	pay := putStr(s.ep.frame(), iv.key)
	pay = putU64(pay, iv.ver)
	s.sendTo(p, iv.client, kindInv, iv.sess, 0, iv.id, pay)
}

func (s *Server) onInvAck(p *sim.Proc, invID uint32) {
	iv, ok := s.invByID[invID]
	if !ok || iv.done {
		return
	}
	iv.done = true
	delete(s.invByID, invID)
	s.stats.invAcks++
	s.settle(p, iv.group)
}

// ---------------------------------------------------- 2PC: coordinator

func (s *Server) onTxn(p *sim.Proc, sessID, uch uint16, seq uint32, r *reader) {
	se := s.established(sessID)
	if se == nil {
		return
	}
	if s.dedup(p, se, uch, seq) {
		return
	}
	flow := r.u64()
	nops, ops := writeSet(r)
	if !r.ok || nops == 0 {
		s.stats.dropped++
		return
	}
	s.stats.reqTxn++
	s.trace(p, flow, "svc: txn begin (coordinator)")
	s.nextTxn++
	t := take(&s.coordFree)
	*t = cTxn{
		txid: uint64(s.cfg.Index)<<48 | s.nextTxn,
		sess: sessID, uch: uch, seq: seq, flow: flow,
		parts:  t.parts[:0],
		nextAt: p.Now() + s.cfg.RTO, rto: s.cfg.RTO,
	}
	// Partition the write set by shard, parts in the order their shards
	// first appear so the fan-out is deterministic; each op goes
	// straight into its part's PREPARE body.
	for i := 0; i < nops; i++ {
		key := ops.bytes()
		val := ops.bytes()
		sh := s.cfg.Ring.Shard(s.names.intern(key))
		var cp *cPart
		for _, q := range t.parts {
			if q.shard == sh {
				cp = q
				break
			}
		}
		if cp == nil {
			cp = take(&s.partFree)
			pay := putU64(cp.payload[:0], t.txid)
			pay = putU64(pay, t.flow)
			*cp = cPart{shard: sh, addr: s.cfg.Shards[sh], payload: append(pay, 0)}
			t.parts = append(t.parts, cp)
		}
		cp.payload = putBytes(cp.payload, key)
		cp.payload = putBytes(cp.payload, val)
		cp.payload[prepareCount]++
	}
	se.inProg[uch] = seq
	s.coord[t.txid] = t
	s.coordList = append(s.coordList, t)
	for _, cp := range t.parts {
		s.stats.prepares++
		s.sendTo(p, cp.addr, kindPrepare, 0, 0, 0, cp.payload)
	}
}

func (s *Server) onVote(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	yes := r.byte() == 1
	t, ok := s.coord[txid]
	if !ok || !r.ok || t.decided {
		return
	}
	for _, cp := range t.parts {
		if cp.addr == src {
			cp.voted, cp.vote = true, yes
		}
	}
	all := true
	for _, cp := range t.parts {
		if !cp.voted {
			all = false
		} else if !cp.vote {
			s.decideAbort(p, t)
			return
		}
	}
	if all {
		s.decideCommit(p, t)
	}
}

// decideAbort is the presumed-abort fast path: tell everyone once,
// answer the client, and forget. Participants that miss the ABORT will
// inquire and read the abort from our silence.
func (s *Server) decideAbort(p *sim.Proc, t *cTxn) {
	t.decided, t.commit, t.done = true, false, true
	s.trace(p, t.flow, "svc: txn abort (coordinator)")
	s.stats.txnAborted++
	for _, cp := range t.parts {
		pay := putU64(s.ep.frame(), t.txid)
		pay = putU64(pay, t.flow)
		s.sendTo(p, cp.addr, kindAbort, 0, 0, 0, pay)
	}
	delete(s.coord, t.txid)
	if se, ok := s.sessions[t.sess]; ok {
		s.reply(p, se, t.uch, t.seq, t.flow, StatusAborted, 0, nil)
	}
}

// decideCommit records the commit (it must be remembered until every
// participant acks) and starts the phase-two fan-out.
func (s *Server) decideCommit(p *sim.Proc, t *cTxn) {
	t.decided, t.commit = true, true
	t.nextAt = p.Now() + t.rto
	s.trace(p, t.flow, "svc: txn commit decision")
	for _, cp := range t.parts {
		s.sendCommit(p, t, cp)
	}
}

func (s *Server) sendCommit(p *sim.Proc, t *cTxn, cp *cPart) {
	pay := putU64(s.ep.frame(), t.txid)
	pay = putU64(pay, t.flow)
	s.sendTo(p, cp.addr, kindCommit, 0, 0, 0, pay)
}

func (s *Server) onTxnAck(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	t, ok := s.coord[txid]
	if !ok || !r.ok || !t.commit {
		return
	}
	for _, cp := range t.parts {
		if cp.addr == src {
			cp.acked = true
		}
	}
	for _, cp := range t.parts {
		if !cp.acked {
			return
		}
	}
	// Fully applied everywhere: answer the client and forget the txn.
	t.done = true
	delete(s.coord, t.txid)
	s.stats.txnCommitted++
	s.trace(p, t.flow, "svc: txn committed (all acks)")
	if se, ok := s.sessions[t.sess]; ok {
		s.reply(p, se, t.uch, t.seq, t.flow, StatusOK, 0, nil)
	}
}

func (s *Server) onInquire(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	if !r.ok {
		return
	}
	if t, ok := s.coord[txid]; ok {
		if t.commit {
			for _, cp := range t.parts {
				if cp.addr == src {
					s.sendCommit(p, t, cp)
					return
				}
			}
		}
		// Known but undecided: stay silent. Presumed abort licenses
		// aborting only FORGOTTEN transactions — answering ABORT here
		// would unstage a YES voter that the commit decision still
		// counts on, and its later COMMIT would be acked blind without
		// ever applying (a half-applied pair). The participant keeps
		// its stage and inquires again after backoff.
		return
	}
	// Unknown transaction: by presumption, it aborted.
	pay := putU64(s.ep.frame(), txid)
	pay = putU64(pay, 0)
	s.sendTo(p, src, kindAbort, 0, 0, 0, pay)
}

// ---------------------------------------------------- 2PC: participant

func (s *Server) onPrepare(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	flow := r.u64()
	nops, ops := writeSet(r)
	if !r.ok {
		s.stats.dropped++
		return
	}
	if _, done := s.applied[txid]; done {
		// Already committed here: the duplicate PREPARE crossed our ack.
		s.sendVote(p, src, txid, true)
		return
	}
	if _, ok := s.staged[txid]; ok {
		// Duplicate PREPARE: re-send the recorded (YES) vote.
		s.sendVote(p, src, txid, true)
		return
	}
	// Fresh PREPARE: lockable iff no other transaction holds any key.
	scan := ops
	for i := 0; i < nops; i++ {
		key := scan.bytes()
		scan.bytes()
		if holder, locked := s.locks[string(key)]; locked && holder != txid {
			s.stats.votesNo++
			s.trace(p, flow, "svc: vote NO (lock conflict)")
			s.sendVote(p, src, txid, false)
			return
		}
	}
	st := take(&s.stageFree)
	*st = pTxn{
		txid: txid, coord: src, flow: flow, ops: st.ops[:0],
		inquireAt: p.Now() + 4*s.cfg.RTO, rto: s.cfg.RTO,
	}
	for i := 0; i < nops; i++ {
		key := s.names.intern(ops.bytes())
		st.ops = keepOp(st.ops, key, ops.bytes())
		s.locks[key] = txid
	}
	s.staged[txid] = st
	s.stagedList = append(s.stagedList, st)
	s.trace(p, flow, "svc: prepared (participant)")
	s.sendVote(p, src, txid, true)
}

func (s *Server) sendVote(p *sim.Proc, coord bcl.Addr, txid uint64, yes bool) {
	pay := putU64(s.ep.frame(), txid)
	b := byte(0)
	if yes {
		b = 1
	}
	pay = append(pay, b)
	s.sendTo(p, coord, kindVote, 0, 0, 0, pay)
}

func (s *Server) onCommit(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	flow := r.u64()
	if !r.ok {
		return
	}
	st, ok := s.staged[txid]
	if !ok {
		// Already applied (duplicate) or long evicted: ack again. The
		// coordinator never sends COMMIT to a shard that did not vote
		// YES, so a blind ack can only confirm old news.
		s.ackTxn(p, src, txid)
		return
	}
	st.done = true
	delete(s.staged, txid)
	s.rememberApplied(txid)
	s.trace(p, flow, "svc: commit apply (participant)")
	// Apply every op, release the locks, fan out invalidations; the
	// ack is withheld until the caches are clean, so a committed
	// transaction is never visible as stale data anywhere.
	g := take(&s.groupFree)
	*g = invGroup{flow: flow, coord: src, txid: txid}
	for _, op := range st.ops {
		delete(s.locks, op.key)
		ver := s.apply(op.key, op.val)
		s.invalidate(p, op.key, ver, 0, g)
	}
	if g.waiting == 0 {
		s.fire(p, g)
	}
}

func (s *Server) onAbort(p *sim.Proc, r *reader) {
	txid := r.u64()
	st, ok := s.staged[txid]
	if !ok {
		return
	}
	st.done = true
	delete(s.staged, txid)
	s.trace(p, st.flow, "svc: abort (participant)")
	for _, op := range st.ops {
		if s.locks[op.key] == txid {
			delete(s.locks, op.key)
		}
	}
}

func (s *Server) ackTxn(p *sim.Proc, coord bcl.Addr, txid uint64) {
	s.sendTo(p, coord, kindTxnAck, 0, 0, 0, putU64(s.ep.frame(), txid))
}

func (s *Server) rememberApplied(txid uint64) {
	s.applied[txid] = struct{}{}
	if old, ok := s.appliedOrder.PushLast(txid, appliedCap); ok {
		delete(s.applied, old)
	}
}

// --------------------------------------------------------------- timers

// runTimers drives every retransmission and the participant inquiry
// deadline. Tables are scanned in insertion order; finished entries
// are compacted away, and their records go back on the free lists.
func (s *Server) runTimers(p *sim.Proc) {
	now := p.Now()

	live := s.invs[:0]
	for _, iv := range s.invs {
		if iv.done {
			s.invFree.Put(iv)
			continue
		}
		if now >= iv.nextAt {
			// The session may have died; settle the group rather than
			// retry into the void.
			if _, ok := s.sessions[iv.sess]; !ok {
				iv.done = true
				delete(s.invByID, iv.id)
				s.settle(p, iv.group)
				s.invFree.Put(iv)
				continue
			}
			s.stats.invRetrans++
			s.sendInv(p, iv)
			iv.rto = backoff(iv.rto, s.cfg.RTO)
			iv.nextAt = now + iv.rto
		}
		live = append(live, iv)
	}
	s.invs = live

	liveC := s.coordList[:0]
	for _, t := range s.coordList {
		if t.done {
			for _, cp := range t.parts {
				s.partFree.Put(cp)
			}
			s.coordFree.Put(t)
			continue
		}
		if now >= t.nextAt {
			s.stats.txnRetrans++
			if !t.decided {
				for _, cp := range t.parts {
					if !cp.voted {
						s.sendTo(p, cp.addr, kindPrepare, 0, 0, 0, cp.payload)
					}
				}
			} else if t.commit {
				for _, cp := range t.parts {
					if !cp.acked {
						s.sendCommit(p, t, cp)
					}
				}
			}
			t.rto = backoff(t.rto, s.cfg.RTO)
			t.nextAt = now + t.rto
		}
		liveC = append(liveC, t)
	}
	s.coordList = liveC

	liveS := s.stagedList[:0]
	for _, st := range s.stagedList {
		if st.done {
			s.stageFree.Put(st)
			continue
		}
		if now >= st.inquireAt {
			s.sendTo(p, st.coord, kindInquire, 0, 0, 0, putU64(s.ep.frame(), st.txid))
			st.rto = backoff(st.rto, s.cfg.RTO)
			st.inquireAt = now + st.rto
		}
		liveS = append(liveS, st)
	}
	s.stagedList = liveS
}

// backoff doubles an RTO up to 16x the base.
func backoff(cur, base sim.Time) sim.Time {
	next := cur * 2
	if max := base * 16; next > max {
		next = max
	}
	return next
}

// sendTo transmits one service message, swallowing transport errors:
// failures surface as EvSendFailed events and are healed by the
// service-level retransmit timers.
func (s *Server) sendTo(p *sim.Proc, dst bcl.Addr, kind uint8, sess, uch uint16, seq uint32, payload []byte) {
	_ = s.ep.send(p, dst, kind, sess, uch, seq, payload)
}

// trace emits one flow span when the message is part of a traced
// request and a tracer is attached.
func (s *Server) trace(p *sim.Proc, flow uint64, stage string) {
	if flow == 0 || (s.tr == nil && s.rt == nil) {
		return
	}
	now := p.Now()
	s.tr.AddFlow(stage, s.row, flow, now, now)
	s.rt.Mark(flow, stage, s.row, now)
}
