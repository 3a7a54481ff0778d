package svc

import (
	"fmt"

	"bcl/internal/bcl"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/obs/reqtrace"
	"bcl/internal/sim"
	"bcl/internal/svc/txn"
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
// send exactly once and forget. The 2PC halves and the reply caches are
// package txn's, which decides; the server carries its verdicts out.
type Server struct {
	cfg  ServerConfig
	ep   *endpoint
	node int
	row  string // "host<node>", the trace row of this process
	tr   *trace.Tracer
	rt   *reqtrace.Recorder

	store map[string]entry
	names names // every key a kept record names

	sessions   map[uint16]*session
	helloIndex map[helloKey]uint16
	nextSess   uint16

	interest map[string][]uint16 // key -> sessions holding a cached copy

	invs    []*invState
	invByID map[uint32]*invState
	nextInv uint32

	// Retired records, reused: a group goes back when it fires, an
	// invalidation when runTimers drops it from its table.
	invFree   sim.FreeList[*invState]
	groupFree sim.FreeList[*invGroup]

	co   txn.Coordinator[bcl.Addr]
	part txn.Participant[bcl.Addr]
	ops  [4]txn.Op // backs a write set being read: up to four ops make no garbage

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
	AuthSeed uint64 // shared credential seed (see userSecret)
	Seed     uint64 // challenge RNG seed
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

// tick is the longest a shard's or a driver's event loop sleeps with
// nothing due.
const tick = 100 * sim.Microsecond

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
	cache     txn.Cache
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

// readOps reads a write set, its op count then that many (key, value)
// pairs, appending them to ops; r.ok says whether the set is whole. The
// ops alias r's bytes.
func readOps(r *reader, ops []txn.Op) []txn.Op {
	for n := int(r.byte()); len(ops) < n && r.ok; {
		ops = append(ops, txn.Op{Key: r.bytes(), Val: r.bytes()})
	}
	return ops
}

// prepareCount is the offset of the op count in a PREPARE body, after
// the txid and the flow id.
const prepareCount = 16

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

// serverRTO is a shard's initial service-level retransmit timeout.
const serverRTO = 300 * sim.Microsecond

// NewServer attaches a shard server to an opened BCL port. The port's
// system pool should be generously sized (64+ buffers); the caller
// starts the loop with env.Go(..., srv.Run).
func NewServer(p *sim.Proc, port *bcl.Port, bufSize int, cfg ServerConfig) *Server {
	nm := make(names)
	s := &Server{
		cfg:        cfg,
		ep:         newEndpoint(p, port, 64, bufSize),
		node:       port.Addr().Node,
		row:        fmt.Sprintf("host%d", port.Addr().Node),
		tr:         port.Tracer(),
		rt:         cfg.ReqObs,
		store:      make(map[string]entry),
		names:      nm,
		sessions:   make(map[uint16]*session),
		helloIndex: make(map[helloKey]uint16),
		interest:   make(map[string][]uint16),
		invByID:    make(map[uint32]*invState),
		co:         txn.NewCoordinator[bcl.Addr](cfg.Index, serverRTO),
		part:       txn.NewParticipant[bcl.Addr](serverRTO, nm),
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
		wake := s.nextDue(now + tick)
		d := wake - now
		if d < sim.Microsecond {
			d = sim.Microsecond
		}
		ev, ok := s.ep.port.WaitRecvTimeout(p, d)
		if ok {
			s.handle(p, ev)
		} else {
			_ = s.ep.port.FlushSystemBuffers(p)
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
	return s.part.NextDue(s.co.NextDue(due))
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
			state: sessChallenged, challenge: s.rand(), cache: txn.NewCache(),
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

// request resolves a request's session when the request is to be
// executed. It drops unauthenticated traffic, and a request its session's
// cache answered (a replay of the recorded reply) or holds in progress.
func (s *Server) request(p *sim.Proc, sessID, uch uint16, seq uint32) *session {
	se, ok := s.sessions[sessID]
	if !ok || se.state != sessUp {
		s.stats.dropped++
		return nil
	}
	switch rc, v := se.cache.Lookup(uch, seq); v {
	case txn.Replay:
		s.stats.dedupReplays++
		s.sendTo(p, se.client, kindReply, se.id, uch, seq, replyFrame(s.ep.frame(), rc.Flow, rc.Status, rc.Ver, rc.Val))
		return nil
	case txn.Drop:
		return nil
	}
	return se
}

// reply records the outcome for the (session, user channel) and sends
// it; retransmitted requests replay it from the record.
func (s *Server) reply(p *sim.Proc, se *session, uch uint16, seq uint32, flow uint64, status byte, ver uint64, val []byte) {
	se.cache.Record(uch, seq, flow, status, ver, val)
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
	se := s.request(p, sessID, uch, seq)
	if se == nil {
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
		s.addInterest(s.names.Intern(key), se.id)
		status, ver, val = StatusOK, e.ver, e.val
	}
	s.reply(p, se, uch, seq, flow, status, ver, val)
}

func (s *Server) onPut(p *sim.Proc, sessID, uch uint16, seq uint32, r *reader) {
	se := s.request(p, sessID, uch, seq)
	if se == nil {
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
	if s.part.Locked(kb) {
		// A prepared transaction owns the key; the client retries.
		s.stats.putConflicts++
		s.reply(p, se, uch, seq, flow, StatusConflict, 0, nil)
		return
	}
	key := s.names.Intern(kb)
	s.trace(p, flow, "svc: put apply")
	ver := s.apply(key, val)
	// The reply goes once every invalidation is acked.
	se.cache.Begin(uch, seq)
	g := sim.Take(&s.groupFree)
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
		iv := sim.Take(&s.invFree)
		*iv = invState{
			id: s.nextInv, key: key, ver: ver, sess: id, client: se.client,
			group: g, nextAt: p.Now() + serverRTO, rto: serverRTO,
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
	se := s.request(p, sessID, uch, seq)
	if se == nil {
		return
	}
	flow := r.u64()
	ops := readOps(r, s.ops[:0])
	if !r.ok || len(ops) == 0 {
		s.stats.dropped++
		return
	}
	s.stats.reqTxn++
	s.trace(p, flow, "svc: txn begin (coordinator)")
	t := s.co.Begin(sessID, uch, seq, flow, p.Now())
	// Partition the write set by shard, parts in the order their shards
	// first appear so the fan-out is deterministic; each op goes
	// straight into its part's PREPARE body.
	for _, op := range ops {
		cp, fresh := s.co.Join(t, s.cfg.Shards[s.cfg.Ring.Shard(s.names.Intern(op.Key))])
		if fresh {
			cp.Body = append(putU64(putU64(cp.Body, t.ID), flow), 0)
		}
		cp.Body = putBytes(putBytes(cp.Body, op.Key), op.Val)
		cp.Body[prepareCount]++
	}
	se.cache.Begin(uch, seq)
	for _, cp := range t.Parts {
		s.stats.prepares++
		s.sendTo(p, cp.To, kindPrepare, 0, 0, 0, cp.Body)
	}
}

func (s *Server) onVote(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	yes := r.byte() == 1
	if !r.ok {
		return
	}
	switch t, v := s.co.Vote(txid, src, yes, p.Now()); v {
	case txn.Abort:
		s.trace(p, t.Flow, "svc: txn abort (coordinator)")
		s.stats.txnAborted++
		for _, cp := range t.Parts {
			s.sendTxn(p, cp.To, kindAbort, t.ID, t.Flow)
		}
		s.answer(p, t, StatusAborted)
	case txn.Commit:
		s.trace(p, t.Flow, "svc: txn commit decision")
		for _, cp := range t.Parts {
			s.sendTxn(p, cp.To, kindCommit, t.ID, t.Flow)
		}
	}
}

func (s *Server) onTxnAck(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	if !r.ok {
		return
	}
	if t, v := s.co.Ack(txid, src); v == txn.Committed {
		s.stats.txnCommitted++
		s.trace(p, t.Flow, "svc: txn committed (all acks)")
		s.answer(p, t, StatusOK)
	}
}

// answer replies to a decided transaction's client, if its session
// still exists.
func (s *Server) answer(p *sim.Proc, t *txn.Txn[bcl.Addr], status byte) {
	if se, ok := s.sessions[t.Sess]; ok {
		s.reply(p, se, t.Ch, t.Seq, t.Flow, status, 0, nil)
	}
}

func (s *Server) onInquire(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	if !r.ok {
		return
	}
	switch t, v := s.co.Inquire(txid, src); v {
	case txn.Commit:
		s.sendTxn(p, src, kindCommit, txid, t.Flow)
	case txn.Abort:
		s.sendTxn(p, src, kindAbort, txid, 0)
	}
}

// sendTxn sends a decision, COMMIT or ABORT, as (txid, flow).
func (s *Server) sendTxn(p *sim.Proc, dst bcl.Addr, kind uint8, txid, flow uint64) {
	s.sendTo(p, dst, kind, 0, 0, 0, putU64(putU64(s.ep.frame(), txid), flow))
}

// ---------------------------------------------------- 2PC: participant

func (s *Server) onPrepare(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	flow := r.u64()
	ops := readOps(r, s.ops[:0])
	if !r.ok {
		s.stats.dropped++
		return
	}
	yes := byte(1)
	switch s.part.Prepare(txid, src, flow, ops, p.Now()) {
	case txn.VoteNo:
		s.stats.votesNo++
		s.trace(p, flow, "svc: vote NO (lock conflict)")
		yes = 0
	case txn.Staged:
		s.trace(p, flow, "svc: prepared (participant)")
	}
	s.sendTo(p, src, kindVote, 0, 0, 0, append(putU64(s.ep.frame(), txid), yes))
}

func (s *Server) onCommit(p *sim.Proc, src bcl.Addr, r *reader) {
	txid := r.u64()
	flow := r.u64()
	if !r.ok {
		return
	}
	st, v := s.part.Commit(txid)
	if v == txn.Ack {
		s.ackTxn(p, src, txid)
		return
	}
	s.trace(p, flow, "svc: commit apply (participant)")
	// Apply every op and fan out invalidations; the ack is withheld
	// until the caches are clean, so a committed transaction is never
	// visible as stale data anywhere.
	g := sim.Take(&s.groupFree)
	*g = invGroup{flow: flow, coord: src, txid: txid}
	for _, op := range st.Ops {
		ver := s.apply(op.Key, op.Val)
		s.invalidate(p, op.Key, ver, 0, g)
	}
	if g.waiting == 0 {
		s.fire(p, g)
	}
}

func (s *Server) onAbort(p *sim.Proc, r *reader) {
	if st, v := s.part.Abort(r.u64()); v == txn.Release {
		s.trace(p, st.Flow, "svc: abort (participant)")
	}
}

func (s *Server) ackTxn(p *sim.Proc, coord bcl.Addr, txid uint64) {
	s.sendTo(p, coord, kindTxnAck, 0, 0, 0, putU64(s.ep.frame(), txid))
}

// --------------------------------------------------------------- timers

// runTimers drives every retransmission and the participant inquiry
// deadline. Tables are scanned in insertion order; finished entries
// are compacted away, and their records go back on the free lists.
// The 2PC halves say which deadlines passed and what each resends.
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
			iv.rto = txn.Backoff(iv.rto, serverRTO)
			iv.nextAt = now + iv.rto
		}
		live = append(live, iv)
	}
	s.invs = live

	s.co.Due(now, func(t *txn.Txn[bcl.Addr]) {
		s.stats.txnRetrans++
		for _, cp := range t.Parts {
			switch t.Resend(cp) {
			case txn.Prepare:
				s.sendTo(p, cp.To, kindPrepare, 0, 0, 0, cp.Body)
			case txn.Commit:
				s.sendTxn(p, cp.To, kindCommit, t.ID, t.Flow)
			}
		}
	})
	s.part.Due(now, func(st *txn.Stage[bcl.Addr]) {
		s.sendTo(p, st.Coord, kindInquire, 0, 0, 0, putU64(s.ep.frame(), st.Txid))
	})
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
