package svc

import (
	"fmt"
	"slices"

	"bcl/internal/bcl"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/obs/reqtrace"
	"bcl/internal/sim"
	"bcl/internal/svc/txn"
	"bcl/internal/trace"
)

// Arrivals yields inter-arrival gaps for the open-loop generator (see
// internal/workloads/openloop for Poisson and bursty implementations).
type Arrivals interface{ Next() sim.Time }

// Sizes yields request value sizes in bytes.
type Sizes interface{ Next() int }

// Driver multiplexes a swarm of simulated users over one BCL port: one
// authenticated session per shard, a per-user virtual channel with a
// single outstanding request (the tag's uch field), a driver-wide
// read-through cache kept coherent by server invalidations, and an
// open-loop arrival process — requests are generated on the arrival
// clock regardless of completions, so queueing delay is part of every
// latency sample, the way an outside observer would measure it.
type Driver struct {
	cfg  DriverConfig
	ep   *endpoint
	node int
	row  string // "host<node>", the trace row of this process
	tr   *trace.Tracer
	rt   *reqtrace.Recorder
	// lat is the node's req_latency_ns histogram, looked up by the first
	// completion: a driver that completed nothing adds no empty series.
	lat *obs.Histogram

	conns []*conn
	users []user

	pending  map[uint64]*request // packTag(0,sess,uch,seq) -> req
	pendList []*request
	reqFree  sim.FreeList[*request]

	// keys is the key table: every key the driver can name, by index —
	// the Keys get/put keys first (or "k" alone when Keys is 0), then the
	// transaction pairs'. An op carries indexes; kidOf resolves the key
	// an invalidation names.
	keys  []keyState
	kidOf map[string]uint32
	pairs [][2]uint32 // PairA[i], PairB[i]
	// seen is the highest version each user has seen per key, under
	// userKey(user, key index).
	seen map[uint64]uint64

	nextArr sim.Time
	genOn   bool
	rng     uint64
	flowSeq uint64

	samples []sim.Time
	stats   DriverStats
}

// DriverConfig shapes one driver's swarm and workload mix.
type DriverConfig struct {
	Shards   []bcl.Addr
	Ring     *Ring
	Users    int    // simulated users (uch values); <= MaxUsersPerDriver
	UserName string // credential base; user i authenticates as UserName
	AuthSeed uint64 // must match the servers'
	Seed     uint64 // all driver randomness derives from this
	Arrivals Arrivals
	Sizes    Sizes
	Keys     int      // keyspace size for get/put traffic
	GetFrac  float64  // fraction of arrivals that are reads
	TxnFrac  float64  // fraction that are cross-shard transactions
	PairA    []string // transaction pair keys (PairA[i] with PairB[i])
	PairB    []string
	Start    sim.Time // first arrival
	Duration sim.Time // arrival window length
	Trace    bool     // tag requests with causal flow ids
	// HotFrac redirects this fraction of get/put arrivals onto the
	// first key — a deterministic hot-key skew for heavy-hitter and
	// hot-shard scenarios. Zero leaves the uniform mix (and the
	// driver's random stream) exactly as before.
	HotFrac float64
	// ReqObs, when set alongside Trace, feeds every request's
	// lifecycle into the request-level observability recorder.
	ReqObs *reqtrace.Recorder
}

// DriverStats is a snapshot of the driver's counters.
type DriverStats struct {
	Issued, Done      uint64
	Retransmits       uint64
	CacheHits, Misses uint64
	Violations        uint64 // monotonic-read / read-your-writes breaches
	TxnAborts         uint64
	InvsApplied       uint64
	AuthFails         uint64
}

// Connection states.
const (
	connHello = 0
	connAuth  = 1
	connUp    = 2
)

type conn struct {
	addr      bcl.Addr
	state     uint8
	sess      uint16
	nonce     uint64
	challenge uint64
	nextAt    sim.Time
	rto       sim.Time
}

type user struct {
	idx        uint16
	head, tail *request // queued requests, oldest first
	busy       bool
	seq        uint32
}

// userKey packs (user, key index) into one seen key.
func userKey(user uint16, key uint32) uint64 { return uint64(user)<<32 | uint64(key) }

type op struct {
	kind    uint8  // kindGet / kindPut / kindTxn
	key     uint32 // key-table index
	keyB    uint32 // second key for transactions
	val     []byte
	arrival sim.Time
	flow    uint64
}

// request is one op from its arrival to its answer: queued behind its
// user's earlier ones (next), then on the wire under a retransmit timer
// with its encoded body kept for resends. Records come off reqFree at
// arrival and go back once the op completes; op.val and payload keep
// their capacity.
type request struct {
	op      op
	u       *user
	next    *request
	shard   int
	sess    uint16
	seq     uint32
	payload []byte
	nextAt  sim.Time
	rto     sim.Time
	done    bool
}

// keyState is one key of the table: its name and owning shard, fixed
// at construction, its cache entry and the highest version an
// invalidation has named for it. The cache keeps a key's version, not
// its value: a hit is judged by the version it returns.
type keyState struct {
	name   string
	shard  int
	ver    uint64 // the cached version, while cached
	inv    uint64
	cached bool
}

// driverRTO is a driver's initial service-level retransmit timeout.
const driverRTO = 400 * sim.Microsecond

// NewDriver attaches a driver to an opened BCL port; start it with
// env.Go(..., d.Run). Arrivals begin at cfg.Start and stop after
// cfg.Duration; the driver then drains its outstanding requests and
// keeps servicing invalidations forever.
func NewDriver(p *sim.Proc, port *bcl.Port, bufSize int, cfg DriverConfig) *Driver {
	if cfg.Users < 1 {
		cfg.Users = 1
	}
	if cfg.Users > MaxUsersPerDriver {
		cfg.Users = MaxUsersPerDriver
	}
	d := &Driver{
		cfg:     cfg,
		ep:      newEndpoint(p, port, 64, bufSize),
		node:    port.Addr().Node,
		row:     fmt.Sprintf("host%d", port.Addr().Node),
		pending: make(map[uint64]*request),
		kidOf:   make(map[string]uint32),
		seen:    make(map[uint64]uint64),
		nextArr: cfg.Start,
		genOn:   cfg.Arrivals != nil,
		rng:     sim.Splitmix64(cfg.Seed ^ 0xd1e5c0de),
	}
	if cfg.Trace {
		d.tr = port.Tracer()
		d.rt = cfg.ReqObs
	}
	for i := range cfg.Keys {
		d.index(fmt.Sprintf("k%05d", i))
	}
	if cfg.Keys == 0 {
		d.index("k")
	}
	for i, a := range cfg.PairA {
		d.pairs = append(d.pairs, [2]uint32{d.index(a), d.index(cfg.PairB[i])})
	}
	d.users = make([]user, cfg.Users)
	for i := range d.users {
		d.users[i].idx = uint16(i)
	}
	for _, addr := range cfg.Shards {
		d.conns = append(d.conns, &conn{
			addr: addr, state: connHello,
			nonce: d.rand(), rto: driverRTO,
		})
	}
	node := d.node
	port.Node().Obs.RegisterCollector(func(set obs.Set) {
		set(node, "svc", "cli_issued", d.stats.Issued)
		set(node, "svc", "cli_done", d.stats.Done)
		set(node, "svc", "cli_retrans", d.stats.Retransmits)
		set(node, "svc", "cache_hits", d.stats.CacheHits)
		set(node, "svc", "cache_misses", d.stats.Misses)
		set(node, "svc", "lin_violations", d.stats.Violations)
		set(node, "svc", "cli_txn_aborts", d.stats.TxnAborts)
		set(node, "svc", "invs_applied", d.stats.InvsApplied)
	})
	return d
}

// index returns key's place in the key table, adding it if new.
func (d *Driver) index(key string) uint32 {
	if i, ok := d.kidOf[key]; ok {
		return i
	}
	i := uint32(len(d.keys))
	d.keys = append(d.keys, keyState{name: key, shard: d.cfg.Ring.Shard(key)})
	d.kidOf[key] = i
	return i
}

func (d *Driver) rand() uint64 {
	d.rng = sim.Splitmix64(d.rng)
	return d.rng
}

// Samples returns every completed request's latency (arrival to final
// reply, queueing included), in completion order.
func (d *Driver) Samples() []sim.Time { return d.samples }

// Stats returns a snapshot of the driver's counters.
func (d *Driver) Stats() DriverStats { return d.stats }

// Generating reports whether the arrival process is still producing
// new requests (false once the configured window has been consumed).
func (d *Driver) Generating() bool { return d.genOn }

// Drained reports whether every issued request has completed and no
// user still queues work.
func (d *Driver) Drained() bool {
	if len(d.pending) != 0 {
		return false
	}
	for i := range d.users {
		if u := &d.users[i]; u.busy || u.head != nil {
			return false
		}
	}
	return true
}

// CacheSnapshot returns the cached version of every key the driver
// currently holds (bench coherence verification).
func (d *Driver) CacheSnapshot() map[string]uint64 {
	out := make(map[string]uint64, len(d.keys))
	for i := range d.keys {
		if k := &d.keys[i]; k.cached {
			out[k.name] = k.ver
		}
	}
	return out
}

// Run is the driver's event loop; it never returns.
func (d *Driver) Run(p *sim.Proc) {
	d.startConns(p)
	for {
		now := p.Now()
		d.generate(p, now)
		wake := d.nextDue(now + tick)
		dur := wake - now
		if dur < sim.Microsecond {
			dur = sim.Microsecond
		}
		ev, ok := d.ep.port.WaitRecvTimeout(p, dur)
		if ok {
			d.handle(p, ev)
		} else {
			_ = d.ep.port.FlushSystemBuffers(p)
		}
		d.ep.drainSends(p)
		d.runTimers(p)
	}
}

func (d *Driver) startConns(p *sim.Proc) {
	for _, c := range d.conns {
		d.sendHello(p, c)
		c.nextAt = p.Now() + c.rto
	}
}

func (d *Driver) sendHello(p *sim.Proc, c *conn) {
	pay := putStr(d.ep.frame(), d.cfg.UserName)
	pay = putU64(pay, c.nonce)
	_ = d.ep.send(p, c.addr, kindHello, 0, 0, 0, pay)
}

func (d *Driver) sendAuth(p *sim.Proc, c *conn) {
	resp := authResponse(c.challenge, userSecret(d.cfg.UserName, d.cfg.AuthSeed))
	_ = d.ep.send(p, c.addr, kindAuth, c.sess, 0, 0, putU64(d.ep.frame(), resp))
}

// generate drains the arrival clock: every arrival due by now becomes
// one op on some user's queue, issued immediately if the user is idle.
func (d *Driver) generate(p *sim.Proc, now sim.Time) {
	if !d.genOn {
		return
	}
	end := d.cfg.Start + d.cfg.Duration
	for d.nextArr <= now {
		if d.nextArr > end {
			d.genOn = false
			return
		}
		r := sim.Take(&d.reqFree)
		*r = request{op: op{val: r.op.val[:0]}, payload: r.payload[:0]}
		o := &r.op
		d.makeOp(o, d.nextArr)
		u := &d.users[int(d.rand()%uint64(len(d.users)))]
		u.push(r)
		if d.rt != nil && o.flow != 0 {
			k := &d.keys[o.key]
			d.rt.Begin(o.flow, kindName(o.kind), k.name, u.idx, d.node, k.shard, o.arrival)
		}
		d.stats.Issued++
		if !u.busy {
			d.issueNext(p, u)
		}
		d.nextArr += d.cfg.Arrivals.Next()
	}
}

// makeOp rolls the op mix into o: get / put / txn with deterministic
// keys and deterministically patterned values. The get/put keys are the
// table's first cfg.Keys; without any, every such op reads key 0, "k".
func (d *Driver) makeOp(o *op, arrival sim.Time) {
	roll := float64(d.rand()%1_000_000) / 1_000_000
	o.arrival = arrival
	if d.tr != nil {
		d.flowSeq++
		// Bit 63 keeps service flow ids disjoint from the per-message
		// trace ids trace.ID mints ((node+1)<<40 | msg).
		o.flow = 1<<63 | uint64(d.node)<<40 | d.flowSeq
	}
	switch {
	case roll < d.cfg.GetFrac && d.cfg.Keys > 0:
		o.kind = kindGet
		o.key = uint32(d.rand() % uint64(d.cfg.Keys))
	case roll < d.cfg.GetFrac+d.cfg.TxnFrac && len(d.pairs) > 0:
		o.kind = kindTxn
		pair := d.pairs[int(d.rand()%uint64(len(d.pairs)))]
		o.key, o.keyB = pair[0], pair[1]
		o.val = d.makeVal(o)
	default:
		o.kind = kindPut
		if d.cfg.Keys == 0 {
			o.kind = kindGet
			o.key = 0
			break
		}
		o.key = uint32(d.rand() % uint64(d.cfg.Keys))
		o.val = d.makeVal(o)
	}
	if d.cfg.HotFrac > 0 && o.kind != kindTxn && d.cfg.Keys > 0 {
		if float64(d.rand()%1_000_000)/1_000_000 < d.cfg.HotFrac {
			o.key = 0
		}
	}
}

// kindName renders an op kind for the request-trace records.
func kindName(kind uint8) string {
	switch kind {
	case kindGet:
		return "get"
	case kindPut:
		return "put"
	case kindTxn:
		return "txn"
	}
	return fmt.Sprintf("k%d", kind)
}

// makeVal draws the value for o, whose keys are already chosen, into
// o's value buffer, clamped so that every message carrying it fits one
// system buffer: a request longer than the shards' pool buffers can
// never be accepted.
func (d *Driver) makeVal(o *op) []byte {
	n := 8
	if d.cfg.Sizes != nil {
		n = d.cfg.Sizes.Next()
	}
	// One copy plus any message's framing and key.
	max := d.ep.bufSize - 96
	if o.kind == kindTxn {
		// The request carries the value once per key (encodeOp).
		max = (d.ep.bufSize - txnFraming - len(d.keys[o.key].name) - len(d.keys[o.keyB].name)) / 2
	}
	if n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	val := slices.Grow(o.val[:0], n)[:n]
	seed := d.rand()
	for i := range val {
		if i&7 == 0 {
			seed = sim.Splitmix64(seed)
		}
		val[i] = byte(seed >> uint((i&7)*8))
	}
	return val
}

// issueNext starts the user's next queued op. Reads are served from
// the driver cache when fresh; everything else goes on the wire with a
// retransmit timer.
func (d *Driver) issueNext(p *sim.Proc, u *user) {
	for req := u.head; req != nil; req = u.head {
		o := &req.op
		k := &d.keys[o.key]
		if o.kind == kindGet {
			if k.cached {
				d.stats.CacheHits++
				d.checkRead(u, o.key, k.ver, o.flow)
				u.pop()
				d.complete(p, *o, false)
				d.reqFree.Put(req)
				continue
			}
			d.stats.Misses++
		}
		c := d.conns[k.shard]
		if c.state != connUp {
			// Session still handshaking: the op stays at the head of
			// the queue until AuthOK.
			return
		}
		u.pop()
		u.seq++
		u.busy = true
		req.u, req.shard, req.sess, req.seq = u, k.shard, c.sess, u.seq
		req.payload = d.encodeOp(req.payload, o)
		req.rto, req.nextAt = driverRTO, p.Now()+driverRTO
		d.pending[reqKey(c.sess, u.idx, u.seq)] = req
		d.pendList = append(d.pendList, req)
		d.traceFlow(p, o.flow, "svc: request issue")
		_ = d.ep.send(p, c.addr, o.kind, c.sess, u.idx, u.seq, req.payload)
		d.traceFlow(p, o.flow, "svc: bcl sent")
		return
	}
}

// push queues r behind the user's other requests.
func (u *user) push(r *request) {
	if u.tail == nil {
		u.head = r
	} else {
		u.tail.next = r
	}
	u.tail = r
}

// pop unlinks the user's head request.
func (u *user) pop() {
	r := u.head
	u.head, r.next = r.next, nil
	if u.head == nil {
		u.tail = nil
	}
}

func reqKey(sess uint16, uch uint16, seq uint32) uint64 {
	return packTag(0, sess, uch, seq)
}

// txnFraming is what encodeOp adds to a transaction besides its two
// keys and two copies of the value: flow id, pair count and four
// 2-byte length prefixes.
const txnFraming = 8 + 1 + 4*2

// encodeOp encodes o's request body into b.
func (d *Driver) encodeOp(b []byte, o *op) []byte {
	pay := putU64(b, o.flow)
	key := d.keys[o.key].name
	switch o.kind {
	case kindGet:
		pay = putStr(pay, key)
	case kindPut:
		pay = putStr(pay, key)
		pay = putBytes(pay, o.val)
	case kindTxn:
		pay = append(pay, 2)
		pay = putStr(pay, key)
		pay = putBytes(pay, o.val)
		pay = putStr(pay, d.keys[o.keyB].name)
		pay = putBytes(pay, o.val)
	}
	return pay
}

// complete records one finished op's latency sample. The flow id rides
// into the histogram as the landing bucket's exemplar, and the request
// recorder runs its tail-sampling decision.
func (d *Driver) complete(p *sim.Proc, o op, aborted bool) {
	d.stats.Done++
	lat := p.Now() - o.arrival
	d.samples = append(d.samples, lat)
	if ob := d.ep.port.Node().Obs; ob != nil && d.lat == nil {
		d.lat = ob.Reg.Histogram(d.node, "svc", "req_latency_ns")
	}
	d.lat.ObserveTrace(int64(lat), o.flow)
	d.rt.End(o.flow, p.Now(), aborted)
}

func (d *Driver) nextDue(cap sim.Time) sim.Time {
	due := cap
	if d.genOn && d.nextArr < due {
		due = d.nextArr
	}
	for _, c := range d.conns {
		if c.state != connUp && c.nextAt < due {
			due = c.nextAt
		}
	}
	for _, r := range d.pendList {
		if !r.done && r.nextAt < due {
			due = r.nextAt
		}
	}
	return due
}

func (d *Driver) handle(p *sim.Proc, ev nic.Event) {
	kind, sess, uch, seq := unpackTag(ev.Tag)
	body := d.ep.read(p, ev)
	r := newReader(body)
	switch kind {
	case kindChall:
		d.onChall(p, ev, sess, r)
	case kindAuthOK:
		d.onAuthOK(p, ev, sess)
	case kindAuthFail:
		d.stats.AuthFails++
	case kindReply:
		d.onReply(p, sess, uch, seq, r)
	case kindInv:
		d.onInv(p, ev, sess, seq, r)
	}
}

func (d *Driver) connFor(ev nic.Event) *conn {
	src := bcl.Addr{Node: ev.SrcNode, Port: ev.SrcPort}
	for _, c := range d.conns {
		if c.addr == src {
			return c
		}
	}
	return nil
}

func (d *Driver) onChall(p *sim.Proc, ev nic.Event, sess uint16, r *reader) {
	challenge := r.u64()
	c := d.connFor(ev)
	if c == nil || !r.ok || c.state == connUp {
		return
	}
	c.sess = sess
	c.challenge = challenge
	c.state = connAuth
	c.rto = driverRTO
	c.nextAt = p.Now() + c.rto
	d.sendAuth(p, c)
}

func (d *Driver) onAuthOK(p *sim.Proc, ev nic.Event, sess uint16) {
	c := d.connFor(ev)
	if c == nil || c.sess != sess || c.state == connUp {
		return
	}
	c.state = connUp
	// Users whose head-of-line op waited on this shard can go now.
	for i := range d.users {
		if u := &d.users[i]; !u.busy && u.head != nil {
			d.issueNext(p, u)
		}
	}
}

func (d *Driver) onReply(p *sim.Proc, sess, uch uint16, seq uint32, r *reader) {
	req, ok := d.pending[reqKey(sess, uch, seq)]
	if !ok || req.done {
		return // duplicate reply for a completed request
	}
	flow := r.u64()
	status := r.byte()
	ver := r.u64()
	r.bytes() // the value, which the version-only cache does not keep
	if !r.ok {
		return
	}
	req.done = true
	delete(d.pending, reqKey(sess, uch, seq))
	d.traceFlow(p, flow, "svc: reply consume")
	o := req.op
	k := &d.keys[o.key]
	aborted := false
	switch o.kind {
	case kindGet:
		if status == StatusOK {
			d.checkRead(req.u, o.key, ver, o.flow)
			// Poison guard: only cache a fill at least as new as the
			// newest invalidation seen for the key — an INV that raced
			// this reply marks it stale before it ever lands.
			if ver >= k.inv {
				d.cacheStore(k, ver)
			}
		} else if d.seen[userKey(req.u.idx, o.key)] > 0 {
			// The user has seen this key; NotFound un-happens a write.
			d.stats.Violations++
			d.rt.Flag(o.flow)
		}
	case kindPut:
		if status == StatusOK {
			d.noteSeen(req.u, o.key, ver)
			// The server registered our interest in the new version;
			// install it so the cache matches that belief.
			if ver >= k.inv {
				d.cacheStore(k, ver)
			}
		}
		// StatusConflict: a prepared transaction owned the key. The
		// open-loop clock has moved on; surface it in the sample and
		// let later traffic supersede the value.
	case kindTxn:
		if status == StatusAborted {
			d.stats.TxnAborts++
			aborted = true
		}
	}
	d.complete(p, o, aborted)
	req.u.busy = false
	d.issueNext(p, req.u)
}

// cacheStore installs version ver as k's cached one.
func (d *Driver) cacheStore(k *keyState, ver uint64) {
	if k.cached && ver <= k.ver {
		return
	}
	k.ver, k.cached = ver, true
}

// checkRead enforces per-user monotonic reads / read-your-writes: a
// read must never return an older version than the user has observed.
// A breach flags the flow so its trace is force-retained.
func (d *Driver) checkRead(u *user, key uint32, ver uint64, flow uint64) {
	if ver < d.seen[userKey(u.idx, key)] {
		d.stats.Violations++
		d.rt.Flag(flow)
	}
	d.noteSeen(u, key, ver)
}

func (d *Driver) noteSeen(u *user, key uint32, ver uint64) {
	if k := userKey(u.idx, key); ver > d.seen[k] {
		d.seen[k] = ver
	}
}

// onInv applies a server invalidation and always acks it — the ack is
// what releases the writer's reply on the owning shard. A key outside
// the table is one this driver never cached: acked, nothing to apply.
func (d *Driver) onInv(p *sim.Proc, ev nic.Event, sess uint16, invID uint32, r *reader) {
	kb := r.bytes()
	ver := r.u64()
	if !r.ok {
		return
	}
	if i, ok := d.kidOf[string(kb)]; ok {
		k := &d.keys[i]
		k.inv = max(k.inv, ver)
		if k.cached && k.ver < ver {
			k.cached = false
			d.stats.InvsApplied++
		}
	}
	c := d.connFor(ev)
	if c != nil {
		_ = d.ep.send(p, c.addr, kindInvAck, sess, 0, invID, nil)
	}
}

// runTimers retransmits handshakes and requests past their RTO, in
// stable order.
func (d *Driver) runTimers(p *sim.Proc) {
	now := p.Now()
	for _, c := range d.conns {
		if c.state == connUp || now < c.nextAt {
			continue
		}
		if c.state == connHello {
			d.sendHello(p, c)
		} else {
			d.sendAuth(p, c)
		}
		c.rto = txn.Backoff(c.rto, driverRTO)
		c.nextAt = now + c.rto
	}
	live := d.pendList[:0]
	for _, r := range d.pendList {
		if r.done {
			d.reqFree.Put(r)
			continue
		}
		if now >= r.nextAt {
			d.stats.Retransmits++
			d.rt.Retransmit(r.op.flow)
			d.traceFlow(p, r.op.flow, "svc: request retransmit")
			c := d.conns[r.shard]
			_ = d.ep.send(p, c.addr, r.op.kind, r.sess, r.u.idx, r.seq, r.payload)
			r.rto = txn.Backoff(r.rto, driverRTO)
			r.nextAt = now + r.rto
		}
		live = append(live, r)
	}
	d.pendList = live
}

func (d *Driver) traceFlow(p *sim.Proc, flow uint64, stage string) {
	if flow == 0 || (d.tr == nil && d.rt == nil) {
		return
	}
	now := p.Now()
	d.tr.AddFlow(stage, d.row, flow, now, now)
	d.rt.Mark(flow, stage, d.row, now)
}
