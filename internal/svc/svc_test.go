package svc

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"testing"

	"bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/sim"
)

const tbBufSize = 2048

// fixedGap is a deterministic arrival process for tests (the real
// generators live in internal/workloads/openloop).
type fixedGap sim.Time

func (g fixedGap) Next() sim.Time { return sim.Time(g) }

type fixedSize int

func (s fixedSize) Next() int { return int(s) }

// tier is a running service deployment: `shards` server nodes followed
// by one driver node, which addDriver can give more drivers.
type tier struct {
	c       *cluster.Cluster
	sys     *bcl.System
	servers []*Server
	driver  *Driver
	others  []*Driver // added by addDriver
	ring    *Ring
}

func buildTier(t *testing.T, ccfg cluster.Config, shards int, dcfg DriverConfig) *tier {
	t.Helper()
	ccfg.Nodes = shards + 1
	if ccfg.Fabric == "" {
		ccfg.Fabric = cluster.Myrinet
	}
	ccfg.NIC = bcl.DefaultNICConfig()
	c := cluster.New(ccfg)
	sys := bcl.NewSystem(c)
	tr := &tier{c: c, sys: sys, ring: NewRing(shards, 64)}

	done := false
	c.Env.Go("setup", func(p *sim.Proc) {
		opts := bcl.Options{SystemBuffers: 128, SystemBufSize: tbBufSize}
		servers, err := StartShards(p, sys, opts, tbBufSize, ServerConfig{Ring: tr.ring, AuthSeed: 0xa0a0, Seed: 7})
		if err != nil {
			t.Error(err)
			return
		}
		tr.servers = servers
		ports, err := sys.OpenJob(p, []int{shards}, opts)
		if err != nil {
			t.Error(err)
			return
		}
		if dcfg.UserName == "" {
			dcfg.UserName = "alice"
		}
		tr.driver = tr.newDriver(p, ports[0], dcfg)
		done = true
	})
	c.Env.RunUntil(10 * sim.Millisecond)
	if !done {
		t.Fatal("setup did not finish")
	}
	return tr
}

// newDriver wires dcfg to the tier's shards, attaches a driver to pt
// and starts its loop.
func (tr *tier) newDriver(p *sim.Proc, pt *bcl.Port, dcfg DriverConfig) *Driver {
	for _, s := range tr.servers {
		dcfg.Shards = append(dcfg.Shards, s.Addr())
	}
	dcfg.Ring, dcfg.AuthSeed = tr.ring, 0xa0a0
	d := NewDriver(p, pt, tbBufSize, dcfg)
	tr.c.Env.Go("driver", d.Run)
	return d
}

// addDriver opens one more driver port on the driver node, wired to the
// same shards, and starts its loop. A second driver holds sessions of
// its own, so writes invalidate the first one's cache and vice versa.
func (tr *tier) addDriver(t *testing.T, dcfg DriverConfig) *Driver {
	t.Helper()
	var d *Driver
	tr.c.Env.Go("setup-driver", func(p *sim.Proc) {
		ports, err := tr.sys.OpenJob(p, []int{len(tr.servers)}, bcl.Options{SystemBuffers: 128, SystemBufSize: tbBufSize})
		if err != nil {
			t.Error(err)
			return
		}
		d = tr.newDriver(p, ports[0], dcfg)
	})
	tr.c.Env.RunUntil(tr.c.Env.Now() + 10*sim.Millisecond)
	if d == nil {
		t.Fatal("driver setup did not finish")
	}
	tr.others = append(tr.others, d)
	return d
}

// runDrained advances the clock until the driver drains, then settles
// a little longer so trailing invalidations and 2PC acks land.
func (tr *tier) runDrained(t *testing.T, horizon sim.Time) {
	t.Helper()
	for tr.c.Env.Now() < horizon {
		tr.c.Env.RunUntil(tr.c.Env.Now() + sim.Millisecond)
		if tr.driver.Drained() && !tr.driver.genOn {
			break
		}
	}
	if !tr.driver.Drained() {
		st := tr.driver.Stats()
		t.Fatalf("driver not drained by %v: issued=%d done=%d pending=%d",
			tr.c.Env.Now(), st.Issued, st.Done, len(tr.driver.pending))
	}
	tr.c.Env.RunUntil(tr.c.Env.Now() + 20*sim.Millisecond)
}

func (tr *tier) peek(key string) ([]byte, uint64) {
	return tr.servers[tr.ring.Shard(key)].Peek(key)
}

// checkAtomicity verifies every transaction pair holds identical
// bytes on its two shards.
func (tr *tier) checkAtomicity(t *testing.T, pa, pb []string) (committedPairs int) {
	t.Helper()
	for i := range pa {
		va, vera := tr.peek(pa[i])
		vb, verb := tr.peek(pb[i])
		if (vera == 0) != (verb == 0) {
			t.Errorf("pair %d: half-applied transaction (vers %d vs %d)", i, vera, verb)
			continue
		}
		if vera == 0 {
			continue
		}
		committedPairs++
		if string(va) != string(vb) {
			t.Errorf("pair %d: values differ across shards (%d vs %d bytes)", i, len(va), len(vb))
		}
	}
	return committedPairs
}

// checkCoherence verifies every cached entry of every driver's key table
// matches the owning shard's committed version exactly.
func (tr *tier) checkCoherence(t *testing.T) {
	t.Helper()
	for _, d := range append([]*Driver{tr.driver}, tr.others...) {
		for i := range d.keys {
			k := &d.keys[i]
			if !k.cached {
				continue
			}
			if _, want := tr.peek(k.name); k.ver != want {
				t.Errorf("cache incoherent: %s cached v%d, store v%d", k.name, k.ver, want)
			}
		}
	}
}

func TestKVSessionsAndCache(t *testing.T) {
	tr := buildTier(t, cluster.Config{}, 2, DriverConfig{
		Users: 64, Seed: 11, Keys: 40,
		Arrivals: fixedGap(15 * sim.Microsecond), Sizes: fixedSize(64),
		GetFrac: 0.6, TxnFrac: 0,
		Start: sim.Millisecond, Duration: 20 * sim.Millisecond,
	})
	tr.runDrained(t, 200*sim.Millisecond)
	st := tr.driver.Stats()
	if st.Done == 0 || st.Done != st.Issued {
		t.Fatalf("issued %d done %d", st.Issued, st.Done)
	}
	if st.Violations != 0 {
		t.Errorf("%d monotonic-read violations", st.Violations)
	}
	if st.CacheHits == 0 {
		t.Error("cache never hit")
	}
	if st.AuthFails != 0 {
		t.Errorf("%d auth failures", st.AuthFails)
	}
	tr.checkCoherence(t)
	for _, s := range tr.servers {
		if s.stats.dedupReplays > st.Retransmits {
			t.Errorf("more replays (%d) than client retransmits (%d)", s.stats.dedupReplays, st.Retransmits)
		}
	}
}

func TestTxnCommitAtomic(t *testing.T) {
	ring := NewRing(3, 64)
	pa, pb := ring.CrossPairs(8)
	tr := buildTier(t, cluster.Config{}, 3, DriverConfig{
		Users: 32, Seed: 5, Keys: 20,
		Arrivals: fixedGap(25 * sim.Microsecond), Sizes: fixedSize(48),
		GetFrac: 0.3, TxnFrac: 0.4, PairA: pa, PairB: pb,
		Start: sim.Millisecond, Duration: 25 * sim.Millisecond,
	})
	tr.runDrained(t, 300*sim.Millisecond)
	if got := tr.checkAtomicity(t, pa, pb); got == 0 {
		t.Fatal("no transaction ever committed")
	}
	var committed uint64
	for _, s := range tr.servers {
		c, _, _ := s.Stats()
		committed += c
	}
	if committed == 0 {
		t.Fatal("no coordinator recorded a commit")
	}
	tr.checkCoherence(t)
	if v := tr.driver.Stats().Violations; v != 0 {
		t.Errorf("%d linearizable-read violations", v)
	}
}

// TestOversizeTxnValuesClamped draws every value at half a system
// buffer: a transaction encodes its value once per key, so unclamped it
// is a request longer than any shard's pool buffer — NACKed forever,
// with go-back-N stalling every request behind it. The driver must size
// the value to the copies it sends, commit every transaction and drain.
// One user keeps the transactions sequential, so none aborts on a
// prepare-lock conflict.
func TestOversizeTxnValuesClamped(t *testing.T) {
	ring := NewRing(3, 64)
	pa, pb := ring.CrossPairs(8)
	tr := buildTier(t, cluster.Config{}, 3, DriverConfig{
		Users: 1, Seed: 5,
		Arrivals: fixedGap(100 * sim.Microsecond), Sizes: fixedSize(tbBufSize / 2),
		GetFrac: 0, TxnFrac: 1, PairA: pa, PairB: pb,
		Start: sim.Millisecond, Duration: 10 * sim.Millisecond,
	})
	tr.runDrained(t, 300*sim.Millisecond)
	st := tr.driver.Stats()
	if st.Done == 0 || st.Done != st.Issued {
		t.Fatalf("issued %d done %d", st.Issued, st.Done)
	}
	var committed, aborted uint64
	for _, s := range tr.servers {
		c, a, _ := s.Stats()
		committed += c
		aborted += a
	}
	if committed != st.Issued || aborted != 0 {
		t.Errorf("committed %d aborted %d of %d transactions", committed, aborted, st.Issued)
	}
	tr.checkAtomicity(t, pa, pb)

	// The layer below refuses what the clamp exists to prevent.
	var err error
	tr.c.Env.Go("oversize", func(p *sim.Proc) {
		err = tr.driver.ep.send(p, tr.servers[0].ep.port.Addr(), kindPut, 0, 0, 0, make([]byte, tbBufSize+1))
	})
	tr.c.Env.RunUntil(tr.c.Env.Now() + sim.Millisecond)
	if err == nil {
		t.Error("endpoint.send accepted a payload longer than its system buffer")
	}
}

// TestTxnSurvivesDuplicates floods the fabric with duplicated packets:
// every service message (including PREPARE/COMMIT/acks) arrives twice
// every few packets, so server dedup and 2PC idempotence both carry
// weight.
func TestTxnSurvivesDuplicates(t *testing.T) {
	ring := NewRing(3, 64)
	pa, pb := ring.CrossPairs(6)
	tr := buildTier(t, cluster.Config{}, 3, DriverConfig{
		Users: 32, Seed: 9, Keys: 20,
		Arrivals: fixedGap(30 * sim.Microsecond), Sizes: fixedSize(48),
		GetFrac: 0.3, TxnFrac: 0.4, PairA: pa, PairB: pb,
		Start: sim.Millisecond, Duration: 25 * sim.Millisecond,
	})
	tr.c.Install(fabric.Schedule{Rules: []fabric.Rule{{Every: 5, Do: fabric.Duplicate}}})
	tr.runDrained(t, 400*sim.Millisecond)
	if got := tr.checkAtomicity(t, pa, pb); got == 0 {
		t.Fatal("no transaction committed under duplication")
	}
	tr.checkCoherence(t)
	if v := tr.driver.Stats().Violations; v != 0 {
		t.Errorf("%d violations under duplication", v)
	}
}

// TestTxnSurvivesOutage takes a participant shard's fabric link down
// mid-run; service-level retransmits and the participant inquiry path
// must finish every transaction without a half-applied pair.
func TestTxnSurvivesOutage(t *testing.T) {
	ring := NewRing(3, 64)
	pa, pb := ring.CrossPairs(6)
	tr := buildTier(t, cluster.Config{}, 3, DriverConfig{
		Users: 24, Seed: 13, Keys: 16,
		Arrivals: fixedGap(40 * sim.Microsecond), Sizes: fixedSize(48),
		GetFrac: 0.2, TxnFrac: 0.5, PairA: pa, PairB: pb,
		Start: sim.Millisecond, Duration: 30 * sim.Millisecond,
	})
	tr.c.Install(fabric.Schedule{Windows: []fabric.Window{{Node: 1, From: 8 * sim.Millisecond, To: 12 * sim.Millisecond}}})
	tr.runDrained(t, 600*sim.Millisecond)
	if got := tr.checkAtomicity(t, pa, pb); got == 0 {
		t.Fatal("no transaction committed across the outage")
	}
	tr.checkCoherence(t)
	if v := tr.driver.Stats().Violations; v != 0 {
		t.Errorf("%d violations across outage", v)
	}
}

// TestTxnSurvivesFirmwareCrash crashes a shard's NIC firmware
// mid-workload with the watchdog enabled: the kernel reboots and
// reprograms the card, and the service layer's RTOs re-drive whatever
// the crash swallowed.
func TestTxnSurvivesFirmwareCrash(t *testing.T) {
	ring := NewRing(3, 64)
	pa, pb := ring.CrossPairs(6)
	tr := buildTier(t, cluster.Config{Watchdog: true}, 3, DriverConfig{
		Users: 24, Seed: 17, Keys: 16,
		Arrivals: fixedGap(40 * sim.Microsecond), Sizes: fixedSize(48),
		GetFrac: 0.2, TxnFrac: 0.5, PairA: pa, PairB: pb,
		Start: sim.Millisecond, Duration: 30 * sim.Millisecond,
	})
	tr.c.Install(fabric.Schedule{Crashes: []fabric.Crash{{Node: 2, At: 10 * sim.Millisecond}}})
	tr.runDrained(t, 600*sim.Millisecond)
	if got := tr.checkAtomicity(t, pa, pb); got == 0 {
		t.Fatal("no transaction committed across the firmware crash")
	}
	tr.checkCoherence(t)
	if v := tr.driver.Stats().Violations; v != 0 {
		t.Errorf("%d violations across firmware crash", v)
	}
}

// digestTier fingerprints everything externally visible about a run:
// latency samples in completion order, driver counters, and the full
// committed store of every shard.
func digestTier(tr *tier) uint64 {
	h := fnv.New64a()
	w := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> uint(8*i))
		}
		h.Write(b[:])
	}
	for _, s := range tr.driver.Samples() {
		w(uint64(s))
	}
	st := tr.driver.Stats()
	w(st.Issued)
	w(st.Done)
	w(st.CacheHits)
	w(st.Misses)
	w(st.TxnAborts)
	for _, s := range tr.servers {
		keys := make([]string, 0, len(s.store))
		for k := range s.store {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			e := s.store[k]
			w(e.ver)
			h.Write(e.val)
		}
	}
	return h.Sum64()
}

// TestServiceDeterministic runs the identical seeded scenario twice
// and demands byte-identical samples, counters and stores.
func TestServiceDeterministic(t *testing.T) {
	run := func() uint64 {
		ring := NewRing(3, 64)
		pa, pb := ring.CrossPairs(6)
		tr := buildTier(t, cluster.Config{Seed: 3}, 3, DriverConfig{
			Users: 32, Seed: 21, Keys: 24,
			Arrivals: fixedGap(30 * sim.Microsecond), Sizes: fixedSize(56),
			GetFrac: 0.4, TxnFrac: 0.3, PairA: pa, PairB: pb,
			Start: sim.Millisecond, Duration: 20 * sim.Millisecond,
		})
		tr.c.Install(fabric.Schedule{Rules: []fabric.Rule{{Every: 9, Do: fabric.Duplicate}}})
		tr.runDrained(t, 400*sim.Millisecond)
		return digestTier(tr)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs diverged: %x vs %x", a, b)
	}
}

func TestRingBalanceAndStability(t *testing.T) {
	ring := NewRing(4, 64)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[ring.Shard(fmt.Sprintf("key%05d", i))]++
	}
	for s, n := range counts {
		if n < 400 {
			t.Errorf("shard %d owns only %d/4000 keys", s, n)
		}
	}
	// Consistency: growing the ring must not move keys between the
	// surviving shards (only onto the new one).
	big := NewRing(5, 64)
	moved := 0
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key%05d", i)
		a, b := ring.Shard(k), big.Shard(k)
		if a != b && b != 4 {
			moved++
		}
	}
	if moved > 0 {
		t.Errorf("%d keys moved between surviving shards on grow", moved)
	}
}

func TestTagRoundTrip(t *testing.T) {
	kinds := []uint8{kindHello, kindReply, kindInquire}
	for _, k := range kinds {
		for _, sess := range []uint16{0, 1, 1<<sessBits - 1} {
			for _, uch := range []uint16{0, 7, 1<<uchBits - 1} {
				for _, seq := range []uint32{0, 12345, 1<<seqBits - 1} {
					gk, gs, gu, gq := unpackTag(packTag(k, sess, uch, seq))
					if gk != k || gs != sess || gu != uch || gq != seq {
						t.Fatalf("round trip (%d,%d,%d,%d) -> (%d,%d,%d,%d)",
							k, sess, uch, seq, gk, gs, gu, gq)
					}
				}
			}
		}
	}
}

// TestSamplesDeterministic: the per-request latency samples the driver
// records are identical element-by-element across same-seed runs — the
// property the reqobs sampling digest and exemplar gates build on.
func TestSamplesDeterministic(t *testing.T) {
	run := func() []sim.Time {
		tr := buildTier(t, cluster.Config{Seed: 5}, 2, DriverConfig{
			Users: 24, Seed: 13, Keys: 32,
			Arrivals: fixedGap(40 * sim.Microsecond), Sizes: fixedSize(64),
			GetFrac: 0.5, Start: sim.Millisecond, Duration: 10 * sim.Millisecond,
		})
		tr.runDrained(t, 200*sim.Millisecond)
		return tr.driver.Samples()
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("sample counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRequestAllocationBudget: once a tier is warm — every user has
// touched its state, the free lists hold what the traffic keeps in
// flight — a request allocates nothing, whatever it is: a get served
// from the cache or a shard, a put and the invalidations it fans out
// to the other driver, a cross-shard transaction with its PREPAREs,
// votes, commits and acks (the coordinator's messages to its own shard
// take the intra-node path). Before frames and bodies had endpoint
// buffers and retired records went back on free lists, a request made
// about 20 objects.
func TestRequestAllocationBudget(t *testing.T) {
	ring := NewRing(3, 64)
	pa, pb := ring.CrossPairs(6)
	dcfg := DriverConfig{
		Users: 32, Seed: 23, Keys: 24,
		Arrivals: fixedGap(160 * sim.Microsecond), Sizes: fixedSize(200),
		GetFrac: 0.5, TxnFrac: 0.2, PairA: pa, PairB: pb,
		Start: sim.Millisecond, Duration: 10 * sim.Second,
	}
	tr := buildTier(t, cluster.Config{}, 3, dcfg)
	dcfg.Seed, dcfg.UserName = 24, "bob"
	tr.addDriver(t, dcfg)
	window := func() { tr.c.Env.RunUntil(tr.c.Env.Now() + 10*sim.Millisecond) }
	for i := 0; i < 30; i++ {
		window()
	}
	count := func() (done, committed, invs uint64) {
		for _, d := range append([]*Driver{tr.driver}, tr.others...) {
			done += d.Stats().Done
		}
		for _, s := range tr.servers {
			c, _, i := s.Stats()
			committed, invs = committed+c, invs+i
		}
		return
	}
	done0, committed0, invs0 := count()
	allocs := testing.AllocsPerRun(50, window)
	done, committed, invs := count()
	t.Logf("%.0f objects per window of %.1f requests (%d commits, %d invalidations in %d requests)",
		allocs, float64(done-done0)/51, committed-committed0, invs-invs0, done-done0)
	if allocs != 0 {
		t.Fatalf("a warm window of %.1f requests allocates %.0f objects, want 0", float64(done-done0)/51, allocs)
	}
	if committed == committed0 || invs == invs0 {
		t.Fatal("the measured windows committed no transaction or sent no invalidation")
	}
	tr.checkCoherence(t)
	tr.checkAtomicity(t, pa, pb)
}

// answer hands d a reply for a fresh request of user uch on key, as if
// issueNext had sent it on session 1, and returns the driver's
// violation count after the reply is judged.
func answer(p *sim.Proc, d *Driver, uch uint16, kind uint8, key uint32, status byte, ver uint64) uint64 {
	u := &d.users[uch]
	u.seq++
	u.busy = true
	req := sim.Take(&d.reqFree)
	*req = request{op: op{kind: kind, key: key}, u: u, sess: 1, seq: u.seq}
	d.pending[reqKey(1, uch, u.seq)] = req
	d.pendList = append(d.pendList, req)
	d.onReply(p, 1, uch, u.seq, newReader(replyFrame(nil, 0, status, ver, nil)))
	return d.stats.Violations
}

// TestMonotonicReadJudgeFires drives the driver's monotonic-read /
// read-your-writes judge through replies that must and must not count
// as violations. seen is one table keyed by (user, key index) packed
// into a uint64: the steps on other users' keys fail if the packing
// aliases two users, or a user and a key.
func TestMonotonicReadJudgeFires(t *testing.T) {
	tr := buildTier(t, cluster.Config{}, 1, DriverConfig{Users: MaxUsersPerDriver, Seed: 3, Keys: 4})
	d := tr.driver
	last, top := uint32(len(d.keys)-1), uint16(MaxUsersPerDriver-1)
	steps := []struct {
		what   string
		uch    uint16
		kind   uint8
		key    uint32
		status byte
		ver    uint64
		want   uint64 // violations after the step
	}{
		{"user 0 writes key 1 at v5", 0, kindPut, 1, StatusOK, 5, 0},
		{"user 0 reads key 1 at v3, older than its write", 0, kindGet, 1, StatusOK, 3, 1},
		{"user 0 reads key 1 as NotFound after its write", 0, kindGet, 1, StatusNotFound, 0, 2},
		{"user 0 reads key 1 at v5", 0, kindGet, 1, StatusOK, 5, 2},
		{"user 1 reads key 0 at v1 (user 0 saw key 1)", 1, kindGet, 0, StatusOK, 1, 2},
		{"user 1 reads key 1 at v3 (user 0 saw v5)", 1, kindGet, 1, StatusOK, 3, 2},
		{"user 1 reads key 1 as NotFound after reading v3", 1, kindGet, 1, StatusNotFound, 0, 3},
		{"the top user reads the last key at v7", top, kindGet, last, StatusOK, 7, 3},
		{"user 0 reads the last key at v2 (the top user saw v7)", 0, kindGet, last, StatusOK, 2, 3},
		{"the top user reads the last key at v6, older than its v7", top, kindGet, last, StatusOK, 6, 4},
	}
	tr.c.Env.Go("judge", func(p *sim.Proc) {
		for _, st := range steps {
			if got := answer(p, d, st.uch, st.kind, st.key, st.status, st.ver); got != st.want {
				t.Errorf("%s: %d violations, want %d", st.what, got, st.want)
			}
		}
	})
	tr.c.Env.RunUntil(tr.c.Env.Now() + sim.Millisecond)
	if done := d.Stats().Done; done != uint64(len(steps)) {
		t.Fatalf("%d of %d replies judged", done, len(steps))
	}
}

// TestInvalidationOutsideKeyTable: a shard invalidates a key the driver
// has no index for. The driver acks it, so the write it holds back is
// released, and no cache entry or invalidated version moves.
func TestInvalidationOutsideKeyTable(t *testing.T) {
	tr := buildTier(t, cluster.Config{}, 2, DriverConfig{
		Users: 16, Seed: 5, Keys: 8,
		Arrivals: fixedGap(20 * sim.Microsecond), Sizes: fixedSize(32),
		GetFrac: 0.7, Start: sim.Millisecond, Duration: 5 * sim.Millisecond,
	})
	tr.runDrained(t, 100*sim.Millisecond)
	d, srv := tr.driver, tr.servers[0]
	const outside = "not-a-key"
	if _, ok := d.kidOf[outside]; ok {
		t.Fatalf("%q is in the driver's key table", outside)
	}
	before := slices.Clone(d.keys)
	if len(d.CacheSnapshot()) == 0 {
		t.Fatal("the traffic cached nothing")
	}
	applied, acks, replies := d.stats.InvsApplied, srv.stats.invAcks, srv.stats.replies
	tr.c.Env.Go("invalidate", func(p *sim.Proc) {
		se := srv.sessions[d.conns[0].sess]
		srv.addInterest(outside, se.id)
		g := sim.Take(&srv.groupFree)
		*g = invGroup{se: se, uch: 0, seq: 1<<seqBits - 1, ver: 9}
		srv.invalidate(p, outside, 9, 0, g)
		if g.waiting != 1 {
			t.Errorf("the invalidation waits on %d acks, want 1", g.waiting)
		}
	})
	tr.c.Env.RunUntil(tr.c.Env.Now() + 5*sim.Millisecond)
	if srv.stats.invAcks != acks+1 || srv.stats.replies != replies+1 {
		t.Errorf("acks %d -> %d, replies %d -> %d: want the invalidation acked and the held reply sent",
			acks, srv.stats.invAcks, replies, srv.stats.replies)
	}
	if d.stats.InvsApplied != applied {
		t.Errorf("invalidations applied %d -> %d", applied, d.stats.InvsApplied)
	}
	for i, k := range d.keys {
		b := before[i]
		if k != b {
			t.Errorf("%s moved: cached %v v%d inv %d -> cached %v v%d inv %d",
				k.name, b.cached, b.ver, b.inv, k.cached, k.ver, k.inv)
		}
	}
}

// TestDuplicateGetReplaysTheRecord: a GET duplicated after its key was
// overwritten gets the reply its first copy got, the version and bytes
// recorded then, counted as one replay, and the key's interest list
// stays as the write left it. Executed again, it would answer the newer
// version and put the reader's session back on the list.
func TestDuplicateGetReplaysTheRecord(t *testing.T) {
	tr := buildTier(t, cluster.Config{}, 1, DriverConfig{Users: 1, Seed: 3})
	other := tr.addDriver(t, DriverConfig{Users: 1, Seed: 4, UserName: "bob"})
	srv := tr.servers[0]
	rd, wr := srv.sessions[tr.driver.conns[0].sess], srv.sessions[other.conns[0].sess]
	if rd == nil || wr == nil || rd.state != sessUp || wr.state != sessUp || rd == wr {
		t.Fatal("the two drivers hold no established sessions of their own")
	}
	const key, uch, seq = "k", 3, 1<<seqBits - 1 // a channel and seq neither driver uses
	srv.apply(key, []byte("first"))
	get := putStr(putU64(nil, 0), key)
	var interest []uint16
	var replays uint64
	var frame *reader
	tr.c.Env.Go("reads", func(p *sim.Proc) {
		srv.onGet(p, rd.id, uch, seq, newReader(get))
		srv.onPut(p, wr.id, uch, seq, newReader(putBytes(putStr(putU64(nil, 0), key), []byte("second"))))
		p.Sleep(2 * sim.Millisecond) // the reader acks the invalidation
		interest, replays = append([]uint16(nil), srv.interest[key]...), srv.stats.dedupReplays
		srv.onGet(p, rd.id, uch, seq, newReader(get))
		frame = newReader(srv.ep.out[:cap(srv.ep.out)]) // what the shard sent last
	})
	tr.c.Env.RunUntil(tr.c.Env.Now() + 5*sim.Millisecond)
	if val, ver := srv.Peek(key); ver != 2 || string(val) != "second" {
		t.Fatalf("%s is v%d %q, want the write's v2", key, ver, val)
	}
	if frame == nil {
		t.Fatal("the reads did not finish")
	}
	frame.u64()
	status, ver, val := frame.byte(), frame.u64(), frame.bytes()
	if !frame.ok || status != StatusOK || ver != 1 || string(val) != "first" {
		t.Errorf("the duplicate got status %d, v%d %q, want the recorded OK, v1 \"first\"", status, ver, val)
	}
	if srv.stats.dedupReplays != replays+1 {
		t.Errorf("%d replays, want 1", srv.stats.dedupReplays-replays)
	}
	if got := srv.interest[key]; len(interest) != 1 || interest[0] != wr.id || !slices.Equal(got, interest) {
		t.Errorf("interest in %s: %v after the write, %v after the duplicate; want [%d] both times", key, interest, got, wr.id)
	}
}

// TestKeylessDriverReadsK: a driver with no get/put keys reads the one
// key "k" — and caches it like any other.
func TestKeylessDriverReadsK(t *testing.T) {
	tr := buildTier(t, cluster.Config{}, 2, DriverConfig{
		Users: 8, Seed: 7, Keys: 0,
		Arrivals: fixedGap(50 * sim.Microsecond), GetFrac: 0.5,
		Start: 20 * sim.Millisecond, Duration: 5 * sim.Millisecond,
	})
	srv := tr.servers[tr.ring.Shard("k")]
	srv.apply("k", []byte("value of k"))
	tr.runDrained(t, 200*sim.Millisecond)
	d := tr.driver
	st := d.Stats()
	if st.Done == 0 || st.Done != st.Issued || st.CacheHits+st.Misses != st.Issued {
		t.Fatalf("issued %d done %d, %d hits + %d misses: want every op a get of k", st.Issued, st.Done, st.CacheHits, st.Misses)
	}
	if st.CacheHits == 0 || srv.stats.reqGet != st.Misses {
		t.Errorf("%d hits, shard served %d of %d misses", st.CacheHits, srv.stats.reqGet, st.Misses)
	}
	if snap := d.CacheSnapshot(); len(snap) != 1 || snap["k"] != 1 {
		t.Errorf("cache holds %v, want k at v1", snap)
	}
	tr.checkCoherence(t)
}

// TestHotFracLandsOnKeyZero: with HotFrac 1 every get and put names the
// table's first key, k00000; nothing else is ever written or cached.
func TestHotFracLandsOnKeyZero(t *testing.T) {
	tr := buildTier(t, cluster.Config{}, 2, DriverConfig{
		Users: 16, Seed: 9, Keys: 12, HotFrac: 1,
		Arrivals: fixedGap(30 * sim.Microsecond), Sizes: fixedSize(40),
		GetFrac: 0.5, Start: sim.Millisecond, Duration: 5 * sim.Millisecond,
	})
	tr.runDrained(t, 200*sim.Millisecond)
	if _, ver := tr.peek("k00000"); ver == 0 {
		t.Fatal("k00000 was never written")
	}
	for i, s := range tr.servers {
		for key := range s.store {
			if key != "k00000" {
				t.Errorf("shard %d stores %s", i, key)
			}
		}
	}
	for key := range tr.driver.CacheSnapshot() {
		if key != "k00000" {
			t.Errorf("the driver caches %s", key)
		}
	}
	tr.checkCoherence(t)
}

// TestFreshTierBytesPerRequest holds the bytes a fresh tier allocates
// per request while its tables fill. Two drivers of 4 000 users each
// run the service mix; nearly every request names a (user, key) the
// driver has not seen and a user channel its shard has not answered, so
// the driver's seen versions and each session's reply records grow by
// rehash throughout. The window reads 198 B per request; 276 while seen
// was keyed by (user, key name) and the reply record was padded to 56.
func TestFreshTierBytesPerRequest(t *testing.T) {
	const budget = 240
	ring := NewRing(3, 64)
	pa, pb := ring.CrossPairs(6)
	dcfg := DriverConfig{
		Users: 4000, Seed: 31, Keys: 96,
		Arrivals: fixedGap(60 * sim.Microsecond), Sizes: fixedSize(64),
		GetFrac: 0.6, TxnFrac: 0.1, PairA: pa, PairB: pb,
		Start: 30 * sim.Millisecond, Duration: sim.Second,
	}
	tr := buildTier(t, cluster.Config{}, 3, dcfg)
	dcfg.Seed, dcfg.UserName = 32, "bob"
	tr.addDriver(t, dcfg)
	done := func() (n uint64) {
		for _, d := range append([]*Driver{tr.driver}, tr.others...) {
			n += d.Stats().Done
		}
		return n
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	done0 := done()
	tr.c.Env.RunUntil(tr.c.Env.Now() + 200*sim.Millisecond)
	runtime.ReadMemStats(&m1)
	n := done() - done0
	if n < 2000 {
		t.Fatalf("only %d requests done", n)
	}
	perReq := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	t.Logf("%.0f B per request over the first %d requests", perReq, n)
	if perReq > budget {
		t.Errorf("a fresh tier allocates %.0f B per request, budget %d", perReq, budget)
	}
}

// TestHelloAfterFailedAuth: a session that fails authentication is
// forgotten whole, so the same HELLO arriving again (a duplicate that
// lost the race with the AUTH, or a retry) opens a fresh session with
// a fresh challenge instead of finding an index entry for a deleted
// session.
func TestHelloAfterFailedAuth(t *testing.T) {
	tr := buildTier(t, cluster.Config{}, 1, DriverConfig{Users: 1, Seed: 3})
	srv := tr.servers[0]
	src := tr.driver.ep.port.Addr() // the driver ignores what it did not ask for
	hello := putU64(putStr(nil, "mallory"), 42)
	var first, second uint16
	tr.c.Env.Go("mallory", func(p *sim.Proc) {
		srv.onHello(p, src, newReader(hello))
		first = srv.helloIndex[helloKey{client: src, nonce: 42}]
		wrong := authResponse(srv.sessions[first].challenge, userSecret("mallory", srv.cfg.AuthSeed)) + 1
		srv.onAuth(p, src, first, newReader(putU64(nil, wrong)))
		srv.onHello(p, src, newReader(hello))
		second = srv.helloIndex[helloKey{client: src, nonce: 42}]
	})
	tr.c.Env.RunUntil(tr.c.Env.Now() + sim.Millisecond)
	if srv.stats.authFail != 1 {
		t.Fatalf("%d failed authentications, want 1", srv.stats.authFail)
	}
	if se := srv.sessions[second]; second == first || se == nil || se.state != sessChallenged {
		t.Fatalf("the HELLO after the failed AUTH got session %d (first was %d), want a fresh challenged one", second, first)
	}
}

// TestServerSurvivesAnyMessageOrder feeds one shard seeded random
// sequences of every message kind, well-formed and truncated, from
// three sources, over a small space of sessions, user channels,
// sequence numbers, transaction ids and keys, so that messages meet
// each other in every order: duplicates, answers before questions,
// AUTH before HELLO, a HELLO after a failed AUTH. No order may make a
// server panic.
func TestServerSurvivesAnyMessageOrder(t *testing.T) {
	tr := buildTier(t, cluster.Config{}, 2, DriverConfig{Users: 1, Seed: 3})
	srv := tr.servers[0]
	srcs := []bcl.Addr{tr.driver.ep.port.Addr(), tr.servers[0].Addr(), tr.servers[1].Addr()}
	keys := []string{"a", "b", "k00001"}
	kinds := []uint8{kindHello, kindAuth, kindGet, kindPut, kindTxn, kindInvAck,
		kindPrepare, kindVote, kindCommit, kindAbort, kindTxnAck, kindInquire}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := seed
		pick := func(n int) int {
			rng = sim.Splitmix64(rng)
			return int(rng % uint64(n))
		}
		tr.c.Env.Go("chaos", func(p *sim.Proc) {
			for i := 0; i < 400; i++ {
				src := srcs[pick(len(srcs))]
				sess, uch, seq := uint16(pick(4)), uint16(pick(3)), uint32(pick(4))
				txid := uint64(pick(3))
				var b []byte
				kind := kinds[pick(len(kinds))]
				switch kind {
				case kindHello:
					b = putU64(putStr(nil, "swarm"), uint64(pick(2)))
				case kindAuth:
					resp := uint64(pick(2))
					if se := srv.sessions[sess]; se != nil && pick(2) == 0 {
						resp = authResponse(se.challenge, userSecret(se.user, srv.cfg.AuthSeed))
					}
					b = putU64(nil, resp)
				case kindGet:
					b = putStr(putU64(nil, 0), keys[pick(len(keys))])
				case kindPut:
					b = putBytes(putStr(putU64(nil, 0), keys[pick(len(keys))]), []byte("v"))
				case kindTxn, kindPrepare:
					if kind == kindPrepare {
						b = putU64(nil, txid)
					}
					b = append(putU64(b, 0), 2)
					for j := 0; j < 2; j++ {
						b = putBytes(putStr(b, keys[pick(len(keys))]), []byte("w"))
					}
				case kindVote:
					b = append(putU64(nil, txid), byte(pick(2)))
				default:
					b = putU64(putU64(nil, txid), 0)
				}
				b = b[:len(b)-pick(2)*pick(len(b)+1)] // half the time, a truncation
				r := newReader(b)
				switch kind {
				case kindHello:
					srv.onHello(p, src, r)
				case kindAuth:
					srv.onAuth(p, src, sess, r)
				case kindGet:
					srv.onGet(p, sess, uch, seq, r)
				case kindPut:
					srv.onPut(p, sess, uch, seq, r)
				case kindTxn:
					srv.onTxn(p, sess, uch, seq, r)
				case kindInvAck:
					srv.onInvAck(p, seq)
				case kindPrepare:
					srv.onPrepare(p, src, r)
				case kindVote:
					srv.onVote(p, src, r)
				case kindCommit:
					srv.onCommit(p, src, r)
				case kindAbort:
					srv.onAbort(p, r)
				case kindTxnAck:
					srv.onTxnAck(p, src, r)
				case kindInquire:
					srv.onInquire(p, src, r)
				}
				srv.runTimers(p)
				p.Sleep(sim.Time(pick(50)) * sim.Microsecond)
			}
		})
		tr.c.Env.RunUntil(tr.c.Env.Now() + 50*sim.Millisecond)
	}
}
