// Package svc is the service tier: a request/response RPC framework,
// a sharded key-value store with a read-through client cache, and
// presumed-abort two-phase commit for cross-shard transactions — all
// layered directly on BCL ports.
//
// Every message rides the system channel (the eager pool path) of the
// destination port. The 64-bit BCL tag word carries the entire RPC
// header — kind, session, per-user channel, sequence number — so
// framing costs no payload bytes and no extra kernel work; bodies are
// length-prefixed fields in the pool buffer. Each server and driver
// owns its port outright — its event loop (bcl.Port.WaitRecvTimeout) is
// the port's only receiver, so there is nothing to demultiplex.
//
// Reliability is end-to-end at the service layer: clients retransmit
// requests on an exponential-backoff RTO, servers deduplicate by
// (session, user channel, sequence) and replay the cached reply, and
// the 2PC engine retransmits protocol messages until acknowledged.
// Combined with the transport's exactly-once delivery the stack
// survives duplicates, outage windows, and NIC firmware crashes from
// the fault vocabulary.
package svc

import (
	"encoding/binary"

	"bcl/internal/sim"
)

// Message kinds (tag bits [58, 64)).
const (
	kindHello    = 1  // client -> server: open a session (user, nonce)
	kindChall    = 2  // server -> client: auth challenge
	kindAuth     = 3  // client -> server: challenge response
	kindAuthOK   = 4  // server -> client: session established
	kindAuthFail = 5  // server -> client: bad response
	kindGet      = 6  // client -> server: read one key
	kindPut      = 7  // client -> server: write one key
	kindTxn      = 8  // client -> coordinator: cross-shard transaction
	kindReply    = 9  // server -> client: request outcome
	kindInv      = 10 // server -> client: cache invalidation
	kindInvAck   = 11 // client -> server: invalidation applied
	kindPrepare  = 12 // coordinator -> participant: 2PC phase one
	kindVote     = 13 // participant -> coordinator: YES/NO
	kindCommit   = 14 // coordinator -> participant: 2PC phase two
	kindAbort    = 15 // coordinator -> participant: roll back
	kindTxnAck   = 16 // participant -> coordinator: decision applied
	kindInquire  = 17 // participant -> coordinator: what happened?
)

// Reply status codes (first payload byte after the flow id).
const (
	StatusOK        = 0 // get hit / put applied / txn committed
	StatusNotFound  = 1 // get miss
	StatusAborted   = 2 // txn aborted (client may retry)
	StatusConflict  = 3 // put hit a prepared-transaction lock
	StatusBadHeader = 4 // malformed request
)

// Tag layout: kind 6 | session 14 | user channel 14 | sequence 30.
const (
	sessBits = 14
	uchBits  = 14
	seqBits  = 30

	// MaxUsersPerDriver is how many simulated users one connection can
	// multiplex (the width of the per-user channel field).
	MaxUsersPerDriver = 1 << uchBits
)

func packTag(kind uint8, sess, uch uint16, seq uint32) uint64 {
	return uint64(kind)<<(sessBits+uchBits+seqBits) |
		uint64(sess&(1<<sessBits-1))<<(uchBits+seqBits) |
		uint64(uch&(1<<uchBits-1))<<seqBits |
		uint64(seq&(1<<seqBits-1))
}

func unpackTag(t uint64) (kind uint8, sess, uch uint16, seq uint32) {
	kind = uint8(t >> (sessBits + uchBits + seqBits))
	sess = uint16(t >> (uchBits + seqBits) & (1<<sessBits - 1))
	uch = uint16(t >> seqBits & (1<<uchBits - 1))
	seq = uint32(t & (1<<seqBits - 1))
	return
}

// Payload codec: little-endian, append-style. Strings and byte fields
// are u16-length-prefixed.

func putU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func putBytes(b, v []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(v)))
	return append(b, v...)
}

func putStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// reader walks a payload; it reports truncation through ok so
// malformed messages are dropped, never panicked on. A string field is
// read with bytes: its bytes alias the payload, and a handler makes a
// string only of what it keeps (see names).
type reader struct {
	b  []byte
	ok bool
}

func newReader(b []byte) *reader { return &reader{b: b, ok: true} }

func (r *reader) u64() uint64 {
	if len(r.b) < 8 {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) bytes() []byte {
	if len(r.b) < 2 {
		r.ok = false
		return nil
	}
	n := int(binary.LittleEndian.Uint16(r.b))
	r.b = r.b[2:]
	if len(r.b) < n {
		r.ok = false
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) byte() byte {
	if len(r.b) < 1 {
		r.ok = false
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// names interns the keys bodies carry. Looking a key up by a body's
// bytes (m[string(b)]) makes no string; a key becomes a string once,
// the first time something keeps it.
type names map[string]string

func (n names) Intern(b []byte) string {
	if s, ok := n[string(b)]; ok {
		return s
	}
	s := string(b)
	n[s] = s
	return s
}

// hashKey is FNV-1a over the key bytes.
func hashKey(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// userSecret derives a user's shared secret from the deployment's auth
// seed (the simulated stand-in for a provisioned credential).
func userSecret(user string, authSeed uint64) uint64 {
	return sim.Splitmix64(hashKey(user) ^ authSeed)
}

// authResponse is the challenge/response function: both sides compute
// it from the challenge and the user's secret (ninjam-style
// challenge-response, with a mixing hash standing in for SHA1).
func authResponse(challenge, secret uint64) uint64 {
	return sim.Splitmix64(challenge ^ secret)
}
