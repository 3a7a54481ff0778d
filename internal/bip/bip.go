// Package bip implements a BIP-like comparator (Basic Interface for
// Parallelism, LHPC Lyon): an aggressively minimal user-level message
// layer. Per the paper's Table 2 discussion, BIP "has a very low
// latency, but it doesn't provide the functionality of flow control
// and error correction, [and] its bandwidth is lower than that of
// BCL".
//
// The library surface is the user-level port (package ulc) — BIP is a
// user-level architecture — but the firmware runs unreliable
// (fire-and-forget, no CRC recovery, no retransmission) with a leaner
// per-message cost and a heavier per-fragment cost (BIP's simple
// firmware does not double-buffer large transfers as aggressively),
// which is what trades its latency win against a bandwidth loss.
package bip

import (
	"bcl/internal/hw"
	"bcl/internal/nic"
	"bcl/internal/ulc"
)

// System is the per-cluster BIP instance (the user-level library over
// unreliable firmware).
type System = ulc.System

// Port is a BIP endpoint.
type Port = ulc.Port

// Addr names a process.
type Addr = ulc.Addr

// NewSystem attaches BIP to a cluster built with NICConfig() and
// Profile().
var NewSystem = ulc.NewSystem

// NICConfig returns the firmware configuration: user-level access,
// polled completions, and NO reliability — the paper's "no flow
// control and error correction".
func NICConfig() nic.Config {
	return nic.Config{
		Translate:  nic.NICTranslated,
		Completion: nic.UserEventQueue,
		Reliable:   false,
	}
}

// Profile returns the DAWNING-3000 profile with BIP's firmware
// characteristics: minimal per-message protocol (no reliability state
// machine), but less pipelined bulk handling.
func Profile() *hw.Profile {
	p := hw.DAWNING3000().Clone()
	p.MCPSendProc = 2200   // no reliable-protocol processing
	p.MCPPacketProc = 6000 // weaker fragment pipelining
	p.MCPRecvProc = 800
	p.MCPEventDMA = 800
	p.MCPDescFetch = 300     // one-word descriptors
	p.MCPChannelLookup = 200 // trivial receive-side dispatch
	return p
}
