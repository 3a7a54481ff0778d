package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"bcl/internal/hw"
)

// TestVerifyCatchesEveryScheduledCorruption: a Corrupt rule flips one
// bit of a payload, or xors 0xff into one byte (schedule.go's hook). On
// a MaxPacket payload every one of those corruptions fails Verify, and
// the untouched packet passes, so a CRC drop never depends on which
// bit or byte a schedule hits.
func TestVerifyCatchesEveryScheduledCorruption(t *testing.T) {
	payload := make([]byte, hw.DAWNING3000().MaxPacket)
	rand.New(rand.NewSource(1)).Read(payload)
	pkt := &Packet{Payload: payload}
	pkt.Seal()
	if !pkt.Verify() {
		t.Fatal("an untouched packet fails Verify")
	}
	for bit := 0; bit < len(payload)*8; bit++ {
		payload[bit/8] ^= 1 << (bit % 8)
		if pkt.Verify() {
			t.Fatalf("bit %d flipped passes Verify", bit)
		}
		payload[bit/8] ^= 1 << (bit % 8)
	}
	for i := range payload {
		payload[i] ^= 0xff
		if pkt.Verify() {
			t.Fatalf("byte %d xored with 0xff passes Verify", i)
		}
		payload[i] ^= 0xff
	}
	if !pkt.Verify() {
		t.Fatal("the restored packet fails Verify")
	}
}

// FuzzSealVerify: one to three Corrupt rules stacked on one packet flip
// one to three payload bits (1 + n%3 of a, b, c, each taken modulo the
// payload's bits). Verify fails unless the flips cancel out. The
// committed corpus holds two flips a byte sum cannot see (bit 0 set in
// byte 0 and cleared in byte 1).
func FuzzSealVerify(f *testing.F) {
	f.Add([]byte("one flipped bit"), uint8(0), uint16(3), uint16(0), uint16(0))
	f.Add(make([]byte, 64), uint8(1), uint16(7), uint16(7), uint16(0))
	f.Add(bytes.Repeat([]byte{0x5a}, 4096), uint8(2), uint16(0), uint16(32767), uint16(16000))
	f.Fuzz(func(t *testing.T, payload []byte, n uint8, a, b, c uint16) {
		if len(payload) == 0 {
			return // a Corrupt rule matches only packets with a payload
		}
		orig := bytes.Clone(payload)
		pkt := &Packet{Payload: payload}
		pkt.Seal()
		for _, bit := range []uint16{a, b, c}[:1+n%3] {
			i := int(bit) % (len(payload) * 8)
			payload[i/8] ^= 1 << (i % 8)
		}
		if cancel := bytes.Equal(payload, orig); pkt.Verify() != cancel {
			t.Fatalf("Verify = %v after %d flips at %d, %d, %d of %d bytes (flips cancel: %v)",
				!cancel, 1+n%3, a, b, c, len(payload), cancel)
		}
	})
}

// sealVerifySink keeps BenchmarkSealVerify's verdicts live.
var sealVerifySink bool

// BenchmarkSealVerify is the per-packet CRC work on the host: one Seal
// at the sender and one Verify at the receiver. MB/s counts payload
// bytes carried, each of which is checksummed twice.
func BenchmarkSealVerify(b *testing.B) {
	for _, size := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			pkt := &Packet{Payload: make([]byte, size)}
			rand.New(rand.NewSource(1)).Read(pkt.Payload)
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				pkt.Seal()
				sealVerifySink = pkt.Verify()
			}
		})
	}
}
