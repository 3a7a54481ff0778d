package fabric

import (
	"testing"

	"bcl/internal/sim"
)

func modelPacket() Packet {
	return Packet{Kind: KindData, Src: 1, Dst: 2, Epoch: 3, MsgID: 4, Seq: 5, FragIdx: 6, AckSeq: 7, Payload: make([]byte, 64), CRC: 8}
}

// TestModelLogFoldsEveryField: a packet record changes with each of its
// fields, and two records folded in the other order give another log.
func TestModelLogFoldsEveryField(t *testing.T) {
	log := func(at sim.Time, pkt Packet, what uint64) uint64 {
		var ep Endpoint
		ep.logPacket(at, &pkt, what)
		return ep.model
	}
	base := log(1, modelPacket(), uint64(Deliver))
	for name, mut := range map[string]func(*Packet){
		"src":    func(p *Packet) { p.Src++ },
		"dst":    func(p *Packet) { p.Dst++ },
		"kind":   func(p *Packet) { p.Kind = KindAck },
		"epoch":  func(p *Packet) { p.Epoch++ },
		"msg id": func(p *Packet) { p.MsgID++ },
		"seq":    func(p *Packet) { p.Seq++ },
		"frag":   func(p *Packet) { p.FragIdx++ },
		"ack":    func(p *Packet) { p.AckSeq++ },
		"length": func(p *Packet) { p.Payload = p.Payload[:63] },
		"crc":    func(p *Packet) { p.CRC++ },
	} {
		pkt := modelPacket()
		mut(&pkt)
		if log(1, pkt, uint64(Deliver)) == base {
			t.Errorf("a packet's %s is not in its record", name)
		}
	}
	if log(2, modelPacket(), uint64(Deliver)) == base {
		t.Error("the time is not in the record")
	}
	if log(1, modelPacket(), uint64(Drop)) == base || log(1, modelPacket(), logDelivered) == base {
		t.Error("what happened to the packet is not in its record")
	}

	a, b := modelPacket(), modelPacket()
	b.Seq++
	var ab, ba Endpoint
	ab.logPacket(1, &a, logDelivered)
	ab.logPacket(1, &b, logDelivered)
	ba.logPacket(1, &b, logDelivered)
	ba.logPacket(1, &a, logDelivered)
	if ab.model == ba.model {
		t.Error("two same-instant records swapped fold to the same log")
	}
}

// TestModelLogAllocatesNothing: recording is a fold into a word the
// endpoint already has. (The packet path around it is held to zero by
// TestPacketTransitAllocatesNothing, the completion record by bcl's
// TestRoundTripAllocatesNothing.)
func TestModelLogAllocatesNothing(t *testing.T) {
	var ep Endpoint
	pkt := modelPacket()
	if allocs := testing.AllocsPerRun(1000, func() { ep.logPacket(1, &pkt, logDelivered) }); allocs != 0 {
		t.Fatalf("a packet record allocates %.2f objects, want 0", allocs)
	}
}

var modelSink uint64

// BenchmarkModelLogPacket times one packet record (six words, an xor, a
// multiply and a rotate each), each record waiting for the one before.
func BenchmarkModelLogPacket(b *testing.B) {
	var ep Endpoint
	pkt := modelPacket()
	for i := 0; i < b.N; i++ {
		ep.logPacket(sim.Time(i), &pkt, logDelivered)
	}
	modelSink = ep.model
}
