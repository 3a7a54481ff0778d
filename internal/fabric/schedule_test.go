package fabric

import (
	"bytes"
	"math/rand"
	"testing"

	"bcl/internal/sim"
)

// The five injector constructors a Rule replaced, kept as the model the
// schedule is checked against: same verdicts, same payload bytes, same
// RNG draws.

func refDropEvery(n int) Fault {
	count := 0
	return func(_ *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData {
			return Deliver
		}
		count++
		if count%n == 0 {
			return Drop
		}
		return Deliver
	}
}

func refCorruptEvery(n int) Fault {
	count := 0
	return func(_ *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData || len(pkt.Payload) == 0 {
			return Deliver
		}
		count++
		if count%n == 0 {
			pkt.Payload[0] ^= 0xff
		}
		return Deliver
	}
}

func refDuplicateEvery(n int) Fault {
	count := 0
	return func(_ *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData {
			return Deliver
		}
		count++
		if count%n == 0 {
			return Duplicate
		}
		return Deliver
	}
}

func refRandomCorrupt(p float64) Fault {
	return func(env *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData || len(pkt.Payload) == 0 {
			return Deliver
		}
		if env.Rand().Bool(p) {
			bit := env.Rand().Intn(len(pkt.Payload) * 8)
			pkt.Payload[bit/8] ^= 1 << (bit % 8)
		}
		return Deliver
	}
}

func refRandomLoss(p float64) Fault {
	return func(env *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData {
			return Deliver
		}
		if env.Rand().Bool(p) {
			return Drop
		}
		return Deliver
	}
}

// replayInjectors feeds one packet stream through each reference
// injector and through the one-rule schedule that replaces it, on two
// Envs of one seed. Each byte of prog is a packet: the top bit set
// makes it a data packet, else its kind is byte%numKinds; the low five
// bits are its payload length. every is the counted rules' n, p (in
// (0, 1]) the drawn rules' probability.
func replayInjectors(t *testing.T, seed uint64, every int, p float64, prog []byte) {
	t.Helper()
	for _, tc := range []struct {
		ref  Fault
		rule Rule
	}{
		{refDropEvery(every), Rule{Every: every, Do: Drop}},
		{refCorruptEvery(every), Rule{Every: every, Do: Corrupt}},
		{refDuplicateEvery(every), Rule{Every: every, Do: Duplicate}},
		{refRandomCorrupt(p), Rule{P: p, Do: Corrupt}},
		{refRandomLoss(p), Rule{P: p, Do: Drop}},
	} {
		refEnv, env := sim.NewEnv(seed), sim.NewEnv(seed)
		hooks, _ := Schedule{Rules: []Rule{tc.rule}}.PerRail(1, 1)
		for i, b := range prog {
			kind := KindData
			if b&0x80 == 0 {
				kind = PacketKind(b % byte(numKinds))
			}
			payload := make([]byte, b&31)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			want := &Packet{Kind: kind, Payload: payload}
			got := &Packet{Kind: kind, Payload: bytes.Clone(payload)}
			wv, gv := tc.ref(refEnv, want), hooks[0](env, got)
			if wv != gv || !bytes.Equal(want.Payload, got.Payload) {
				t.Fatalf("%+v, packet %d (%s, %d B): verdict %d payload % x, the injector gives %d % x",
					tc.rule, i, kind, len(payload), gv, got.Payload, wv, want.Payload)
			}
		}
		if w, g := refEnv.Rand().Uint64(), env.Rand().Uint64(); w != g {
			t.Fatalf("%+v over %d packets: next draw %#x, the injector's %#x", tc.rule, len(prog), g, w)
		}
		refEnv.Close()
		env.Close()
	}
}

func TestScheduleMatchesInjectors(t *testing.T) {
	replayInjectors(t, 1, 3, 0.5, []byte{0x80, 0x81, 0x01, 0x9f, 0x85, 0x80, 0x23, 0x90, 0x84})
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 300; i++ {
		prog := make([]byte, rng.Intn(400))
		rng.Read(prog)
		replayInjectors(t, rng.Uint64(), 1+rng.Intn(8), 1-rng.Float64(), prog)
	}
}

func FuzzScheduleMatchesInjectors(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(128), []byte{0x80, 0x81, 0x01, 0x9f, 0x85})
	f.Add(uint64(7), uint8(0), uint8(255), []byte{0x80, 0x80, 0x80, 0x00, 0x8f})
	f.Fuzz(func(t *testing.T, seed uint64, every, p uint8, prog []byte) {
		replayInjectors(t, seed, 1+int(every%8), (float64(p)+1)/256, prog)
	})
}
