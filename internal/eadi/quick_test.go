package eadi

import (
	"bytes"
	"testing"
	"testing/quick"

	"bcl/internal/sim"
)

// Property: whatever permutation of tags is sent, receives posted in a
// different permutation still match each message to the right tag with
// intact payloads — eager and rendezvous mixed.
func TestQuickMatchingPermutation(t *testing.T) {
	f := func(seed uint64, order []uint8) bool {
		n := len(order)
		if n == 0 || n > 6 {
			return true
		}
		c, devs := world(t, seed, 2, []int{0, 1})
		a, b := devs[0], devs[1]
		// Message i: tag i, size alternates eager/rendezvous.
		payloads := make([][]byte, n)
		for i := range payloads {
			size := 100 + i*37
			if i%2 == 1 {
				size = EagerLimit + 3000 + i*1000 // rendezvous
			}
			payloads[i] = make([]byte, size)
			c.Env.Rand().Fill(payloads[i])
		}
		c.Env.Go("send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				va := a.Port().Process().Space.Alloc(len(payloads[i]))
				a.Port().Process().Space.Write(va, payloads[i])
				if err := a.Send(p, 1, 0, i, va, len(payloads[i])); err != nil {
					t.Error(err)
					return
				}
			}
		})
		ok := true
		c.Env.Go("recv", func(p *sim.Proc) {
			// Receive in the permuted order.
			seen := make(map[int]bool)
			var seq []int
			for _, o := range order {
				tag := int(o) % n
				if !seen[tag] {
					seen[tag] = true
					seq = append(seq, tag)
				}
			}
			for tag := 0; tag < n; tag++ {
				if !seen[tag] {
					seq = append(seq, tag)
				}
			}
			for _, tag := range seq {
				buf := b.Port().Process().Space.Alloc(len(payloads[tag]) + 1)
				st, err := b.Recv(p, 0, 0, tag, buf, len(payloads[tag]))
				if err != nil || st.Tag != tag || st.Len != len(payloads[tag]) {
					ok = false
					return
				}
				got, _ := b.Port().Process().Space.Read(buf, st.Len)
				if !bytes.Equal(got, payloads[tag]) {
					ok = false
					return
				}
			}
		})
		c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
