package health_test

import (
	"bytes"
	"testing"

	"bcl/internal/bench"
	"bcl/internal/obs/health"
)

// FuzzDecodeBundle holds the bundle decoder to its contract on
// arbitrary bytes: DecodeBundle and Text never panic, and a bundle that
// decodes is a fixed point of its encoding — Encode, Decode and Encode
// again give the first Encode's bytes. Seeded with the healthwatch
// experiment's first seed-1 bundle and a truncated copy.
func FuzzDecodeBundle(f *testing.F) {
	seed := bench.HealthWatchBundle(1)
	if seed == nil {
		f.Fatal("healthwatch emitted no bundle at seed 1")
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"schema":"bcl-postmortem/v1","window_diff":{"counters":[{"value":1}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := health.DecodeBundle(data)
		if err != nil {
			return
		}
		_ = b.Text()
		first, err := b.Encode()
		if err != nil {
			t.Fatalf("a decoded bundle does not encode: %v", err)
		}
		again, err := health.DecodeBundle(first)
		if err != nil {
			t.Fatalf("an encoded bundle does not decode: %v\n%s", err, first)
		}
		second, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode -> decode -> encode moved the bytes:\n%s\n---\n%s", first, second)
		}
	})
}
