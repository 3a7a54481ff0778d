package sim

// Rand is a small deterministic pseudo-random source (splitmix64 →
// xoshiro256**). The simulation avoids math/rand so that the stream is
// stable across Go releases; reproducibility of event traces depends
// on it.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via splitmix64.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	for i := range r.s {
		r.s[i] = SplitmixNext(&seed)
	}
	return r
}

// Splitmix64 is the stateless splitmix64 finalizer: a high-quality
// 64-bit mix usable as a pure hash. Models use it for decisions that
// must depend only on an identifier (e.g. "does message m get a
// reply?") so the outcome is invariant under any execution order.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SplitmixNext advances the splitmix64 stream whose state is *s and
// returns its next value. Harnesses give each seeded schedule or
// workload generator a stream of its own, so drawing from it never
// perturbs the environment's Rand.
func SplitmixNext(s *uint64) uint64 {
	v := Splitmix64(*s)
	*s += 0x9e3779b97f4a7c15
	return v
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Fill fills b with random bytes.
func (r *Rand) Fill(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
