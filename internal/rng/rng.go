// Package rng provides the deterministic pseudo-random number generation
// substrate used by every stochastic component of BayesSuite-Go: the
// samplers, the synthetic dataset generators, and the hardware trace
// generator.
//
// The generator is xoshiro256**, seeded through splitmix64 so that any
// 64-bit seed (including 0) yields a well-mixed state. Determinism matters
// here: every experiment in the paper harness is reproducible from a fixed
// seed, and chains derive independent streams by jumping the seed.
package rng

import "math"

// RNG is a xoshiro256** pseudo-random number generator. It is not safe for
// concurrent use; give each goroutine (each Markov chain) its own stream
// via NewStream.
type RNG struct {
	s [4]uint64

	// cached spare normal variate for the polar Box-Muller method.
	hasSpare bool
	spare    float64
}

// splitmix64 advances *x and returns the next splitmix64 output. It is the
// recommended seeding procedure for the xoshiro family.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// NewStream returns a generator for stream index i derived from seed. Two
// distinct (seed, i) pairs produce statistically independent streams; this
// is how parallel chains get their own randomness.
func NewStream(seed uint64, i int) *RNG {
	// Mix the stream index into the seed through splitmix64 twice so that
	// consecutive indices land far apart in state space.
	sm := seed ^ (0x9e3779b97f4a7c15 * (uint64(i) + 1))
	sm = splitmix64(&sm)
	return New(sm)
}

// State is a snapshot of a generator's complete internal state: the four
// xoshiro256** words plus the cached Box-Muller spare. Capturing and
// restoring a State mid-stream is exact — the restored generator produces
// bit-identical output to the original from that point on, which is what
// makes checkpoint/resume of a Markov chain reproducible draw-for-draw.
type State struct {
	S        [4]uint64
	HasSpare bool
	Spare    float64
}

// State returns a snapshot of the generator's current state.
func (r *RNG) State() State {
	return State{S: r.s, HasSpare: r.hasSpare, Spare: r.spare}
}

// Restore rewinds (or fast-forwards) the generator to a previously
// captured state. The generator's subsequent output is bit-identical to
// the one the state was captured from.
func (r *RNG) Restore(st State) {
	r.s = st.S
	r.hasSpare = st.HasSpare
	r.spare = st.Spare
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64OO returns a uniform value in the open interval (0, 1), which is
// what log/logit transforms need to stay finite.
func (r *RNG) Float64OO() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, un)
		}
	}
	return int(hi)
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Norm returns a standard normal variate using the polar (Marsaglia)
// Box-Muller method with one cached spare.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.hasSpare = true
			return u * f
		}
	}
}

// Exp returns an Exponential(1) variate.
func (r *RNG) Exp() float64 {
	return -math.Log(r.Float64OO())
}

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia-Tsang method
// (with the Johnk-style boost for shape < 1). Scale by the caller's rate or
// scale parameter as appropriate.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64OO()
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Norm()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64OO()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a Beta(a, b) variate.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	return x / (x + y)
}

// Poisson returns a Poisson(lambda) variate. For small lambda it uses
// Knuth's product method; for large lambda the PTRS transformed-rejection
// method would be ideal, but a normal approximation with rounding is
// adequate for data synthesis and keeps the code simple and branch-light.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation with continuity correction, clamped at zero.
	x := lambda + math.Sqrt(lambda)*r.Norm()
	if x < 0 {
		return 0
	}
	return int(x + 0.5)
}

// Binomial returns a Binomial(n, p) variate.
func (r *RNG) Binomial(n int, p float64) int {
	if p <= 0 || n <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n < 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	// Normal approximation for large n; fine for data synthesis.
	mu := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	x := mu + sd*r.Norm()
	if x < 0 {
		return 0
	}
	if x > float64(n) {
		return n
	}
	return int(x + 0.5)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }
