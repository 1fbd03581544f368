// Package rng provides a small, deterministic, allocation-free pseudo-random
// number generator used throughout the simulator.
//
// We deliberately do not use math/rand: the sequence produced by math/rand's
// default source is not guaranteed to be stable across Go releases, and the
// topology generator, the forwarding plane, and the measurement campaigns all
// rely on bit-for-bit reproducible randomness so that experiments can be
// re-run and compared. The generator implemented here is xoshiro256**, seeded
// through SplitMix64 as recommended by its authors.
package rng

import "math"

// Rand is a deterministic xoshiro256** generator. The zero value is not
// valid; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed. Two generators
// constructed with the same seed produce identical sequences on every
// platform and Go release.
func New(seed uint64) *Rand {
	r := &Rand{}
	// SplitMix64 expansion of the seed into the 256-bit state. xoshiro
	// requires a state that is not all zero; SplitMix64 guarantees that.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		r.s[i] = Mix64(x)
	}
	return r
}

// Mix64 is SplitMix64's finaliser: the simulator's standard cheap,
// stateless hash for deterministic per-entity draws (a pure function of its
// input, so the draw never depends on call order or goroutine schedule).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// StrHash folds a string into the running hash h, one Mix64 round per byte.
func StrHash(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = Mix64(h ^ uint64(s[i]))
	}
	return h
}

// Unit maps a hash onto [0, 1) through its top 53 bits.
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Fork derives an independent generator from the current one. It is used to
// give each subsystem (topology generation, probing, response jitter, ...)
// its own stream so that adding draws in one subsystem does not perturb the
// others.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// simple rejection keeps the distribution exactly uniform.
	max := uint64(n)
	limit := (math.MaxUint64 / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return Unit(r.Uint64())
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// IntRange returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// Pareto returns a Pareto(alpha)-distributed value with the given minimum.
// Heavy-tailed draws model quantities such as customer-cone sizes and
// per-peer interconnection counts, which are strongly skewed in practice.
func (r *Rand) Pareto(min, alpha float64) float64 {
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return min / math.Pow(u, 1/alpha)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly selected element of xs. It panics on an empty
// slice.
func Pick[T any](r *Rand, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// Sample returns k distinct elements drawn uniformly from xs (or all of xs if
// k >= len(xs)). The input slice is not modified.
func Sample[T any](r *Rand, xs []T, k int) []T {
	if k >= len(xs) {
		out := make([]T, len(xs))
		copy(out, xs)
		return out
	}
	// Reservoir sampling keeps the draw uniform without shuffling xs.
	out := make([]T, k)
	copy(out, xs[:k])
	for i := k; i < len(xs); i++ {
		j := r.Intn(i + 1)
		if j < k {
			out[j] = xs[i]
		}
	}
	return out
}

// WeightedPick returns an index in [0, len(weights)) selected with
// probability proportional to weights[i]. Non-positive weights are treated as
// zero. It panics if the total weight is zero.
func (r *Rand) WeightedPick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: WeightedPick with zero total weight")
	}
	target := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		target -= w
		if target < 0 {
			return i
		}
	}
	return len(weights) - 1
}
