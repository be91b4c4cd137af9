// Package rng provides the deterministic random variates used throughout
// the beam-alignment simulator: complex circular Gaussians, Poisson,
// Laplace and lognormal draws, plus splittable
// named sub-streams so that independent parts of an experiment (channel
// generation, fading, measurement noise, strategy randomness) consume
// independent randomness and results stay reproducible when one consumer
// changes how much randomness it draws.
package rng

import (
	"hash/fnv"
	"math"
	"math/cmplx"
	"math/rand"
)

// Source is a deterministic random stream. The zero value is not usable;
// construct with New or Split.
type Source struct {
	r    *rand.Rand
	seed int64
}

// New returns a stream seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed)), seed: seed}
}

// Split derives an independent child stream identified by name.
//
// The split is a PURE function of (parent seed, name): it neither
// consumes parent randomness nor depends on how often or in what order
// other splits were taken. This has two load-bearing consequences:
// repeated Split calls with the same name return identical streams
// (which is how every scheme in an experiment drop sees the same
// channel realization), and splits may be taken concurrently from
// multiple goroutines without synchronization or nondeterminism.
func (s *Source) Split(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(mix(s.seed, h.Sum64()))
}

// SplitIndexed derives an independent child stream for the i-th element
// of a family (e.g. one stream per simulation drop). Pure in the same
// sense as Split.
func (s *Source) SplitIndexed(name string, i int) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	_, _ = h.Write([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
	return New(mix(s.seed, h.Sum64()))
}

// mix combines a parent seed with a name hash through a splitmix64
// finalizer so child seeds are well spread even for adjacent inputs.
func mix(seed int64, h uint64) int64 {
	z := uint64(seed) ^ h
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0, n). Panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements via swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Normal returns a standard normal draw.
func (s *Source) Normal() float64 { return s.r.NormFloat64() }

// NormalScaled returns a N(mu, sigma²) draw.
func (s *Source) NormalScaled(mu, sigma float64) float64 {
	return mu + sigma*s.r.NormFloat64()
}

// ComplexNormal returns a circularly-symmetric complex Gaussian draw with
// E|z|² = variance (i.e. CN(0, variance)).
func (s *Source) ComplexNormal(variance float64) complex128 {
	sd := math.Sqrt(variance / 2)
	return complex(sd*s.r.NormFloat64(), sd*s.r.NormFloat64())
}

// ComplexNormalVec fills a length-n vector with iid CN(0, variance)
// entries.
func (s *Source) ComplexNormalVec(n int, variance float64) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = s.ComplexNormal(variance)
	}
	return v
}

// UnitPhase returns e^{iθ} with θ uniform on [0, 2π).
func (s *Source) UnitPhase() complex128 {
	return cmplx.Exp(complex(0, 2*math.Pi*s.r.Float64()))
}

// Poisson returns a Poisson(lambda) draw. Uses Knuth's product method,
// which is exact and fast for the small rates used by the cluster-count
// model. Panics if lambda < 0.
func (s *Source) Poisson(lambda float64) int {
	if lambda < 0 {
		panic("rng: poisson needs lambda >= 0")
	}
	if lambda == 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large rates; adequate for simulation
		// parameters far outside the paper's regime.
		v := s.NormalScaled(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Laplace returns a Laplace(0, b) draw (variance 2b²). Used for subpath
// angular offsets around a cluster center, per the 3GPP/NYC cluster
// models. Panics if b <= 0.
func (s *Source) Laplace(b float64) float64 {
	if b <= 0 {
		panic("rng: laplace needs b > 0")
	}
	u := s.r.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// Lognormal returns exp(N(mu, sigma²)).
func (s *Source) Lognormal(mu, sigma float64) float64 {
	return math.Exp(s.NormalScaled(mu, sigma))
}

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	return s.r.Float64() < p
}
