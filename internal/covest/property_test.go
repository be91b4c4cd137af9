package covest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mmwalign/internal/cmat"
	"mmwalign/internal/rng"
)

// quickConfig pins the property tests' input stream: testing/quick is
// time-seeded by default, which would make a failure unreproducible.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(11))}
}

// TestEstimatePSDClosureProperty: for arbitrary (finite, non-negative)
// energies and arbitrary unit beams, the estimator must always return a
// Hermitian PSD matrix and never error — a closure property the
// alignment loop depends on for robustness against adversarial or
// corrupted measurement streams.
func TestEstimatePSDClosureProperty(t *testing.T) {
	const n = 6
	est, err := NewEstimator(n, Options{Gamma: 1, MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, energiesRaw []float64) bool {
		src := rng.New(seed)
		if len(energiesRaw) == 0 {
			energiesRaw = []float64{1}
		}
		if len(energiesRaw) > 12 {
			energiesRaw = energiesRaw[:12]
		}
		obs := make([]Observation, len(energiesRaw))
		for i, e := range energiesRaw {
			if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				e = 1
			}
			e = math.Min(e, 1e6)
			v := cmat.Vector(src.ComplexNormalVec(n, 1)).Normalize()
			obs[i] = Observation{V: v, Energy: e}
		}
		q, _, err := est.Estimate(obs, nil)
		if err != nil {
			return false
		}
		if !q.IsHermitian(1e-8 * (1 + q.MaxAbs())) {
			return false
		}
		eig, err := cmat.EigHermitian(q)
		if err != nil {
			return false
		}
		for _, lam := range eig.Values {
			if lam < -1e-8*(1+math.Abs(eig.Values[0])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(40)); err != nil {
		t.Error(err)
	}
}
