// Package channel implements the mmWave propagation models the paper
// evaluates on: a single-path channel and a clustered multipath channel
// with the NYC 28 GHz statistics of Akdeniz et al. (reference [3] of the
// paper), plus the supporting pieces — RX spatial covariance synthesis,
// independent per-measurement Rayleigh fading and Gauss-Markov channel
// aging.
//
// The physical model is double-directional:
//
//	H = √(M·N) · Σ_p √(P_p) · g_p · a_rx(AoA_p) · a_tx(AoD_p)ᴴ
//
// with unit-norm steering vectors, mean path power fractions P_p summing
// to 1, and small-scale coefficients g_p ~ CN(0,1) drawn independently
// for every measurement (the paper's assumption under Eq. 11). The
// √(M·N) factor restores the physical aperture gain that the unit-norm
// convention removes.
package channel

import (
	"fmt"
	"math"

	"mmwalign/internal/antenna"
	"mmwalign/internal/cmat"
	"mmwalign/internal/rng"
)

// Path is one propagation path (or subpath) with its mean power
// fraction and departure/arrival directions.
type Path struct {
	// Power is the mean power fraction of the path; all paths of a
	// channel sum to 1.
	Power float64
	// AoD is the angle of departure at the transmitter.
	AoD antenna.Direction
	// AoA is the angle of arrival at the receiver.
	AoA antenna.Direction
}

// Channel is a double-directional mmWave channel between a TX and an RX
// array.
type Channel struct {
	// TX and RX are the array geometries at each end.
	TX, RX antenna.Array
	// Paths are the propagation paths. Their powers sum to 1.
	Paths []Path

	// cached per-path steering vectors
	aTX, aRX []cmat.Vector
	// fading state for correlated evolution (nil until first use)
	gains []complex128
}

// New constructs a channel and precomputes the per-path steering vectors.
// Path powers are normalized to sum to 1. Returns an error if no paths
// are given or the total power is not positive.
func New(tx, rx antenna.Array, paths []Path) (*Channel, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("channel: no paths")
	}
	var total float64
	for _, p := range paths {
		if p.Power < 0 {
			return nil, fmt.Errorf("channel: negative path power %g", p.Power)
		}
		total += p.Power
	}
	if total <= 0 {
		return nil, fmt.Errorf("channel: total path power %g must be positive", total)
	}
	c := &Channel{TX: tx, RX: rx}
	c.Paths = make([]Path, len(paths))
	for i, p := range paths {
		p.Power /= total
		c.Paths[i] = p
		c.aTX = append(c.aTX, tx.Steering(p.AoD))
		c.aRX = append(c.aRX, rx.Steering(p.AoA))
	}
	return c, nil
}

// apertureGain is the √(M·N) factor restoring physical array gain.
func (c *Channel) apertureGain() float64 {
	return math.Sqrt(float64(c.TX.Elements() * c.RX.Elements()))
}

// Sample draws an instantaneous channel matrix H with fresh iid CN(0,1)
// small-scale coefficients — the "independently faded across
// measurements" regime of the paper.
func (c *Channel) Sample(src *rng.Source) *cmat.Matrix {
	h := cmat.New(c.RX.Elements(), c.TX.Elements())
	ap := complex(c.apertureGain(), 0)
	for i, p := range c.Paths {
		g := src.ComplexNormal(1) * complex(math.Sqrt(p.Power), 0) * ap
		h.AddInPlace(g, c.aRX[i].Outer(c.aTX[i]))
	}
	return h
}

// SampleResponse draws vᴴ·H·u for a fresh fading realization without
// forming H: vᴴHu = √(M·N)·Σ_p √(P_p)·g_p·(vᴴa_rx)·(a_txᴴu). It is the
// fast path used by the sounder, O(paths·(M+N)) instead of O(N·M·paths).
// Statistically identical to v.Dot(Sample(src).MulVec(u)).
func (c *Channel) SampleResponse(src *rng.Source, u, v cmat.Vector) complex128 {
	var out complex128
	ap := complex(c.apertureGain(), 0)
	for i, p := range c.Paths {
		g := src.ComplexNormal(1) * complex(math.Sqrt(p.Power), 0)
		out += g * v.Dot(c.aRX[i]) * c.aTX[i].Dot(u)
	}
	return out * ap
}

// ResponseSampler precomputes the deterministic per-path couplings
// √(M·N)·√(P_p)·(vᴴa_rx)·(a_txᴴu) for a fixed beam pair and returns a
// closure drawing iid realizations of vᴴHu. Use when the same pair is
// sounded across several snapshots.
func (c *Channel) ResponseSampler(u, v cmat.Vector) func(*rng.Source) complex128 {
	coef := make([]complex128, len(c.Paths))
	ap := complex(c.apertureGain(), 0)
	for i, p := range c.Paths {
		coef[i] = ap * complex(math.Sqrt(p.Power), 0) * v.Dot(c.aRX[i]) * c.aTX[i].Dot(u)
	}
	return func(src *rng.Source) complex128 {
		var out complex128
		for _, cf := range coef {
			out += src.ComplexNormal(1) * cf
		}
		return out
	}
}

// SampleCorrelated evolves the small-scale coefficients as a Gauss-Markov
// process with correlation rho per call (rho=0 reduces to Sample, rho=1
// freezes the channel). Used by the MAC simulations to model channel
// aging between re-alignment rounds.
func (c *Channel) SampleCorrelated(src *rng.Source, rho float64) *cmat.Matrix {
	if c.gains == nil {
		c.gains = make([]complex128, len(c.Paths))
		for i := range c.gains {
			c.gains[i] = src.ComplexNormal(1)
		}
	} else {
		innov := math.Sqrt(1 - rho*rho)
		for i := range c.gains {
			c.gains[i] = complex(rho, 0)*c.gains[i] + complex(innov, 0)*src.ComplexNormal(1)
		}
	}
	h := cmat.New(c.RX.Elements(), c.TX.Elements())
	ap := complex(c.apertureGain(), 0)
	for i, p := range c.Paths {
		g := c.gains[i] * complex(math.Sqrt(p.Power), 0) * ap
		h.AddInPlace(g, c.aRX[i].Outer(c.aTX[i]))
	}
	return h
}

// MeanPairGain returns the expected beamforming power gain
// E|vᴴ·H·u|² = M·N·Σ_p P_p·|a_tx(AoD_p)ᴴu|²·|vᴴa_rx(AoA_p)|² for unit
// beamforming vectors u (TX) and v (RX). This is the ground-truth metric
// the loss evaluation uses; strategies never see it.
func (c *Channel) MeanPairGain(u, v cmat.Vector) float64 {
	mn := float64(c.TX.Elements() * c.RX.Elements())
	var sum float64
	for i, p := range c.Paths {
		gt := c.aTX[i].Dot(u)
		gr := v.Dot(c.aRX[i])
		sum += p.Power * abs2(gt) * abs2(gr)
	}
	return mn * sum
}

// RXCovariance returns the receive-side spatial covariance conditioned on
// the TX beam u: Q_u = E[(Hu)(Hu)ᴴ] = M·N·Σ_p P_p·|a_txᴴu|²·a_rx·a_rxᴴ.
func (c *Channel) RXCovariance(u cmat.Vector) *cmat.Matrix {
	n := c.RX.Elements()
	mn := float64(c.TX.Elements()) * float64(n)
	q := cmat.New(n, n)
	for i, p := range c.Paths {
		w := mn * p.Power * abs2(c.aTX[i].Dot(u))
		if w == 0 {
			continue
		}
		q.AddInPlace(complex(w, 0), c.aRX[i].Outer(c.aRX[i]))
	}
	return q
}

// RXCovarianceIsotropic returns the receive-side spatial covariance
// averaged over an isotropic random unit-norm TX beam
// (E|a_txᴴu|² = 1/M): Q = N·Σ_p P_p·a_rx·a_rxᴴ. This is the matrix "Q"
// of the paper's system model, whose low rank the estimator exploits.
func (c *Channel) RXCovarianceIsotropic() *cmat.Matrix {
	n := c.RX.Elements()
	q := cmat.New(n, n)
	for i, p := range c.Paths {
		q.AddInPlace(complex(float64(n)*p.Power, 0), c.aRX[i].Outer(c.aRX[i]))
	}
	return q
}

// Drift perturbs every path's arrival and departure angles by a Gaussian
// random walk with standard deviation sigmaRad (radians) per call,
// clamping to the visible hemisphere, and rebuilds the cached steering
// vectors. It models the slow geometric evolution of the channel between
// MAC superframes that forces periodic re-alignment; the spatial
// covariance changes while total power is preserved.
func (c *Channel) Drift(src *rng.Source, sigmaRad float64) {
	clamp := func(a, lim float64) float64 {
		if a > lim {
			return lim
		}
		if a < -lim {
			return -lim
		}
		return a
	}
	for i := range c.Paths {
		p := &c.Paths[i]
		p.AoA.Az = clamp(p.AoA.Az+src.NormalScaled(0, sigmaRad), math.Pi/2)
		p.AoA.El = clamp(p.AoA.El+src.NormalScaled(0, sigmaRad), math.Pi/4)
		p.AoD.Az = clamp(p.AoD.Az+src.NormalScaled(0, sigmaRad), math.Pi/2)
		p.AoD.El = clamp(p.AoD.El+src.NormalScaled(0, sigmaRad), math.Pi/4)
		c.aTX[i] = c.TX.Steering(p.AoD)
		c.aRX[i] = c.RX.Steering(p.AoA)
	}
}

// Rotate applies a deterministic bearing change to every path: dAz and
// dEl (radians) shift the arrival and departure angles in opposite
// senses, modeling the geometric rotation of the BS→UE line as the UE
// moves laterally — when the terminal shifts one way, arrivals swing
// with the bearing while departures swing against it. Angles clamp to
// the same visible-hemisphere limits as Drift and the cached steering
// vectors are rebuilt. Unlike Drift this consumes no randomness: the
// trajectory engine derives (dAz, dEl) from UE kinematics so identical
// motion yields identical channels regardless of scheme or worker
// interleaving.
func (c *Channel) Rotate(dAz, dEl float64) {
	clamp := func(a, lim float64) float64 {
		if a > lim {
			return lim
		}
		if a < -lim {
			return -lim
		}
		return a
	}
	for i := range c.Paths {
		p := &c.Paths[i]
		p.AoA.Az = clamp(p.AoA.Az+dAz, math.Pi/2)
		p.AoA.El = clamp(p.AoA.El+dEl, math.Pi/4)
		p.AoD.Az = clamp(p.AoD.Az-dAz, math.Pi/2)
		p.AoD.El = clamp(p.AoD.El-dEl, math.Pi/4)
		c.aTX[i] = c.TX.Steering(p.AoD)
		c.aRX[i] = c.RX.Steering(p.AoA)
	}
}

// DominantPaths returns the indices of paths carrying at least frac of
// the total power, strongest first. Useful for characterizing how many
// clusters dominate a drop.
func (c *Channel) DominantPaths(frac float64) []int {
	var idx []int
	for i, p := range c.Paths {
		if p.Power >= frac {
			idx = append(idx, i)
		}
	}
	// Insertion sort by descending power; path counts are tiny.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && c.Paths[idx[j]].Power > c.Paths[idx[j-1]].Power; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

func abs2(z complex128) float64 {
	return real(z)*real(z) + imag(z)*imag(z)
}

// DBToLinear converts decibels to a linear power ratio.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to decibels; zero or negative
// input returns -Inf.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}
