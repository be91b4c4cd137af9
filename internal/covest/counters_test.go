package covest_test

import (
	"context"
	"testing"

	"mmwalign/internal/benchsuite"
	"mmwalign/internal/covest"
)

// TestCostCountersOnEstimateFixture pins the exact multiply-add
// counters on the canonical estimate (64 antennas, 56 observations,
// working dimension 56). The gradient count is a pure shape formula,
// dim(dim+1)/2·L per gradient; the λ count depends on how many
// eigenpairs each prox step kept, so it is pinned as a number. A change
// to either means the solver does different work.
func TestCostCountersOnEstimateFixture(t *testing.T) {
	est, obs := benchsuite.EstimateFixture()
	_, st, err := est.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	dim, l := st.SubspaceDim, len(obs)
	if want := st.GradientEvals * dim * (dim + 1) / 2 * l; st.GradientMadds != want {
		t.Errorf("GradientMadds = %d, want %d gradients × %d", st.GradientMadds, st.GradientEvals, want/st.GradientEvals)
	}
	const wantGradient, wantLambda = 2234400, 624064
	if st.GradientMadds != wantGradient {
		t.Errorf("GradientMadds = %d, want %d", st.GradientMadds, wantGradient)
	}
	if st.LambdaMadds != wantLambda {
		t.Errorf("LambdaMadds = %d, want %d", st.LambdaMadds, wantLambda)
	}
	// The dense product would cost dim²·L per λ evaluation; the factor
	// path must stay well below that.
	if dense := st.ObjectiveEvals * dim * dim * l; st.LambdaMadds*5 > dense {
		t.Errorf("LambdaMadds = %d, not 5× below the dense %d", st.LambdaMadds, dense)
	}

	// The setup of a fresh estimator: Gram-Schmidt over 56 distinct
	// beams (Σ_k 4·64·k = 394240), the reduction (56·56·64 = 200704),
	// the lift of the rank-3 factor the last prox step kept
	// (3·56·64 = 10752) and Estimate's dense result (3·64·65/2 = 6240).
	// Repeating the same observations reuses the carried subspace, so
	// only the lift and the dense result remain.
	const wantSetup, wantLift = 611936, 16992
	if st.SetupMadds != wantSetup {
		t.Errorf("SetupMadds = %d, want %d", st.SetupMadds, wantSetup)
	}
	_, again, err := est.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.SetupMadds != wantLift {
		t.Errorf("repeated call: SetupMadds = %d, want the lift and dense result's %d", again.SetupMadds, wantLift)
	}
	est.Reset()
	if _, afterReset, err := est.Estimate(obs, nil); err != nil || afterReset.SetupMadds != wantSetup {
		t.Errorf("after Reset: SetupMadds = %d (err %v), want %d", afterReset.SetupMadds, err, wantSetup)
	}
}

// TestFactorMatchesFullLiftOnEstimateFixture holds the canonical
// estimate's factor to the lift of every positive eigenpair of its final
// iterate (see LiftFidelity): 3 eigenpairs carry it, where the final
// iterate has 30 positive eigenvalues.
func TestFactorMatchesFullLiftOnEstimateFixture(t *testing.T) {
	est, obs := benchsuite.EstimateFixture()
	f, st, err := est.EstimateFactor(context.Background(), obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	left := covest.LiftFidelity(t, est, obs, f)
	if len(f.S) != 3 || st.Rank != 3 || left != 27 {
		t.Errorf("factor of %d eigenpairs (rank %d), %d positive eigenvalues left out; want 3, 3 and 27", len(f.S), st.Rank, left)
	}
}
