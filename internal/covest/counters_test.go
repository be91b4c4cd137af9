package covest_test

import (
	"testing"

	"mmwalign/internal/benchsuite"
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
	// beams (Σ_k 4·64·k = 394240), the reduction (56·56·64 = 200704)
	// and the lift of the 30 positive eigenvalues of the final iterate
	// (30·(56·64 + 64·65/2) = 169920). Repeating the same observations
	// reuses the carried subspace, so only the lift remains.
	const wantSetup, wantLift = 764864, 169920
	if st.SetupMadds != wantSetup {
		t.Errorf("SetupMadds = %d, want %d", st.SetupMadds, wantSetup)
	}
	_, again, err := est.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.SetupMadds != wantLift {
		t.Errorf("repeated call: SetupMadds = %d, want the lift's %d", again.SetupMadds, wantLift)
	}
	est.Reset()
	if _, afterReset, err := est.Estimate(obs, nil); err != nil || afterReset.SetupMadds != wantSetup {
		t.Errorf("after Reset: SetupMadds = %d (err %v), want %d", afterReset.SetupMadds, err, wantSetup)
	}
}
