package align

import (
	"mmwalign/internal/covest"
	"mmwalign/internal/obs"
)

// SolveSample flattens one covest.Stats into the observability layer's
// solver sample, so the run manifest can aggregate proximal iterations,
// eigendecomposition counts, divergence restarts and guardrail
// recoveries across every estimation of a run.
func SolveSample(st covest.Stats) obs.SolveSample {
	return obs.SolveSample{
		Iters:          st.Iters,
		EigenDecomps:   st.EigenDecomps,
		EigenIters:     st.EigenIters,
		ObjectiveEvals: st.ObjectiveEvals,
		GradientEvals:  st.GradientEvals,
		Backtracks:     st.Backtracks,
		LambdaMadds:    st.LambdaMadds,
		GradientMadds:  st.GradientMadds,
		SetupMadds:     st.SetupMadds,
		Restarts:       st.Diagnostics.DivergenceRestarts,
		Rank:           st.Rank,
		SubspaceDim:    st.SubspaceDim,
		Recovered:      st.Diagnostics.Recovered,
		Degraded:       st.Diagnostics.Degraded(),
	}
}
