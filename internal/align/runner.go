package align

import (
	"context"
	"fmt"
	"math"

	"mmwalign/internal/obs"
)

// Trajectory records how the quality of the best pair found evolves as a
// strategy spends its measurement budget. LossDB[l] is the paper's SNR
// loss metric (Eq. 31, reported as a non-negative dB degradation) of the
// best-measured pair after l+1 measurements; positions before any
// codebook pair has been sounded hold +Inf.
type Trajectory struct {
	// Scheme is the strategy name.
	Scheme string
	// OptPair and OptSNR are the oracle optimum (Eq. 2).
	OptPair Pair
	// OptSNR is the true expected SNR of the optimal pair.
	OptSNR float64
	// LossDB[l] is the SNR loss after l+1 measurements.
	LossDB []float64
	// BestPair is the pair the strategy would report at the end of the
	// run (argmax of measured SNR, Eq. 30).
	BestPair Pair
	// BestMeasuredSNR is the measured SNR estimate that made BestPair
	// win — the quantity a receiver can actually report to the MAC.
	BestMeasuredSNR float64
	// BestTrueSNR is the ground-truth SNR of BestPair.
	BestTrueSNR float64
}

// SearchRate converts a measurement count into the paper's search-rate
// metric L/T for this trajectory's environment size.
func (tr Trajectory) SearchRate(l int, totalPairs int) float64 {
	return float64(l) / float64(totalPairs)
}

// FinalLossDB returns the loss after the full budget, or +Inf for an
// empty trajectory.
func (tr Trajectory) FinalLossDB() float64 {
	if len(tr.LossDB) == 0 {
		return math.Inf(1)
	}
	return tr.LossDB[len(tr.LossDB)-1]
}

// FirstWithin returns the smallest measurement count whose loss is at or
// below target (dB), or -1 if the trajectory never reaches it. This is
// the first-passage statistic behind the cost-efficiency figures.
func (tr Trajectory) FirstWithin(targetDB float64) int {
	for l, loss := range tr.LossDB {
		if loss <= targetDB {
			return l + 1
		}
	}
	return -1
}

// EvaluateContext runs a strategy once and scores its trajectory
// against the oracle optimum. The strategy selects its answer from
// measured SNR estimates only; the oracle and true SNRs are used purely
// for scoring. The run stops cleanly at the strategy's next loop
// boundary when ctx is cancelled or its deadline passes, returning the
// context's error.
func EvaluateContext(ctx context.Context, env *Env, s Strategy, budget int) (Trajectory, error) {
	rec := obs.From(ctx)
	oracleSpan := rec.Phase("oracle").Start()
	optPair, optSNR := Oracle(env)
	oracleSpan.End()
	if err := ctx.Err(); err != nil {
		return Trajectory{}, err
	}
	ms, err := s.Run(ctx, env, budget)
	if err != nil {
		if ctx.Err() != nil {
			// Cancellation is not a strategy failure: surface the bare
			// context error so callers can match errors.Is(err,
			// context.Canceled) across every layer.
			return Trajectory{}, err
		}
		return Trajectory{}, fmt.Errorf("align: %s run: %w", s.Name(), err)
	}

	tr := Trajectory{
		Scheme:  s.Name(),
		OptPair: optPair,
		OptSNR:  optSNR,
		LossDB:  make([]float64, 0, len(ms)),
	}
	bestEst := math.Inf(-1)
	haveBest := false
	for _, m := range ms {
		// Sector soundings (hierarchical descent) occupy budget but are
		// not selectable pairs.
		if m.TXBeam >= 0 && m.RXBeam >= 0 {
			if est := m.SNREstimate(); est > bestEst || !haveBest {
				bestEst = est
				tr.BestPair = Pair{TX: m.TXBeam, RX: m.RXBeam}
				tr.BestMeasuredSNR = est
				tr.BestTrueSNR = TrueSNROf(env, tr.BestPair)
				haveBest = true
			}
		}
		if !haveBest {
			tr.LossDB = append(tr.LossDB, math.Inf(1))
			continue
		}
		tr.LossDB = append(tr.LossDB, lossDB(tr.BestTrueSNR, optSNR))
	}
	if !haveBest {
		return tr, fmt.Errorf("align: %s measured no codebook pairs", s.Name())
	}
	rec.Counter("alignment_runs").Add(1)
	rec.Counter("pairs_measured").Add(int64(len(ms)))
	return tr, nil
}

// lossDB computes the non-negative SNR degradation of snr vs opt in dB.
func lossDB(snr, opt float64) float64 {
	if snr <= 0 {
		return math.Inf(1)
	}
	l := 10 * math.Log10(opt/snr)
	if l < 0 {
		return 0 // the "best" pair can only tie the oracle, but guard rounding
	}
	return l
}
