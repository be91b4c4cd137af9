package experiment

import (
	"time"

	"mmwalign/internal/cmat"
	"mmwalign/internal/meas"
	"mmwalign/internal/obs"
	"mmwalign/internal/sweep"
)

// obsProber times pair measurements and counts them. It is purely
// observational — measurements pass through untouched — so wrapping it
// around any deterministic prober preserves the engine's worker-count
// invariance and the byte-identity of figure CSVs.
type obsProber struct {
	meas.Prober
	phase *obs.Phase
	count *obs.Counter
}

// Measure implements meas.Prober with sounding-phase timing.
func (p *obsProber) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	sp := p.phase.Start()
	m := p.Prober.Measure(txBeam, rxBeam, u, v)
	sp.End()
	p.count.Add(1)
	return m
}

// buildManifest assembles the run manifest for a completed figure: the
// sweep's manifest core (config, seed, instrumentation, resume and
// retry evidence) plus the figure's failure summary. The CLI layer
// stamps Version/CreatedAt before persisting.
func buildManifest(cfg Config, fig *Figure, rec *obs.Recorder, elapsed time.Duration, stats *sweep.Stats) *obs.Manifest {
	m := stats.Manifest(fig.ID, fig.Title, cfg.Seed, cfg, rec, elapsed)
	if fig.Failures != nil {
		fs := &obs.FailureSummary{
			FailedDrops: fig.Failures.FailedDrops,
			TotalDrops:  fig.Failures.TotalDrops,
		}
		for _, f := range fig.Failures.Failures {
			errText := "unknown failure"
			if f.Err != nil {
				errText = f.Err.Error()
			}
			fs.Cells = append(fs.Cells, obs.FailureCell{Drop: f.Drop, Scheme: f.Scheme, Attempts: f.Attempts, Error: errText})
		}
		m.Failures = fs
	}
	return m
}
