package experiment

import (
	"encoding/json"
	"fmt"
	"math"

	"mmwalign/internal/align"
	"mmwalign/internal/journal"
	"mmwalign/internal/sweep"
)

// CanonicalHash returns the canonical hash of everything in the config
// that determines figure output: the fully defaulted config with the
// runtime-only knobs zeroed (Workers, CrossCellBatch, MaxFailedDrops,
// MaxRetries, RetryBackoff — none of which can change a successfully
// computed cell). Two configs with equal hashes produce bit-identical cells, so
// the hash is the resume-safety check a journal header carries.
// WrapSounder is excluded from the config JSON entirely; an injection
// hook that alters measurements makes a journal as stale as a config
// change, which resume tooling cannot detect — don't checkpoint
// injected runs you intend to resume cleanly.
func (c Config) CanonicalHash() string {
	c = c.WithDefaults()
	c.Workers = 0
	c.CrossCellBatch = false
	c.MaxFailedDrops = 0
	c.MaxRetries = 0
	c.RetryBackoff = 0
	c.Journal = nil
	return sweep.Hash(c)
}

// ConfigForFigure resolves the figure-specific config exactly as
// GenerateContext would run it (Multipath forced by the figure number,
// all defaults applied) plus the figure identifier. Checkpoint tooling
// uses it to compute the journal header — hash, figure, shape — before
// the run starts.
func ConfigForFigure(figure int, cfg Config) (Config, string, error) {
	switch figure {
	case 5:
		cfg.Multipath = false
	case 6:
		cfg.Multipath = true
	case 7:
		cfg.Multipath = false
	case 8:
		cfg.Multipath = true
	default:
		return Config{}, "", fmt.Errorf("experiment: the paper has figures 5-8, not %d", figure)
	}
	rc := cfg.WithDefaults()
	if err := rc.checkSchemes(); err != nil {
		return Config{}, "", err
	}
	return rc, fmt.Sprintf("fig%d", figure), nil
}

// JournalHeader builds the journal header for resuming the given
// figure run: canonical config hash, figure identity, and the run
// shape for inspection tooling.
func JournalHeader(figure int, cfg Config) (journal.Header, error) {
	rc, figID, err := ConfigForFigure(figure, cfg)
	if err != nil {
		return journal.Header{}, err
	}
	return sweep.Header(figID, rc.CanonicalHash(), rc.Seed, rc.Drops, rc.Schemes), nil
}

// trajRecord is the journal payload of one completed cell. Every
// float64 is stored as its IEEE-754 bit pattern (a uint64 survives a
// JSON round trip exactly, a decimal float need not), which is what
// makes a resumed run byte-identical to an uninterrupted one — and
// what lets ±Inf sentinels in LossDB (no pair sounded yet) round-trip
// at all, since encoding/json rejects them as numbers.
type trajRecord struct {
	Scheme       string   `json:"scheme"`
	OptTX        int      `json:"opt_tx"`
	OptRX        int      `json:"opt_rx"`
	OptSNRBits   uint64   `json:"opt_snr_bits"`
	LossDBBits   []uint64 `json:"loss_db_bits"`
	BestTX       int      `json:"best_tx"`
	BestRX       int      `json:"best_rx"`
	BestMeasBits uint64   `json:"best_meas_bits"`
	BestTrueBits uint64   `json:"best_true_bits"`
}

// encodeTrajectory serializes a trajectory for the journal.
func encodeTrajectory(tr align.Trajectory) (json.RawMessage, error) {
	rec := trajRecord{
		Scheme:       tr.Scheme,
		OptTX:        tr.OptPair.TX,
		OptRX:        tr.OptPair.RX,
		OptSNRBits:   math.Float64bits(tr.OptSNR),
		LossDBBits:   make([]uint64, len(tr.LossDB)),
		BestTX:       tr.BestPair.TX,
		BestRX:       tr.BestPair.RX,
		BestMeasBits: math.Float64bits(tr.BestMeasuredSNR),
		BestTrueBits: math.Float64bits(tr.BestTrueSNR),
	}
	for i, l := range tr.LossDB {
		rec.LossDBBits[i] = math.Float64bits(l)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("experiment: encoding trajectory: %w", err)
	}
	return data, nil
}

// decodeTrajectory reverses encodeTrajectory, restoring every float
// bit-for-bit.
func decodeTrajectory(data json.RawMessage) (align.Trajectory, error) {
	var rec trajRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return align.Trajectory{}, fmt.Errorf("experiment: decoding journaled trajectory: %w", err)
	}
	tr := align.Trajectory{
		Scheme:          rec.Scheme,
		OptPair:         align.Pair{TX: rec.OptTX, RX: rec.OptRX},
		OptSNR:          math.Float64frombits(rec.OptSNRBits),
		LossDB:          make([]float64, len(rec.LossDBBits)),
		BestPair:        align.Pair{TX: rec.BestTX, RX: rec.BestRX},
		BestMeasuredSNR: math.Float64frombits(rec.BestMeasBits),
		BestTrueSNR:     math.Float64frombits(rec.BestTrueBits),
	}
	for i, b := range rec.LossDBBits {
		tr.LossDB[i] = math.Float64frombits(b)
	}
	return tr, nil
}
