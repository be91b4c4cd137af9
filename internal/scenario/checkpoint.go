package scenario

import (
	"encoding/json"
	"fmt"
	"math"

	"mmwalign/internal/journal"
	"mmwalign/internal/sweep"
)

// FigureID is the journal figure identity of scenario runs; a scenario
// journal never resumes a static-figure run or vice versa.
const FigureID = "scenario"

// CanonicalHash returns the canonical hash of everything that
// determines scenario output: the fully defaulted config with the
// runtime-only knobs (Workers, Journal) zeroed. Two configs with equal
// hashes produce bit-identical traces, which is the resume-safety
// check a journal header carries.
func (c Config) CanonicalHash() string {
	c = c.WithDefaults()
	c.Workers = 0
	c.Journal = nil
	return sweep.Hash(c)
}

// JournalHeader builds the journal header for a scenario run: the
// canonical config hash, the run shape for inspection tooling, and the
// engine version.
func JournalHeader(cfg Config) journal.Header {
	rc := cfg.WithDefaults()
	return sweep.Header(FigureID, rc.CanonicalHash(), rc.Seed, rc.Drops(), rc.Schemes)
}

// frameRecord is the on-disk form of one FramePoint. Every float64 is
// stored as its IEEE-754 bit pattern so a journal replay reproduces the
// trace bit-for-bit — the property the byte-identical resume guarantee
// rests on.
type frameRecord struct {
	Frame      int    `json:"frame"`
	Realigned  bool   `json:"realigned,omitempty"`
	TrainSlots int    `json:"train_slots,omitempty"`
	SelBits    uint64 `json:"sel_bits"`
	OptBits    uint64 `json:"opt_bits"`
	Outage     bool   `json:"outage,omitempty"`
	DataBits   uint64 `json:"data_bits"`
	GenieBits  uint64 `json:"genie_bits"`
	Blocked    int    `json:"blocked,omitempty"`
}

// traceRecord is the journal payload of one completed cell. Only the
// frame records are stored; the aggregates are recomputed on decode.
type traceRecord struct {
	Scheme   string        `json:"scheme"`
	SpeedIdx int           `json:"speed_idx"`
	UE       int           `json:"ue"`
	Frames   []frameRecord `json:"frames"`
}

// encodeTrace serializes a trace for the journal.
func encodeTrace(tr Trace) (json.RawMessage, error) {
	rec := traceRecord{
		Scheme:   tr.Scheme,
		SpeedIdx: tr.SpeedIdx,
		UE:       tr.UE,
		Frames:   make([]frameRecord, len(tr.Frames)),
	}
	for i, f := range tr.Frames {
		rec.Frames[i] = frameRecord{
			Frame:      f.Frame,
			Realigned:  f.Realigned,
			TrainSlots: f.TrainSlots,
			SelBits:    math.Float64bits(f.SelSNRDB),
			OptBits:    math.Float64bits(f.OptSNRDB),
			Outage:     f.Outage,
			DataBits:   math.Float64bits(f.DataBits),
			GenieBits:  math.Float64bits(f.GenieBits),
			Blocked:    f.Blocked,
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding trace: %w", err)
	}
	return data, nil
}

// decodeTrace reverses encodeTrace, restoring every float bit-for-bit
// and recomputing the trace aggregates.
func decodeTrace(data json.RawMessage) (Trace, error) {
	var rec traceRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return Trace{}, fmt.Errorf("scenario: decoding journaled trace: %w", err)
	}
	tr := Trace{
		Scheme:   rec.Scheme,
		SpeedIdx: rec.SpeedIdx,
		UE:       rec.UE,
		Frames:   make([]FramePoint, len(rec.Frames)),
	}
	for i, f := range rec.Frames {
		tr.Frames[i] = FramePoint{
			Frame:      f.Frame,
			Realigned:  f.Realigned,
			TrainSlots: f.TrainSlots,
			SelSNRDB:   math.Float64frombits(f.SelBits),
			OptSNRDB:   math.Float64frombits(f.OptBits),
			Outage:     f.Outage,
			DataBits:   math.Float64frombits(f.DataBits),
			GenieBits:  math.Float64frombits(f.GenieBits),
			Blocked:    f.Blocked,
		}
	}
	tr.finalize()
	return tr, nil
}
