package mac

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mmwalign/internal/align"
	"mmwalign/internal/antenna"
	"mmwalign/internal/channel"
	"mmwalign/internal/meas"
	"mmwalign/internal/rng"
)

func TestBeaconRoundTrip(t *testing.T) {
	in := Beacon{
		Header:       Header{Seq: 42, Src: 1, Dst: 2},
		SuperframeID: 123456,
		TrainSlots:   64,
		DataSlots:    448,
		TXBeams:      16,
	}
	out, err := Decode(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(*Beacon)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	in.Type = FrameBeacon
	if *got != in {
		t.Errorf("round trip: got %+v, want %+v", *got, in)
	}
}

func TestTrainRequestRoundTrip(t *testing.T) {
	in := TrainRequest{
		Header:       Header{Seq: 7, Src: 3, Dst: 4},
		TXBeam:       11,
		SlotIndex:    5,
		Measurements: 8,
	}
	out, err := Decode(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(*TrainRequest)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	in.Type = FrameTrainRequest
	if *got != in {
		t.Errorf("round trip: got %+v, want %+v", *got, in)
	}
}

func TestMeasurementReportRoundTripProperty(t *testing.T) {
	f := func(seq, src, dst, tx, rx uint16, energy float64) bool {
		if math.IsNaN(energy) {
			return true // NaN != NaN; semantics preserved but not comparable
		}
		in := MeasurementReport{
			Header: Header{Seq: seq, Src: src, Dst: dst},
			TXBeam: tx,
			RXBeam: rx,
			Energy: energy,
		}
		out, err := Decode(in.Marshal())
		if err != nil {
			return false
		}
		got, ok := out.(*MeasurementReport)
		if !ok {
			return false
		}
		in.Type = FrameMeasurementReport
		return *got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBeamFeedbackRoundTripNegativeSNR(t *testing.T) {
	in := BeamFeedback{
		Header:     Header{Seq: 1, Src: 9, Dst: 8},
		BestTXBeam: 3,
		BestRXBeam: 60,
		SNRCentiDB: -1234, // -12.34 dB must survive the uint32 transport
	}
	out, err := Decode(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(*BeamFeedback)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	in.Type = FrameBeamFeedback
	if *got != in {
		t.Errorf("round trip: got %+v, want %+v", *got, in)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short header: err = %v", err)
	}
	if _, err := Decode(make([]byte, headerLen)); !errors.Is(err, ErrUnknownFrameType) {
		t.Errorf("zero type: err = %v", err)
	}
	// Valid header claiming beacon but truncated payload.
	b := Beacon{Header: Header{Seq: 1}}.Marshal()
	if _, err := Decode(b[:headerLen+2]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated beacon: err = %v", err)
	}
	if _, err := Decode([]byte{99, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrUnknownFrameType) {
		t.Errorf("unknown type: err = %v", err)
	}
}

func TestFrameTypeString(t *testing.T) {
	tests := []struct {
		ft   FrameType
		want string
	}{
		{FrameBeacon, "beacon"},
		{FrameTrainRequest, "train-request"},
		{FrameMeasurementReport, "measurement-report"},
		{FrameBeamFeedback, "beam-feedback"},
		{FrameType(200), "FrameType(200)"},
	}
	for _, tt := range tests {
		if got := tt.ft.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.ft, got, tt.want)
		}
	}
}

func TestTraceAlignmentStructure(t *testing.T) {
	// Two TX slots of two measurements each.
	ms := []meas.Measurement{
		{TXBeam: 5, RXBeam: 1, Energy: 2.0},
		{TXBeam: 5, RXBeam: 9, Energy: 7.5},
		{TXBeam: 2, RXBeam: 9, Energy: 1.1},
		{TXBeam: 2, RXBeam: 4, Energy: 0.9},
	}
	frames := TraceAlignment(77, 1, 2, 4, 100, 16, ms, align.Pair{TX: 5, RX: 9}, 12.345)
	// beacon + 2 train requests + 4 reports + feedback = 8 frames.
	if len(frames) != 8 {
		t.Fatalf("got %d frames, want 8", len(frames))
	}

	decoded := make([]any, len(frames))
	for i, f := range frames {
		d, err := Decode(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		decoded[i] = d
	}

	beacon, ok := decoded[0].(*Beacon)
	if !ok || beacon.SuperframeID != 77 || beacon.TXBeams != 16 {
		t.Errorf("frame 0 = %+v", decoded[0])
	}
	req1, ok := decoded[1].(*TrainRequest)
	if !ok || req1.TXBeam != 5 || req1.SlotIndex != 0 || req1.Measurements != 2 {
		t.Errorf("frame 1 = %+v", decoded[1])
	}
	rep, ok := decoded[2].(*MeasurementReport)
	if !ok || rep.TXBeam != 5 || rep.RXBeam != 1 || rep.Energy != 2.0 {
		t.Errorf("frame 2 = %+v", decoded[2])
	}
	req2, ok := decoded[4].(*TrainRequest)
	if !ok || req2.TXBeam != 2 || req2.SlotIndex != 1 {
		t.Errorf("frame 4 = %+v", decoded[4])
	}
	fb, ok := decoded[7].(*BeamFeedback)
	if !ok || fb.BestTXBeam != 5 || fb.BestRXBeam != 9 || fb.SNRCentiDB != 1235 {
		t.Errorf("frame 7 = %+v", decoded[7])
	}
	// Direction check: downlink frames from BS (1), uplink from UE (2).
	if beacon.Src != 1 || rep.Src != 2 || fb.Src != 2 {
		t.Error("frame directions wrong")
	}
}

func TestTraceAlignmentSectorMarker(t *testing.T) {
	ms := []meas.Measurement{{TXBeam: 0, RXBeam: -1, Energy: 1}}
	frames := TraceAlignment(1, 1, 2, 1, 1, 4, ms, align.Pair{}, 0)
	d, err := Decode(frames[2])
	if err != nil {
		t.Fatal(err)
	}
	rep := d.(*MeasurementReport)
	if rep.RXBeam != math.MaxUint16 {
		t.Errorf("sector RX beam encoded as %d, want 65535", rep.RXBeam)
	}
}

func TestTraceAlignmentEndToEnd(t *testing.T) {
	// A real strategy run must produce a decodable, well-formed trace.
	tx, rx := antenna.NewUPA(2, 2), antenna.NewUPA(4, 4)
	txBook := antenna.NewGridCodebook(tx, 4, 2, math.Pi, math.Pi/2)
	rxBook := antenna.NewGridCodebook(rx, 4, 4, math.Pi, math.Pi/2)
	ch, err := channel.NewSinglePath(rng.New(91), tx, rx, channel.SinglePathSpec{})
	if err != nil {
		t.Fatal(err)
	}
	sounder, err := meas.NewSounder(ch, 1, rng.New(92))
	if err != nil {
		t.Fatal(err)
	}
	sounder.SetSnapshots(4)
	s, err := align.ForScheme("proposed", rxBook, align.SchemeSpec{J: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := &align.Env{TXBook: txBook, RXBook: rxBook, Sounder: sounder, Src: rng.New(93)}
	tr, err := align.EvaluateContext(context.Background(), env, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]meas.Measurement, 0, 16)
	// Rebuild a synthetic record from the trajectory length (the runner
	// does not retain raw measurements), exercising the trace path with
	// representative sizes.
	for i := 0; i < len(tr.LossDB); i++ {
		ms = append(ms, meas.Measurement{TXBeam: i / 4, RXBeam: i % 4, Energy: float64(i)})
	}
	frames := TraceAlignment(3, 10, 20, 16, 100, txBook.Size(), ms, tr.BestPair, tr.FinalLossDB())
	for i, f := range frames {
		if _, err := Decode(f); err != nil {
			t.Fatalf("frame %d does not decode: %v", i, err)
		}
	}
}
