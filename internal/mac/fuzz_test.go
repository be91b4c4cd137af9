package mac

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the control-frame decoder. The
// contract under test: Decode returns a frame or one of the typed
// errors and never panics, and a decoded frame re-marshals to exactly
// the bytes it was decoded from (the input's first frame-length bytes;
// anything after them is ignored).
func FuzzDecode(f *testing.F) {
	f.Add(Beacon{Header: Header{Seq: 42, Src: 1, Dst: 2}, SuperframeID: 123456, TrainSlots: 64, DataSlots: 448, TXBeams: 16}.Marshal())
	f.Add(TrainRequest{Header: Header{Seq: 7, Src: 3, Dst: 4}, TXBeam: 11, SlotIndex: 5, Measurements: 8}.Marshal())
	f.Add(MeasurementReport{Header: Header{Seq: 9, Src: 2, Dst: 1}, TXBeam: 3, RXBeam: 65535, Energy: 2.5}.Marshal())
	f.Add(BeamFeedback{Header: Header{Seq: 1, Src: 9, Dst: 8}, BestTXBeam: 3, BestRXBeam: 60, SNRCentiDB: -1234}.Marshal())
	f.Add([]byte{1, 2})
	f.Add(make([]byte, headerLen))
	f.Add(Beacon{Header: Header{Seq: 1}}.Marshal()[:headerLen+2])
	f.Add([]byte{99, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Decode(data)
		if err != nil {
			if frame != nil {
				t.Fatalf("Decode returned %T with error %v", frame, err)
			}
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrUnknownFrameType) {
				t.Fatalf("Decode returned untyped error %T: %v", err, err)
			}
			return
		}
		var re []byte
		switch fr := frame.(type) {
		case *Beacon:
			re = fr.Marshal()
		case *TrainRequest:
			re = fr.Marshal()
		case *MeasurementReport:
			re = fr.Marshal()
		case *BeamFeedback:
			re = fr.Marshal()
		default:
			t.Fatalf("Decode returned %T", frame)
		}
		if len(re) > len(data) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("%T re-marshals to %x, input %x", frame, re, data)
		}
	})
}
