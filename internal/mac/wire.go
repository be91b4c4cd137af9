// Package mac holds the beam-alignment protocol's control frames: the
// over-the-air messages in the style of IEEE 802.15.3c's beamforming
// signaling, which the paper names as the carrier for its feedback
// ("RX can also transmit some feedback messages as specified in IEEE
// 802.15.3c, e.g. its best receiving direction, and the quality of the
// best beam pair"). Frames marshal to a compact big-endian wire format
// that a radio prototype or a packet trace can exchange as byte slices,
// and TraceAlignment replays a completed alignment as the frame
// sequence a BS and UE would put on the air.
//
// The slotted MAC context the frames live in (superframes, re-alignment
// cadence, blockage and effective throughput) is simulated by
// internal/scenario.
package mac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// FrameType discriminates the control frames.
type FrameType uint8

// Frame types. Values start at 1 so a zeroed buffer cannot decode as a
// valid frame.
const (
	// FrameBeacon announces a superframe: its training/data split and
	// the TX codebook size, so the receiver can size its search.
	FrameBeacon FrameType = iota + 1
	// FrameTrainRequest announces one TX training slot: the TX beam the
	// transmitter will dwell on and how many RX measurements fit.
	FrameTrainRequest
	// FrameMeasurementReport carries one RX measurement result back.
	FrameMeasurementReport
	// FrameBeamFeedback reports the receiver's current best beam pair
	// and its quality (the paper's Eq. 30 result).
	FrameBeamFeedback
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameBeacon:
		return "beacon"
	case FrameTrainRequest:
		return "train-request"
	case FrameMeasurementReport:
		return "measurement-report"
	case FrameBeamFeedback:
		return "beam-feedback"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// Wire format constants.
const (
	headerLen            = 7
	beaconLen            = headerLen + 10
	trainRequestLen      = headerLen + 5
	measurementReportLen = headerLen + 12
	beamFeedbackLen      = headerLen + 8
)

// Decoding errors.
var (
	// ErrShortFrame is returned when a buffer is too small for its
	// declared frame type.
	ErrShortFrame = errors.New("mac: short frame")
	// ErrUnknownFrameType is returned for an unrecognized discriminator.
	ErrUnknownFrameType = errors.New("mac: unknown frame type")
)

// Header is common to all control frames.
type Header struct {
	// Type discriminates the frame.
	Type FrameType
	// Seq is a per-sender sequence number.
	Seq uint16
	// Src and Dst are short node identifiers (BS/UE addresses).
	Src, Dst uint16
}

func (h Header) put(b []byte) {
	b[0] = byte(h.Type)
	binary.BigEndian.PutUint16(b[1:], h.Seq)
	binary.BigEndian.PutUint16(b[3:], h.Src)
	binary.BigEndian.PutUint16(b[5:], h.Dst)
}

func getHeader(b []byte) (Header, error) {
	if len(b) < headerLen {
		return Header{}, fmt.Errorf("%w: %d bytes, need %d for a header", ErrShortFrame, len(b), headerLen)
	}
	return Header{
		Type: FrameType(b[0]),
		Seq:  binary.BigEndian.Uint16(b[1:]),
		Src:  binary.BigEndian.Uint16(b[3:]),
		Dst:  binary.BigEndian.Uint16(b[5:]),
	}, nil
}

// Beacon announces a superframe.
type Beacon struct {
	Header
	// SuperframeID numbers the superframe.
	SuperframeID uint32
	// TrainSlots and DataSlots give the airtime split.
	TrainSlots, DataSlots uint16
	// TXBeams is card(U), letting the receiver bound its search space.
	TXBeams uint16
}

// Marshal encodes the beacon.
func (f Beacon) Marshal() []byte {
	f.Type = FrameBeacon
	b := make([]byte, beaconLen)
	f.Header.put(b)
	binary.BigEndian.PutUint32(b[headerLen:], f.SuperframeID)
	binary.BigEndian.PutUint16(b[headerLen+4:], f.TrainSlots)
	binary.BigEndian.PutUint16(b[headerLen+6:], f.DataSlots)
	binary.BigEndian.PutUint16(b[headerLen+8:], f.TXBeams)
	return b
}

// TrainRequest announces one TX training slot.
type TrainRequest struct {
	Header
	// TXBeam is the codebook beam the transmitter dwells on.
	TXBeam uint16
	// SlotIndex is the TX-slot index i.
	SlotIndex uint16
	// Measurements is J, the RX measurement count for this slot.
	Measurements uint8
}

// Marshal encodes the request.
func (f TrainRequest) Marshal() []byte {
	f.Type = FrameTrainRequest
	b := make([]byte, trainRequestLen)
	f.Header.put(b)
	binary.BigEndian.PutUint16(b[headerLen:], f.TXBeam)
	binary.BigEndian.PutUint16(b[headerLen+2:], f.SlotIndex)
	b[headerLen+4] = f.Measurements
	return b
}

// MeasurementReport carries one RX measurement back to the transmitter.
type MeasurementReport struct {
	Header
	// TXBeam and RXBeam identify the sounded pair.
	TXBeam, RXBeam uint16
	// Energy is the measured matched-filter energy |z|².
	Energy float64
}

// Marshal encodes the report. The energy travels as an IEEE-754 double.
func (f MeasurementReport) Marshal() []byte {
	f.Type = FrameMeasurementReport
	b := make([]byte, measurementReportLen)
	f.Header.put(b)
	binary.BigEndian.PutUint16(b[headerLen:], f.TXBeam)
	binary.BigEndian.PutUint16(b[headerLen+2:], f.RXBeam)
	binary.BigEndian.PutUint64(b[headerLen+4:], math.Float64bits(f.Energy))
	return b
}

// BeamFeedback reports the receiver's best pair so far.
type BeamFeedback struct {
	Header
	// BestTXBeam and BestRXBeam are the winning pair (Eq. 30).
	BestTXBeam, BestRXBeam uint16
	// SNRCentiDB is the measured SNR in hundredths of a dB; the fixed
	// point keeps the frame compact and the precision far below any
	// measurement noise floor.
	SNRCentiDB int32
}

// Marshal encodes the feedback.
func (f BeamFeedback) Marshal() []byte {
	f.Type = FrameBeamFeedback
	b := make([]byte, beamFeedbackLen)
	f.Header.put(b)
	binary.BigEndian.PutUint16(b[headerLen:], f.BestTXBeam)
	binary.BigEndian.PutUint16(b[headerLen+2:], f.BestRXBeam)
	binary.BigEndian.PutUint32(b[headerLen+4:], uint32(f.SNRCentiDB))
	return b
}

// Decode parses any control frame, returning one of *Beacon,
// *TrainRequest, *MeasurementReport or *BeamFeedback.
func Decode(b []byte) (any, error) {
	h, err := getHeader(b)
	if err != nil {
		return nil, err
	}
	need := 0
	switch h.Type {
	case FrameBeacon:
		need = beaconLen
	case FrameTrainRequest:
		need = trainRequestLen
	case FrameMeasurementReport:
		need = measurementReportLen
	case FrameBeamFeedback:
		need = beamFeedbackLen
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownFrameType, h.Type)
	}
	if len(b) < need {
		return nil, fmt.Errorf("%w: %d bytes, need %d for %v", ErrShortFrame, len(b), need, h.Type)
	}
	switch h.Type {
	case FrameBeacon:
		return &Beacon{
			Header:       h,
			SuperframeID: binary.BigEndian.Uint32(b[headerLen:]),
			TrainSlots:   binary.BigEndian.Uint16(b[headerLen+4:]),
			DataSlots:    binary.BigEndian.Uint16(b[headerLen+6:]),
			TXBeams:      binary.BigEndian.Uint16(b[headerLen+8:]),
		}, nil
	case FrameTrainRequest:
		return &TrainRequest{
			Header:       h,
			TXBeam:       binary.BigEndian.Uint16(b[headerLen:]),
			SlotIndex:    binary.BigEndian.Uint16(b[headerLen+2:]),
			Measurements: b[headerLen+4],
		}, nil
	case FrameMeasurementReport:
		return &MeasurementReport{
			Header: h,
			TXBeam: binary.BigEndian.Uint16(b[headerLen:]),
			RXBeam: binary.BigEndian.Uint16(b[headerLen+2:]),
			Energy: math.Float64frombits(binary.BigEndian.Uint64(b[headerLen+4:])),
		}, nil
	default: // FrameBeamFeedback, by the switch above
		return &BeamFeedback{
			Header:     h,
			BestTXBeam: binary.BigEndian.Uint16(b[headerLen:]),
			BestRXBeam: binary.BigEndian.Uint16(b[headerLen+2:]),
			SNRCentiDB: int32(binary.BigEndian.Uint32(b[headerLen+4:])),
		}, nil
	}
}
