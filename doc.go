// Package mmwalign is a Go implementation of efficient directional beam
// alignment for millimeter-wave cellular links, reproducing "Directional
// Beam Alignment for Millimeter Wave Cellular Systems" (Zhao, Wang,
// Viswanathan; ICDCS 2016).
//
// A millimeter-wave link needs the transmitter and receiver to point
// narrow analog beams at each other before useful data can flow, and
// exhaustively sounding every TX/RX beam-pair combination is quadratic
// in codebook size. This library implements the paper's alternative:
// sound a small, adaptively chosen subset of pairs, exploit the low-rank
// structure of the mmWave spatial covariance to estimate the channel
// from those few energy measurements (a nuclear-norm-regularized
// maximum-likelihood problem in the matrix-completion family), and let
// the running estimate steer which beams to sound next.
//
// The package exposes a compact facade — build a Link, call Align — over
// the full simulation stack in internal/: complex linear algebra
// (internal/cmat), antenna arrays and codebooks (internal/antenna),
// single-path and NYC-measurement-derived multipath channels
// (internal/channel), the sounding model (internal/meas), the covariance
// estimator (internal/covest),
// the alignment strategies themselves (internal/align), the mobility
// scenario engine that places them in a slotted MAC (internal/scenario),
// and the harness that regenerates the paper's figures
// (internal/experiment, cmd/figgen).
//
// # Quick start
//
//	link, err := mmwalign.NewLink(mmwalign.LinkSpec{Seed: 1})
//	if err != nil { ... }
//	res, err := link.Align(mmwalign.SchemeProposed, 128)
//	if err != nil { ... }
//	fmt.Printf("beam pair (%d,%d): %.1f dB below optimal after sounding %.0f%% of pairs\n",
//	        res.TXBeam, res.RXBeam, res.LossDB, 100*res.SearchRate)
//
// See the examples/ directory for runnable scenarios and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology and results.
package mmwalign
