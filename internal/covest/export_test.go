package covest

// LiftFidelity exposes liftFidelity to the external tests, which can
// reach the benchsuite fixtures.
var LiftFidelity = liftFidelity
