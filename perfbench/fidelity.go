package main

import "fmt"

// recordedFidelity holds each workload's fidelity canary at defaultSeed,
// exactly as the program computed it. The canaries run on every set-up
// whatever --seed is, so a change to the numerics fails every run.
var recordedFidelity = map[string]fidelity{
	"baselines": {LossDB: 7.587248141944594, Efficiency: 0.1742910899433011},
	"mobility":  {LossDB: 28.75893999260964, Efficiency: 0.47728298170496186},
	"serve":     {LossDB: 2.9362039535726274, Efficiency: 0.6942777471451074},
}

func checkFidelity(workload string, got fidelity) error {
	want, ok := recordedFidelity[workload]
	if !ok || got != want {
		return &checkError{workload, "fidelity equals recorded value", "fidelity canary",
			fmt.Sprintf("got loss_db=%v efficiency=%v, recorded %+v", got.LossDB, got.Efficiency, want)}
	}
	return nil
}
