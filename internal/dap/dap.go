// Package dap implements the Dynamic Axial Parallelism plan (FastFold's
// model-parallel strategy, §2.3, which ScaleFold adopts): under data
// parallelism, groups of N GPUs cooperate on one training sample by
// splitting intermediate activations along a non-reductive axis. DAP exists
// because AlphaFold's global batch size cannot exceed 256 without losing
// convergence, which caps pure data parallelism at 256 GPUs.
package dap

import (
	"errors"
	"fmt"
)

// MaxGlobalBatch is the convergence-imposed cap on the data-parallel degree
// ("the training batch size of AlphaFold cannot exceed 256", §2.2).
const MaxGlobalBatch = 256

// Plan splits the ranks into DAP groups, one per data-parallel replica.
type Plan struct {
	TotalRanks int // GPUs participating in training
	Degree     int // DAP-N: GPUs cooperating on one sample
	DPWays     int // data-parallel replicas = TotalRanks / Degree
}

// NewPlan validates and builds a plan.
func NewPlan(totalRanks, degree int) (Plan, error) {
	if degree < 1 {
		return Plan{}, errors.New("dap: degree must be >= 1")
	}
	if totalRanks < degree {
		return Plan{}, fmt.Errorf("dap: %d ranks cannot host DAP-%d", totalRanks, degree)
	}
	if totalRanks%degree != 0 {
		return Plan{}, fmt.Errorf("dap: %d ranks not divisible by DAP-%d", totalRanks, degree)
	}
	return Plan{TotalRanks: totalRanks, Degree: degree, DPWays: totalRanks / degree}, nil
}

// Validate checks the plan against the convergence constraint for the given
// per-replica (local) batch size.
func (p Plan) Validate(localBatch int) error {
	if gb := p.DPWays * localBatch; gb > MaxGlobalBatch {
		return fmt.Errorf("dap: global batch %d exceeds the %d convergence limit — increase DAP degree", gb, MaxGlobalBatch)
	}
	return nil
}

// MaxRanksForBatch returns the largest usable GPU count for a global batch,
// which is how DAP "increases parallelism from 128 to 512 GPUs" and beyond:
// batch × degree.
func MaxRanksForBatch(globalBatch, degree int) int {
	if globalBatch > MaxGlobalBatch {
		globalBatch = MaxGlobalBatch
	}
	return globalBatch * degree
}
