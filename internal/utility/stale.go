package utility

import "fmt"

// StaleStatus describes how a process terminated in a given scenario, for
// the purpose of stale-value accounting.
type StaleStatus int

const (
	// Executed means the process ran to completion in this cycle.
	Executed StaleStatus = iota
	// Dropped means the process was not started (or its recovery was
	// abandoned after a fault); successors consume stale inputs and its
	// own utility is zero (α = 0).
	Dropped
)

// Coefficients computes the stale-value coefficients α_i for every process,
// given the predecessor lists and the per-process execution status.
//
// preds[i] lists the direct predecessors DP(P_i) of process i; order is the
// order in which coefficients must be evaluated, so callers must pass a
// topological order of the process indices (internal/model stores processes
// topologically sorted, so the identity order works there).
//
// Per the paper (§2.1):
//
//	α_i = 0                                        if P_i is dropped
//	α_i = (1 + Σ_{j ∈ DP(i)} α_j) / (1 + |DP(i)|)  if P_i executed
//
// A process with no predecessors that executes has α = 1. The result is
// always within [0, 1].
func Coefficients(order []int, preds [][]int, status []StaleStatus) ([]float64, error) {
	n := len(preds)
	if len(status) != n {
		return nil, fmt.Errorf("utility: status length %d does not match %d processes", len(status), n)
	}
	if len(order) != n {
		return nil, fmt.Errorf("utility: order length %d does not match %d processes", len(order), n)
	}
	alpha := make([]float64, n)
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("utility: order contains out-of-range index %d", i)
		}
		if seen[i] {
			return nil, fmt.Errorf("utility: order visits process %d twice", i)
		}
		seen[i] = true
		if status[i] == Dropped {
			alpha[i] = 0
			continue
		}
		sum := 1.0
		for _, j := range preds[i] {
			if j < 0 || j >= n {
				return nil, fmt.Errorf("utility: process %d has out-of-range predecessor %d", i, j)
			}
			if !seen[j] {
				return nil, fmt.Errorf("utility: order is not topological: predecessor %d of %d not yet visited", j, i)
			}
			sum += alpha[j]
		}
		alpha[i] = sum / float64(1+len(preds[i]))
	}
	return alpha, nil
}

// CoefficientsInto is Coefficients without validation or allocation: alpha
// is overwritten in place. order must be a topological order and preds must
// be consistent with it (the checked Coefficients establishes this once;
// hot paths such as the runtime dispatcher then reuse the same order/preds
// every cycle). The arithmetic — including summation order — is identical
// to Coefficients, so both produce bit-identical coefficients.
func CoefficientsInto(alpha []float64, order []int, preds [][]int, status []StaleStatus) {
	for _, i := range order {
		if status[i] == Dropped {
			alpha[i] = 0
			continue
		}
		sum := 1.0
		for _, j := range preds[i] {
			sum += alpha[j]
		}
		alpha[i] = sum / float64(1+len(preds[i]))
	}
}
