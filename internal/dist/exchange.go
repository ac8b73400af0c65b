package dist

import (
	"fmt"

	"repro/internal/tensor"
)

// ExchangeInput is one worker's contribution to a gradient exchange:
// the dense local gradient is always present, and Sparse carries the
// compressed selection when a compressor ran.
type ExchangeInput struct {
	// Worker is the contributing worker's id; Trainer fills inputs in
	// worker-index order, so ins[i].Worker == i.
	Worker int
	// Dense is the worker's local (clipped) gradient of model dimension.
	Dense []float64
	// Sparse is the compressor's selection, nil on the dense path.
	Sparse *tensor.Sparse
}

// GradientExchange is the strategy that turns per-worker gradients into
// the aggregated mean the optimizer applies. Implementations must leave
// the mean of the contributions in agg (zeroing it first) and must reduce
// deterministically — the Trainer's bit-reproducibility guarantee extends
// only to exchanges that sum contributions in worker-index order.
//
// The default is the in-process reducer below; internal/cluster provides
// message-passing implementations that ship encoded buffers through real
// transports.
type GradientExchange interface {
	Exchange(step int, ins []ExchangeInput, agg []float64) error
}

// InProcess is the shared-memory reducer: sparse contributions are
// scatter-added (O(sum of nnz), no per-worker densify) and dense ones
// added, in worker-index order, then scaled to the mean. A single
// contribution is already its own mean, so the scaling pass (a multiply
// by exactly 1) is skipped.
type InProcess struct{}

// Exchange implements GradientExchange.
func (InProcess) Exchange(step int, ins []ExchangeInput, agg []float64) error {
	if len(ins) == 0 {
		return fmt.Errorf("dist: exchange with no inputs")
	}
	tensor.Zero(agg)
	for _, in := range ins {
		if in.Sparse != nil {
			in.Sparse.AddTo(agg)
		} else {
			tensor.Add(in.Dense, agg)
		}
	}
	if len(ins) > 1 {
		tensor.Scale(1/float64(len(ins)), agg)
	}
	return nil
}
