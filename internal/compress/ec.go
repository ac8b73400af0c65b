package compress

import (
	"fmt"

	"repro/internal/encoding"
	"repro/internal/par"
	"repro/internal/tensor"
)

// ErrorFeedback wraps any Compressor with the error-compensation (EC)
// mechanism (Karimireddy et al., ICML 2019): the sparsification residual
// of iteration i-1 is added to the gradient of iteration i before
// compression, so no gradient mass is permanently lost. This is the
// memory-based compression mode of Appendix B.2.
//
// With SetWireFormat the same mechanism additionally absorbs the wire
// quantization residual: the selected values are rounded to exactly what
// a receiver of the given encoding format will decode, and the
// difference joins the residual. The transmitted gradient then matches
// what every rank applies, bit for bit, while the precision lost to the
// narrow format is corrected over subsequent steps instead of discarded.
type ErrorFeedback struct {
	// Inner is the wrapped sparsifier.
	Inner Compressor

	residual []float64
	buf      []float64
	wire     encoding.Format
	wireSet  bool
	parP     int
}

// NewErrorFeedback wraps inner with a fresh (zero) residual.
func NewErrorFeedback(inner Compressor) *ErrorFeedback {
	return &ErrorFeedback{Inner: inner}
}

// SetWireFormat makes the wrapper pre-round selected values to format
// f's decoded precision before computing the residual. For the
// per-value formats (float32, binary16, bfloat16, lossless float64)
// the rounding is wire-exact regardless of how the selection is later
// chunked; FormatPairsI8 derives its scale from the whole value stream,
// so it is wire-exact only when the selection is encoded monolithically
// (cluster chunks <= 1).
func (e *ErrorFeedback) SetWireFormat(f encoding.Format) {
	e.wire = f
	e.wireSet = true
}

// ClearWireFormat restores plain sparsification-only error feedback.
func (e *ErrorFeedback) ClearWireFormat() { e.wireSet = false }

// SetParallelism implements Parallelizable: the dense
// residual-accumulate pass fans out over p goroutines (elementwise on
// disjoint ranges, so trivially bit-identical), and the knob forwards to
// the wrapped compressor.
func (e *ErrorFeedback) SetParallelism(p int) {
	e.parP = p
	SetParallelism(e.Inner, p)
}

// Name implements Compressor.
func (e *ErrorFeedback) Name() string { return e.Inner.Name() + "+ec" }

// CompressInto implements Compressor. It compresses g + residual through
// the wrapped compressor and folds the uncompressed remainder back into
// the residual; g is not modified. The residual bookkeeping itself is
// allocation-free after the first call.
//
//sidco:hotpath
func (e *ErrorFeedback) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	d := len(g)
	if e.residual == nil {
		e.residual = make([]float64, d) //sidco:alloc first-call lazy init of the persistent residual
		e.buf = make([]float64, d)      //sidco:alloc first-call lazy init of the persistent scratch
	}
	if len(e.residual) != d {
		return fmt.Errorf("compress: EC residual dimension changed from %d to %d", len(e.residual), d) //sidco:alloc misuse error path, not steady state
	}

	// corrected = g + residual in one pass, into the scratch buffer.
	corrected := e.buf
	p := e.parP
	if p < 1 || d < 1<<14 {
		p = 1
	}
	// The serial path is written out rather than run as par.Do(1, ...):
	// the range-bounded closure captures locals and would allocate,
	// breaking the zero-alloc steady-state contract at P=1.
	if p == 1 {
		addInto(corrected, g, e.residual)
	} else {
		par.Do(p, func(w int) { //sidco:alloc P>1 fan-out only; the zero-alloc P=1 path is written out above
			lo, hi := par.RangeBounds(d, p, w)
			addInto(corrected[lo:hi], g[lo:hi], e.residual[lo:hi])
		})
	}

	if err := e.Inner.CompressInto(dst, corrected, delta); err != nil {
		return err
	}

	// Round the selection to the wire's decoded precision first, so the
	// residual below absorbs the quantization error too.
	if e.wireSet {
		if err := encoding.RoundTripValues(e.wire, dst.Vals); err != nil {
			return err
		}
	}

	// residual = corrected - scatter(selection): corrected becomes the
	// residual in place, and the old residual becomes next call's scratch.
	e.residual, e.buf = corrected, e.residual
	for i, j := range dst.Idx {
		e.residual[j] -= dst.Vals[i]
	}
	return nil
}

// addInto writes x + y into dst elementwise.
func addInto(dst, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// Residual exposes the current residual for tests and fitting studies
// (Figure 8 fits gradients after EC accumulation). Callers must not
// modify it, and it is valid only until the next CompressInto: the
// wrapper swaps its residual and scratch buffers on every call, so read
// or copy it straight away.
func (e *ErrorFeedback) Residual() []float64 { return e.residual }

// RestoreResidual overwrites the carried residual with a checkpointed
// copy — the resume hook of dist's checkpointing. Nil or empty resets
// to the lazily-initialised zero state.
func (e *ErrorFeedback) RestoreResidual(r []float64) {
	if len(r) == 0 {
		e.residual = nil
		e.buf = nil
		return
	}
	e.residual = append(e.residual[:0], r...)
	if len(e.buf) != len(r) {
		e.buf = make([]float64, len(r))
	}
}

// Reset clears the residual, e.g. between independent training runs.
func (e *ErrorFeedback) Reset() {
	if e.residual != nil {
		tensor.Zero(e.residual)
	}
}
