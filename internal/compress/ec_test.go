package compress

import (
	"math"
	"testing"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

func TestErrorFeedbackConservesMass(t *testing.T) {
	// Invariant: after every step, residual + transmitted == sum of all
	// corrected gradients so far; equivalently, per step,
	// corrected = transmitted + residual.
	ec := NewErrorFeedback(NewTopK())
	g := laplaceVec(5000, 0.01, 30)
	prevResidual := make([]float64, len(g))
	for step := 0; step < 10; step++ {
		s, err := FreshCompress(ec, g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		// corrected = g + prevResidual; check corrected == dense(s) + residual.
		dense := s.Dense()
		for i := range g {
			corrected := g[i] + prevResidual[i]
			if math.Abs(corrected-(dense[i]+ec.Residual()[i])) > 1e-12 {
				t.Fatalf("step %d: mass not conserved at %d", step, i)
			}
		}
		copy(prevResidual, ec.Residual())
	}
}

func TestErrorFeedbackEventuallyTransmitsEverything(t *testing.T) {
	// With a constant gradient, EC guarantees every coordinate is
	// eventually transmitted: the residual of suppressed coordinates grows
	// until it crosses the Top-k bar.
	d := 100
	g := make([]float64, d)
	for i := range g {
		g[i] = 1.0 / float64(i+1) // strictly decreasing magnitudes
	}
	ec := NewErrorFeedback(NewTopK())
	transmitted := make([]bool, d)
	for step := 0; step < 200; step++ {
		s, err := FreshCompress(ec, g, 0.05) // k = 5
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range s.Idx {
			transmitted[j] = true
		}
	}
	for i, ok := range transmitted {
		if !ok {
			t.Fatalf("coordinate %d never transmitted under EC", i)
		}
	}
}

func TestErrorFeedbackResidualShrinksAggregate(t *testing.T) {
	// The time-averaged transmitted vector under EC converges to the true
	// gradient mean (here constant), unlike plain Top-k which permanently
	// drops the tail.
	d := 1000
	g := laplaceVec(d, 0.01, 31)
	ec := NewErrorFeedback(NewTopK())
	acc := make([]float64, d)
	accPlain := make([]float64, d)
	const steps = 400
	for step := 0; step < steps; step++ {
		s, err := FreshCompress(ec, g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		s.AddTo(acc)
		sp, err := FreshCompress(NewTopK(), g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		sp.AddTo(accPlain)
	}
	tensor.Scale(1.0/steps, acc)
	tensor.Scale(1.0/steps, accPlain)
	relErr := func(avg []float64) float64 {
		diff := tensor.Clone(avg)
		tensor.Sub(g, diff)
		return tensor.Norm2(diff) / tensor.Norm2(g)
	}
	ecErr, plainErr := relErr(acc), relErr(accPlain)
	if ecErr > 0.15 {
		t.Errorf("EC average relative error = %v, want < 0.15", ecErr)
	}
	// Plain Top-k permanently drops the tail; EC must beat it decisively.
	if ecErr > plainErr/3 {
		t.Errorf("EC error %v not clearly better than plain Top-k %v", ecErr, plainErr)
	}
}

func TestErrorFeedbackDimensionChangeErrors(t *testing.T) {
	ec := NewErrorFeedback(NewTopK())
	if _, err := FreshCompress(ec, make([]float64, 10), 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := FreshCompress(ec, make([]float64, 11), 0.5); err == nil {
		t.Error("dimension change should error")
	}
}

func TestErrorFeedbackReset(t *testing.T) {
	ec := NewErrorFeedback(NewTopK())
	g := laplaceVec(100, 1, 32)
	if _, err := FreshCompress(ec, g, 0.1); err != nil {
		t.Fatal(err)
	}
	ec.Reset()
	for _, r := range ec.Residual() {
		if r != 0 {
			t.Fatal("Reset left residual mass")
		}
	}
}

func TestErrorFeedbackName(t *testing.T) {
	if got := NewErrorFeedback(NewTopK()).Name(); got != "topk+ec" {
		t.Errorf("Name = %q", got)
	}
}

func TestErrorFeedbackDoesNotModifyInput(t *testing.T) {
	ec := NewErrorFeedback(NewTopK())
	g := laplaceVec(500, 1, 33)
	orig := tensor.Clone(g)
	for i := 0; i < 5; i++ {
		if _, err := FreshCompress(ec, g, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	for i := range g {
		if g[i] != orig[i] {
			t.Fatal("EC modified its input")
		}
	}
}

// TestErrorFeedbackResidualIsExactRemainder checks the residual bit for
// bit after each of several consecutive calls: it must equal
// g + r_prev - scatter(selection), where the selection is what the
// caller received (wire-rounded when a wire format is set). P=2 covers
// the fanned-out residual pass; consecutive calls cover the wrapper
// trading its residual and scratch buffers.
func TestErrorFeedbackResidualIsExactRemainder(t *testing.T) {
	const d = 1<<15 + 17
	for _, p := range []int{1, 2} {
		for _, wire := range []bool{false, true} {
			ec := NewErrorFeedback(NewTopK())
			ec.SetParallelism(p)
			if wire {
				ec.SetWireFormat(encoding.FormatPairsI8)
			}
			prev := make([]float64, d)
			want := make([]float64, d)
			dst := &tensor.Sparse{}
			for call := 0; call < 6; call++ {
				g := laplaceVec(d, 0.01, int64(40+call))
				if err := ec.CompressInto(dst, g, 0.01); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					want[i] = g[i] + prev[i]
				}
				for i, j := range dst.Idx {
					want[j] -= dst.Vals[i]
				}
				res := ec.Residual()
				for i := range want {
					if math.Float64bits(res[i]) != math.Float64bits(want[i]) {
						t.Fatalf("p=%d wire=%v call %d: residual[%d] = %v, want %v", p, wire, call, i, res[i], want[i])
					}
				}
				copy(prev, res)
			}
		}
	}
}
