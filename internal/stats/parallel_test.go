package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestParBitIdentity checks every Par reduction against its serial
// counterpart bit for bit at several parallelism levels: the fixed
// 4096-element block partials make the grouping independent of P.
func TestParBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 4095, 4096, 4097, 1<<17 + 311} {
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(16) == 0 {
				xs[i] = 0
			} else {
				xs[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*4)
			}
		}
		for _, p := range []int{2, 3, 8} {
			pp := &Par{P: p}
			bitEq := func(name string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d p=%d: %s = %v, serial %v", n, p, name, got, want)
				}
			}
			bitEq("Mean", pp.Mean(xs), Mean(xs))
			bitEq("MeanAbs", pp.MeanAbs(xs), MeanAbs(xs))
			bitEq("MeanLogAbs", pp.MeanLogAbs(xs), MeanLogAbs(xs))
			bitEq("Variance", pp.Variance(xs), Variance(xs))
			bitEq("MaxAbs", pp.MaxAbs(xs), MaxAbs(xs))
			gm, gv := pp.MeanVarAbs(xs)
			sm, sv := MeanVarAbs(xs)
			bitEq("MeanVarAbs mean", gm, sm)
			bitEq("MeanVarAbs var", gv, sv)
			pg, sg := pp.FitGPExceedance(xs, 0.01), FitGPExceedance(xs, 0.01)
			bitEq("FitGPExceedance shape", pg.Shape, sg.Shape)
			bitEq("FitGPExceedance scale", pg.Scale, sg.Scale)
			pga, sga := pp.FitGammaAbs(xs), FitGammaAbs(xs)
			bitEq("FitGammaAbs shape", pga.Shape, sga.Shape)
			bitEq("FitGammaAbs scale", pga.Scale, sga.Scale)
			pn, sn := pp.FitGaussian(xs), FitGaussian(xs)
			bitEq("FitGaussian mu", pn.Mu, sn.Mu)
			bitEq("FitGaussian sigma", pn.Sigma, sn.Sigma)
		}
	}
}

// TestSerialReductionsAllocFree checks the package-level reductions (a
// nil *Par) and a P=1 Par allocate nothing on a 2^17 input: the serial
// driver must walk the blocks inline, with no kernel value or closure
// escaping to the heap.
func TestSerialReductionsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 1<<17)
	abs := make([]float64, len(xs))
	for i := range xs {
		xs[i] = rng.NormFloat64()
		abs[i] = 1 + math.Abs(xs[i])
	}
	pp := &Par{P: 1}
	var sink float64
	cases := []struct {
		name string
		fn   func()
	}{
		{"Mean", func() { sink += Mean(xs) }},
		{"MeanAbs", func() { sink += MeanAbs(xs) }},
		{"MeanVarAbs", func() { m, v := MeanVarAbs(xs); sink += m + v }},
		{"MeanLogAbs", func() { sink += MeanLogAbs(xs) }},
		{"Variance", func() { sink += Variance(xs) }},
		{"MaxAbs", func() { sink += MaxAbs(xs) }},
		{"FitGPExceedance", func() { sink += FitGPExceedance(abs, 1).Scale }},
		{"FitGammaAbs", func() { sink += FitGammaAbs(xs).Scale }},
		{"FitGaussian", func() { sink += FitGaussian(xs).Sigma }},
		{"Par.Mean", func() { sink += pp.Mean(xs) }},
		{"Par.MeanAbs", func() { sink += pp.MeanAbs(xs) }},
		{"Par.MeanVarAbs", func() { m, v := pp.MeanVarAbs(xs); sink += m + v }},
		{"Par.MeanLogAbs", func() { sink += pp.MeanLogAbs(xs) }},
		{"Par.Variance", func() { sink += pp.Variance(xs) }},
		{"Par.MaxAbs", func() { sink += pp.MaxAbs(xs) }},
		{"Par.FitGPExceedance", func() { sink += pp.FitGPExceedance(abs, 1).Scale }},
		{"Par.FitGammaAbs", func() { sink += pp.FitGammaAbs(xs).Scale }},
		{"Par.FitGaussian", func() { sink += pp.FitGaussian(xs).Sigma }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(5, c.fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, got)
		}
	}
	if math.IsNaN(sink) {
		t.Fatal("reductions of a finite input returned NaN")
	}
}
