package stats

import (
	"math"

	"repro/internal/par"
)

// Par computes the package's hot reductions across P goroutines while
// staying bit-identical at every P: each statistic is one block kernel
// run by one driver, reduce, which combines the fixed 4096-element
// block partials in block order however many workers filled them. A nil
// or zero-value Par (P <= 1) walks the blocks inline with no scratch,
// closure or goroutine cost; the package-level functions are exactly
// that case. A Par is not concurrency-safe; each compressor instance
// owns one.
type Par struct {
	P     int
	parts []partial
}

// partial is one block's (sum, sumSq, count) contribution.
type partial struct {
	s, s2 float64
	n     int
}

// kernel names a block reduction; its body lives in kernel.block.
type kernel uint8

const (
	kSum    kernel = iota // Σx
	kAbs                  // Σ|x|
	kAbsSq                // Σ|x|, Σx²
	kLogAbs               // Σlog|x| and the count, over x != 0
	kDevSq                // Σ(x-c)²
	kShift                // Σ(x-c), Σ(x-c)²
)

// block reduces one block of xs to its partial: the sums and the count
// of values that entered them. c is the kernel's constant: the mean for
// kDevSq, the location for kShift.
func (k kernel) block(xs []float64, c float64) (s, s2 float64, n int) {
	n = len(xs)
	switch k {
	case kSum:
		for _, x := range xs {
			s += x
		}
	case kAbs:
		for _, x := range xs {
			s += math.Abs(x)
		}
	case kAbsSq:
		for _, x := range xs {
			a := math.Abs(x)
			s += a
			s2 += a * a
		}
	case kLogAbs:
		n = 0
		for _, x := range xs {
			a := math.Abs(x)
			if a == 0 {
				continue
			}
			s += math.Log(a)
			n++
		}
	case kDevSq:
		for _, x := range xs {
			d := x - c
			s += d * d
		}
	case kShift:
		for _, x := range xs {
			d := x - c
			s += d
			s2 += d * d
		}
	}
	return s, s2, n
}

// blockOf returns block b of xs.
func blockOf(xs []float64, b int) []float64 {
	lo := b * sumBlock
	return xs[lo:min(lo+sumBlock, len(xs))]
}

// reduce runs kernel k over every sumBlock-element block of xs and
// combines the block partials in block order. Inputs shorter than two
// blocks stay serial: the fan-out cannot pay there.
func (pp *Par) reduce(k kernel, xs []float64, c float64) (sum, sumSq float64, n int) {
	nb := (len(xs) + sumBlock - 1) / sumBlock
	if pp == nil || pp.P <= 1 || len(xs) < 2*sumBlock {
		for b := 0; b < nb; b++ {
			s, s2, bn := k.block(blockOf(xs, b), c)
			sum += s
			sumSq += s2
			n += bn
		}
		return sum, sumSq, n
	}
	if cap(pp.parts) < nb {
		pp.parts = make([]partial, nb)
	}
	parts := pp.parts[:nb]
	par.Do(pp.P, func(w int) {
		lo, hi := par.RangeBounds(nb, pp.P, w)
		for b := lo; b < hi; b++ {
			p := &parts[b]
			p.s, p.s2, p.n = k.block(blockOf(xs, b), c)
		}
	})
	for _, p := range parts {
		sum += p.s
		sumSq += p.s2
		n += p.n
	}
	return sum, sumSq, n
}

// avg returns sum/n, or NaN — the package's empty-input value — when no
// value entered the sum.
func avg(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// meanVar turns first and second moment sums over n values into the
// mean and population variance, clamping the variance at zero against
// catastrophic cancellation. n = 0 gives (NaN, NaN).
func meanVar(sum, sumSq float64, n int) (mean, variance float64) {
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// Mean is Mean at parallelism P.
func (pp *Par) Mean(xs []float64) float64 {
	sum, _, n := pp.reduce(kSum, xs, 0)
	return avg(sum, n)
}

// MeanAbs is MeanAbs at parallelism P.
func (pp *Par) MeanAbs(xs []float64) float64 {
	sum, _, n := pp.reduce(kAbs, xs, 0)
	return avg(sum, n)
}

// MeanVarAbs is MeanVarAbs at parallelism P.
func (pp *Par) MeanVarAbs(xs []float64) (mean, variance float64) {
	return meanVar(pp.reduce(kAbsSq, xs, 0))
}

// MeanLogAbs is MeanLogAbs at parallelism P.
func (pp *Par) MeanLogAbs(xs []float64) float64 {
	sum, _, n := pp.reduce(kLogAbs, xs, 0)
	return avg(sum, n)
}

// Variance is Variance at parallelism P.
func (pp *Par) Variance(xs []float64) float64 {
	sum, _, n := pp.reduce(kDevSq, xs, pp.Mean(xs))
	return avg(sum, n)
}

// MaxAbs is MaxAbs at parallelism P. The maximum is grouping-invariant
// (comparisons against NaN are false in any order), so per-worker maxima
// over contiguous ranges combine to exactly the serial result.
func (pp *Par) MaxAbs(xs []float64) float64 {
	if pp == nil || pp.P <= 1 || len(xs) < 2*sumBlock {
		return MaxAbs(xs)
	}
	if cap(pp.parts) < pp.P {
		pp.parts = make([]partial, pp.P)
	}
	maxes := pp.parts[:pp.P]
	par.Do(pp.P, func(w int) {
		lo, hi := par.RangeBounds(len(xs), pp.P, w)
		maxes[w].s = MaxAbs(xs[lo:hi])
	})
	max := 0.0
	for _, m := range maxes {
		if m.s > max {
			max = m.s
		}
	}
	return max
}

// FitGaussian is FitGaussian at parallelism P.
func (pp *Par) FitGaussian(xs []float64) Gaussian {
	return Gaussian{Mu: pp.Mean(xs), Sigma: math.Sqrt(pp.Variance(xs))}
}

// FitGPExceedance is FitGPExceedance at parallelism P.
func (pp *Par) FitGPExceedance(absXS []float64, loc float64) GPParams {
	return FitGPMoments(meanVar(pp.reduce(kShift, absXS, loc)))
}

// FitGammaAbs is FitGammaAbs at parallelism P.
func (pp *Par) FitGammaAbs(xs []float64) GammaParams {
	mu := pp.MeanAbs(xs)
	muLog := pp.MeanLogAbs(xs)
	s := math.Log(mu) - muLog
	if !(s > 0) { // NaN or non-positive: data degenerate (constant or empty)
		return GammaParams{Shape: math.NaN(), Scale: math.NaN()}
	}
	alpha := (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	return GammaParams{Shape: alpha, Scale: mu / alpha}
}
