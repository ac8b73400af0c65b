package stats

import (
	"math"
	"sort"
)

// sumBlock is the fixed accumulation granularity of every mean/variance
// reduction in this package: one kernel, one driver. Each statistic's
// per-block body is written once (kernel.block), and (*Par).reduce is
// its only driver: it computes one partial per 4096-element block —
// inline when serial, on P workers otherwise — and combines the
// partials in block order. The block structure is independent of how
// many workers compute the partials, so every statistic is
// bit-identical at any parallelism.
const sumBlock = 4096

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 { return (*Par)(nil).Mean(xs) }

// Variance returns the population variance (divide by n) of xs, matching
// the moment estimators used in the paper's closed-form fitters. It returns
// NaN for empty input.
func Variance(xs []float64) float64 { return (*Par)(nil).Variance(xs) }

// SampleVariance returns the unbiased sample variance (divide by n-1) of
// xs, or NaN when fewer than two observations are supplied.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanAbs returns the mean of |x| over xs — the maximum-likelihood scale
// estimate for Laplace-distributed data (Corollary 1.1). It returns NaN for
// empty input.
func MeanAbs(xs []float64) float64 { return (*Par)(nil).MeanAbs(xs) }

// MeanVarAbs returns the mean and population variance of |x| over xs in a
// single pass — the two moments the GP moment-matching fitter consumes.
func MeanVarAbs(xs []float64) (mean, variance float64) { return (*Par)(nil).MeanVarAbs(xs) }

// MeanLogAbs returns the mean of log|x| over the non-zero entries of xs —
// the sufficient statistic s = log(mean) - mean(log) of the Minka gamma
// fitter. Entries equal to zero are skipped (log 0 would poison the sum;
// in SIDCo they correspond to exactly-zero gradients, which carry no shape
// information). It returns NaN if all entries are zero or xs is empty.
func MeanLogAbs(xs []float64) float64 { return (*Par)(nil).MeanLogAbs(xs) }

// MinMax returns the minimum and maximum of xs, or (NaN, NaN) for empty
// input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// MaxAbs returns the largest absolute value in xs, or NaN for empty input.
func MaxAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	max := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	return max
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default). The
// input need not be sorted; a copy is sorted internally.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for data already sorted ascending; it does
// not allocate.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Kurtosis returns the excess kurtosis of xs (zero for a Gaussian), used
// by tests and the SID-selection ablation to characterise gradient tails.
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	m2, m4 := 0.0, 0.0
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return math.NaN()
	}
	return m4/(m2*m2) - 3
}
