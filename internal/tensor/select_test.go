package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopKSelectMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(400)
		g := make([]float64, d)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		k := 1 + rng.Intn(d)
		qi, qv := TopKSelect(g, k)
		si, sv := TopKSort(g, k)
		if len(qi) != k || len(si) != k {
			t.Fatalf("trial %d: lengths %d %d, want %d", trial, len(qi), len(si), k)
		}
		// The kept index sets may differ only on magnitude ties; compare
		// the multiset of magnitudes instead.
		qm := magnitudes(qv)
		sm := magnitudes(sv)
		for i := range qm {
			if math.Abs(qm[i]-sm[i]) > 1e-15 {
				t.Fatalf("trial %d: magnitude sets differ: %v vs %v", trial, qm, sm)
			}
		}
		// Values must come from g at the reported indices.
		for i, j := range qi {
			if g[j] != qv[i] {
				t.Fatalf("value mismatch at idx %d", j)
			}
		}
	}
}

func magnitudes(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = math.Abs(v)
	}
	sort.Float64s(out)
	return out
}

func TestTopKSelectEdgeCases(t *testing.T) {
	if idx, vals := TopKSelect(nil, 3); idx != nil || vals != nil {
		t.Error("empty input should return nil")
	}
	if idx, _ := TopKSelect([]float64{1, 2}, 0); idx != nil {
		t.Error("k=0 should return nil")
	}
	idx, vals := TopKSelect([]float64{1, -2}, 10)
	if len(idx) != 2 || vals[1] != -2 {
		t.Errorf("k > d should return all: %v %v", idx, vals)
	}
}

func TestTopKSelectWithTies(t *testing.T) {
	g := []float64{1, -1, 1, -1, 1}
	idx, vals := TopKSelect(g, 3)
	if len(idx) != 3 || len(vals) != 3 {
		t.Fatalf("ties: got %d elements, want 3", len(idx))
	}
	// Indices must be ascending and unique.
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("indices not ascending: %v", idx)
		}
	}
}

func TestTopKSelectIndicesAscending(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		g := sanitize(raw)
		if len(g) == 0 {
			return true
		}
		k := int(kRaw)%len(g) + 1
		idx, vals := TopKSelect(g, k)
		if len(idx) != k || len(vals) != k {
			return false
		}
		for i := 1; i < len(idx); i++ {
			if idx[i] <= idx[i-1] {
				return false
			}
		}
		for i, j := range idx {
			if g[j] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSelectKth(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for k := 1; k <= 5; k++ {
		cp := Clone(xs)
		got := QuickSelectKth(cp, k)
		want := float64(6 - k) // k-th largest of 1..5
		if got != want {
			t.Errorf("k=%d: got %v, want %v", k, got, want)
		}
	}
}

func TestQuickSelectKthRandomMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		k := 1 + rng.Intn(n)
		sorted := Clone(xs)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		got := QuickSelectKth(Clone(xs), k)
		if got != sorted[k-1] {
			t.Fatalf("trial %d: QuickSelectKth(%d) = %v, want %v", trial, k, got, sorted[k-1])
		}
	}
}

func TestQuickSelectKthPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			QuickSelectKth([]float64{1, 2}, k)
		}()
	}
}

func TestRadixSelectAbsKthMatchesQuickSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 90; trial++ {
		// Below 1<<14 RadixSelectAbsKth takes the quickselect fallback;
		// mix small sizes with ones large enough to drive the radix path
		// proper.
		n := 1 + rng.Intn(300)
		if trial%3 == 0 {
			n = 1<<14 + rng.Intn(1<<14)
		}
		g := make([]float64, n)
		for i := range g {
			switch rng.Intn(10) {
			case 0:
				g[i] = 0 // exercise equal-bucket paths
			case 1:
				g[i] = math.Copysign(1.5, rng.NormFloat64()) // duplicates
			default:
				g[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
		k := 1 + rng.Intn(n)
		abs := make([]float64, n)
		for i, gi := range g {
			abs[i] = math.Abs(gi)
		}
		want := QuickSelectKth(abs, k)
		if got := RadixSelectAbsKth(g, k); got != want {
			t.Fatalf("trial %d (n=%d k=%d): radix %v, quickselect %v", trial, n, k, got, want)
		}
	}
}

func TestRadixSelectAbsKthPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			RadixSelectAbsKth([]float64{1, 2}, k)
		}()
	}
}

func TestTopKThreshold(t *testing.T) {
	g := []float64{0.1, -0.9, 0.5, -0.3}
	if got := TopKThreshold(g, 2); got != 0.5 {
		t.Errorf("threshold = %v, want 0.5", got)
	}
	if got := TopKThreshold(g, 4); got != 0 {
		t.Errorf("k=d threshold = %v, want 0", got)
	}
	if got := TopKThreshold(g, 0); !math.IsInf(got, 1) {
		t.Errorf("k=0 threshold = %v, want +Inf", got)
	}
	// The input must not be reordered.
	if g[0] != 0.1 || g[1] != -0.9 {
		t.Error("TopKThreshold modified its input")
	}
}

func TestTopKThresholdSelectsExactlyK(t *testing.T) {
	// With distinct magnitudes, count(|g| >= threshold) == k.
	rng := rand.New(rand.NewSource(23))
	g := make([]float64, 500)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	for _, k := range []int{1, 5, 50, 499} {
		eta := TopKThreshold(g, k)
		if got := CountAboveThreshold(g, eta); got != k {
			t.Errorf("k=%d: count = %d", k, got)
		}
	}
}

func TestSortedAbsDescending(t *testing.T) {
	g := []float64{0.3, -1.2, 0.7}
	got := SortedAbsDescending(g)
	want := []float64{1.2, 0.7, 0.3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedAbsDescending = %v", got)
		}
	}
	if g[1] != -1.2 {
		t.Error("input was modified")
	}
}

func BenchmarkTopKSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	g := make([]float64, 1<<20)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	k := len(g) / 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKSelect(g, k)
	}
}

func BenchmarkTopKSort(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	g := make([]float64, 1<<20)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	k := len(g) / 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKSort(g, k)
	}
}

func BenchmarkRadixSelectAbsKth(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	g := make([]float64, 1<<20)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	k := len(g) / 1000
	b.SetBytes(int64(8 * len(g)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RadixSelectAbsKth(g, k)
	}
}

func BenchmarkCountAboveThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	g := make([]float64, 1<<20)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountAboveThreshold(g, 2.5)
	}
}

// BenchmarkValuesAboveThreshold times the exceedance gather over 2^20
// Laplace values at SIDCo's first-stage selectivity (delta1 = 25%) and
// at a final-stage one (0.1%).
func BenchmarkValuesAboveThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	g := make([]float64, 1<<20)
	for i := range g {
		g[i] = rng.ExpFloat64()
		if rng.Intn(2) == 0 {
			g[i] = -g[i]
		}
	}
	for _, sel := range []float64{0.25, 0.001} {
		b.Run(fmt.Sprintf("sel=%v", sel), func(b *testing.B) {
			eta := math.Log(1 / sel) // P(|x| > eta) = exp(-eta) for unit Laplace
			dst := ValuesAboveThreshold(g, eta, nil)
			b.SetBytes(int64(8 * len(g)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = ValuesAboveThreshold(g, eta, dst[:0])
			}
		})
	}
}
