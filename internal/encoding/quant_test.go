package encoding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// TestF16RoundTripExhaustive walks every binary16 bit pattern: decoding
// to float32 and re-encoding must reproduce the pattern exactly (the
// idempotency DecodeInto/EncodeTo reuse paths rely on), except that
// non-canonical NaN payloads collapse to the canonical quiet NaN.
func TestF16RoundTripExhaustive(t *testing.T) {
	for h := 0; h <= 0xFFFF; h++ {
		v := f16ToF32(uint16(h))
		got := f32ToF16(v)
		isNaN := h&0x7C00 == 0x7C00 && h&0x3FF != 0
		if isNaN {
			if got&0x7C00 != 0x7C00 || got&0x3FF == 0 {
				t.Fatalf("NaN %#04x decoded+re-encoded to non-NaN %#04x", h, got)
			}
			continue
		}
		if got != uint16(h) {
			t.Fatalf("binary16 %#04x -> %v -> %#04x, not idempotent", h, v, got)
		}
	}
}

// TestBF16RoundTripExhaustive is the bfloat16 analogue.
func TestBF16RoundTripExhaustive(t *testing.T) {
	for h := 0; h <= 0xFFFF; h++ {
		v := bf16ToF32(uint16(h))
		got := f32ToBF16(v)
		isNaN := h&0x7F80 == 0x7F80 && h&0x7F != 0
		if isNaN {
			if got&0x7F80 != 0x7F80 || got&0x7F == 0 {
				t.Fatalf("NaN %#04x decoded+re-encoded to non-NaN %#04x", h, got)
			}
			continue
		}
		if got != uint16(h) {
			t.Fatalf("bfloat16 %#04x -> %v -> %#04x, not idempotent", h, v, got)
		}
	}
}

// TestF16ConversionBounds property-checks the float32 -> binary16
// rounding error: for finite inputs inside binary16's normal range the
// relative error is bounded by half a 10-bit ULP, and specials map to
// specials.
func TestF16ConversionBounds(t *testing.T) {
	check := func(x float32) bool {
		h := f32ToF16(x)
		back := float64(f16ToF32(h))
		fx := float64(x)
		switch {
		case math.IsNaN(fx):
			return math.IsNaN(back)
		case math.IsInf(fx, 0) || math.Abs(fx) >= 65520: // overflow threshold
			return math.IsInf(back, int(math.Copysign(1, fx)))
		case math.Abs(fx) < 65504 && math.Abs(fx) >= 6.103515625e-05: // normal range
			return math.Abs(back-fx) <= math.Abs(fx)*(1.0/2048)
		default: // subnormal range: absolute error at most half the smallest step
			return math.Abs(back-fx) <= 5.960464477539063e-08/2
		}
	}
	cfg := &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestI8QuantizationInvariants property-checks the absmax-scaled int8
// scheme over random value streams mixed with specials: decoded values
// stay on the step grid within ±127 steps, finite values with a normal
// step land within half a step of the input, NaN maps to 0, ±Inf
// saturates, and a stream with no finite non-zero value decodes all-zero.
func TestI8QuantizationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(10) {
			case 0:
				vals[i] = math.NaN()
			case 1:
				vals[i] = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				vals[i] = 0
			default:
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
			}
		}
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		s := &tensor.Sparse{Dim: n, Idx: idx, Vals: vals}

		buf, err := Encode(s, FormatPairsI8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		step := float64(i8Step(vals))
		for i, v := range vals {
			dec := got.Vals[i]
			q := 0.0
			if step > 0 {
				q = dec / step
			}
			if math.Abs(q) > 127 || q != math.Trunc(q) {
				t.Fatalf("trial %d: decoded %v is not an int8 multiple of step %v", trial, dec, step)
			}
			switch {
			case math.IsNaN(v):
				if dec != 0 {
					t.Fatalf("trial %d: NaN decoded to %v, want 0", trial, dec)
				}
			case math.IsInf(v, 0):
				if want := math.Copysign(127*step, v); dec != want {
					t.Fatalf("trial %d: %v decoded to %v, want %v", trial, v, dec, want)
				}
			default:
				// Finite values: within half a step of the input whenever the
				// step is a normal float32 (subnormal steps can be off the
				// ideal absmax/127 by up to 2x, loosening the bound).
				if step >= math.SmallestNonzeroFloat32*(1<<23) && math.Abs(dec-v) > step*0.5000001 {
					t.Fatalf("trial %d: %v decoded to %v, off by more than step/2 (%v)", trial, v, dec, step)
				}
			}
		}

		// RoundTripValues must agree with the wire bit for bit: it is what
		// error feedback uses to pre-absorb the quantization residual.
		rt := append([]float64(nil), vals...)
		if err := RoundTripValues(FormatPairsI8, rt); err != nil {
			t.Fatal(err)
		}
		for i := range rt {
			if math.Float64bits(rt[i]) != math.Float64bits(got.Vals[i]) {
				t.Fatalf("trial %d: RoundTripValues[%d]=%v, wire decode=%v", trial, i, rt[i], got.Vals[i])
			}
		}
	}
}

// TestI8DegenerateStreams pins the all-zero / nothing-finite edge cases:
// the stored step is 0 and every value decodes to exactly 0, including
// infinities (there is no magnitude to scale them against).
func TestI8DegenerateStreams(t *testing.T) {
	for _, vals := range [][]float64{
		{0, 0, 0},
		{math.NaN(), math.NaN()},
		{math.Inf(1), math.NaN(), math.Inf(-1)},
		{},
	} {
		idx := make([]int32, len(vals))
		for i := range idx {
			idx[i] = int32(i)
		}
		s := &tensor.Sparse{Dim: len(vals) + 1, Idx: idx, Vals: vals}
		if step := i8Step(vals); step != 0 {
			t.Fatalf("vals %v: step %v, want 0", vals, step)
		}
		buf, err := Encode(s, FormatPairsI8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Vals {
			if v != 0 {
				t.Fatalf("vals %v: decoded[%d]=%v, want 0", vals, i, v)
			}
		}
	}
}

// TestRoundTripValuesMatchesWire checks, for every pair-layout format,
// that RoundTripValues applied to a copy of the values equals the
// encode+decode pipeline bitwise. This equality is the error-feedback
// wire-exactness contract.
func TestRoundTripValuesMatchesWire(t *testing.T) {
	s := randomSparse(t, 2000, 120, 3)
	for i := range s.Vals {
		// Break the float32-exactness of randomSparse so the lossy formats
		// actually round.
		s.Vals[i] += 1e-9 * float64(i)
	}
	for _, f := range []Format{FormatPairs, FormatBitmap, FormatDeltaVarint,
		FormatPairs64, FormatPairsF16, FormatPairsBF16, FormatPairsI8} {
		buf, err := Encode(s, f)
		if err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		if got.NNZ() != s.NNZ() {
			t.Fatalf("format %d: nnz %d, want %d", f, got.NNZ(), s.NNZ())
		}
		rt := append([]float64(nil), s.Vals...)
		if err := RoundTripValues(f, rt); err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		for i := range rt {
			if math.Float64bits(rt[i]) != math.Float64bits(got.Vals[i]) {
				t.Fatalf("format %d: RoundTripValues[%d]=%v, wire decode=%v", f, i, rt[i], got.Vals[i])
			}
		}
	}
}

// TestQuantizedSizesMatchAccounting pins the closed-form sizes of the
// quantized formats and the Size dispatcher against real encodings.
func TestQuantizedSizesMatchAccounting(t *testing.T) {
	s := randomSparse(t, 777, 33, 2)
	for f, want := range map[Format]int{
		FormatPairsF16:  PairsF16Size(777, 33),
		FormatPairsBF16: PairsBF16Size(777, 33),
		FormatPairsI8:   PairsI8Size(777, 33),
		FormatPairs64:   Pairs64Size(777, 33),
		FormatPairs:     PairsSize(777, 33),
		FormatBitmap:    BitmapSize(777, 33),
		FormatDense:     DenseSize(777),
	} {
		buf, err := Encode(s, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != want {
			t.Errorf("format %d: size %d, want %d", f, len(buf), want)
		}
		if sz, err := Size(f, 777, 33); err != nil || sz != want {
			t.Errorf("Size(%d) = %d, %v; want %d", f, sz, err, want)
		}
	}
	if _, err := Size(FormatDeltaVarint, 777, 33); err == nil {
		t.Error("Size(FormatDeltaVarint) should report data-dependent size")
	}
}

// TestBestFormatPrecisionAware exercises the precision-class rules: the
// requested value format caps how narrow BestFormat may go, binary16
// and bfloat16 never substitute for each other, and float64 requests
// always get the lossless format.
func TestBestFormatPrecisionAware(t *testing.T) {
	d := 100000
	k := d / 1000
	if f, sz := BestFormat(d, k, FormatPairsI8); f != FormatPairsI8 || sz != PairsI8Size(d, k) {
		t.Errorf("i8 request: got format %d size %d", f, sz)
	}
	if f, _ := BestFormat(d, k, FormatPairsF16); f != FormatPairsF16 {
		t.Errorf("f16 request: got format %d (bf16 must not substitute)", f)
	}
	if f, _ := BestFormat(d, k, FormatPairsBF16); f != FormatPairsBF16 {
		t.Errorf("bf16 request: got format %d (f16 must not substitute)", f)
	}
	if f, _ := BestFormat(d, k, FormatPairs64); f != FormatPairs64 {
		t.Errorf("f64 request: got format %d, want lossless", f)
	}
	// A float32 request at full density must still fall through to dense,
	// never to a narrower format.
	if f, _ := BestFormat(d, d, FormatPairs); f != FormatDense {
		t.Errorf("f32 dense request: got format %d", f)
	}
	// At full density an i8 request prefers whatever is smallest overall;
	// the i8 pair format (5 B/value + step) still beats dense (4 B/value)
	// only below ~4/5 density, so dense wins here.
	if f, _ := BestFormat(d, d, FormatPairsI8); f != FormatDense {
		t.Errorf("i8 full-density request: got format %d, want dense", f)
	}
}
