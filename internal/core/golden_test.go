package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/simgrad"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// selectionDigest runs s under error feedback at parallelism p for 100
// calls on a seeded simgrad stream and hashes, per call, the selection
// (indices and value bits), the threshold bits, the stages used and the
// rescue flag. It also returns how many calls the rescue fired on.
func selectionDigest(t *testing.T, s *SIDCo, p int) (digest string, rescued int) {
	t.Helper()
	const dim, delta, iters = 5 << 12, 0.001, 100
	gen := simgrad.New(simgrad.Config{
		Dim: dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01,
		ScaleDecay: 0.01, OutlierFrac: 1e-4, Seed: 13,
	})
	ec := compress.NewErrorFeedback(s)
	compress.SetParallelism(ec, p)
	g := make([]float64, dim)
	dst := &tensor.Sparse{}
	h := sha256.New()
	var rec []byte
	for it := 0; it < iters; it++ {
		gen.Fill(g)
		if err := ec.CompressInto(dst, g, delta); err != nil {
			t.Fatal(err)
		}
		rec = binary.LittleEndian.AppendUint64(rec[:0], uint64(len(dst.Idx)))
		for i, j := range dst.Idx {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(j))
			rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(dst.Vals[i]))
		}
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(s.LastThreshold()))
		rec = binary.LittleEndian.AppendUint64(rec, uint64(s.LastStagesUsed()))
		flag := byte(0)
		if s.LastRescued() {
			flag = 1
			rescued++
		}
		h.Write(append(rec, flag))
	}
	return hex.EncodeToString(h.Sum(nil)), rescued
}

// TestSelectionDigestGolden pins every bit the three SIDCo estimators
// produce under error feedback: selections, thresholds, stage counts and
// rescue decisions over 100 steps. The digests were recorded from the
// branchy-gather, two-pass-EC implementation; a change to the gather,
// the residual pass or the rescue's mean that moves any bit fails here,
// at P=1 and at P=2 alike.
func TestSelectionDigestGolden(t *testing.T) {
	golden := []struct {
		mk     func() *SIDCo
		digest string
	}{
		{NewE, "6517bb1c06923de8961164467fc16ff0648ae73d46be0d19cd15bf0a4372613c"},
		{NewGammaGP, "9b54acc4fefcc79e7c5afdd63951c9e74f281ae00aec9ebd2cd2d8fef4a577ce"},
		{NewGP, "b1ed701ca1b447baff9a3d1d5d847e5a7b7d2e331c58df04ec62997e5e3d19aa"},
	}
	for _, c := range golden {
		for _, p := range []int{1, 2} {
			s := c.mk()
			got, rescued := selectionDigest(t, s, p)
			if rescued == 0 {
				t.Errorf("%s p=%d: the rescue never fired, so the digest does not cover it", s.Name(), p)
			}
			if got != c.digest {
				t.Errorf("%s p=%d: digest %s, want %s (rescued on %d calls)", s.Name(), p, got, c.digest, rescued)
			}
		}
	}
}

// BenchmarkErrorFeedbackCompressInto times one EC-wrapped sidco-e call
// on a 2^20-element gradient: the residual pass, the multi-stage fit and
// exceedance gathers, the threshold filter and the residual update.
func BenchmarkErrorFeedbackCompressInto(b *testing.B) {
	g := sampleVec(stats.DoubleGamma{Shape: 0.6, Scale: 0.01}, 1<<20, 9)
	ec := compress.NewErrorFeedback(NewE())
	dst := &tensor.Sparse{}
	for i := 0; i < 20; i++ { // let the stage count settle and scratch grow
		if err := ec.CompressInto(dst, g, 0.001); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * len(g)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ec.CompressInto(dst, g, 0.001); err != nil {
			b.Fatal(err)
		}
	}
}
