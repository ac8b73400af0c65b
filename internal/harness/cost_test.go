//go:build linux

package harness

import (
	"math"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/simgrad"
	"repro/internal/stats"
)

// compressorCosts is the committed cost of every registry compressor in
// reference passes: the median CompressInto time over the median time
// of one dense Σ|g| pass, both on the 1M-element double-gamma gradient
// of TestCompressorCost at delta = 0.001. Both sides run interleaved on
// one thread and are timed in that thread's CPU time, so the ratio does
// not depend on how fast the machine is, and time the thread spends
// descheduled by a busy machine does not count. Each value is the
// median over 24 idle runs on a 2-CPU x86-64 Linux VM. Re-measure with
//
//	go test -count=1 -v -run '^TestCompressorCost$' ./internal/harness
//
// and commit the logged costs together with the change that moved them.
var compressorCosts = map[string]float64{
	"topk":      5.0,
	"dgc":       1.9,
	"redsync":   8.2,
	"gaussiank": 4.3,
	"sidco-e":   4.8,
	"sidco-gp":  14.3,
	"sidco-p":   3.9,
}

// costBound is the fractional excess over a committed cost that fails
// the gate: a cost above compressorCosts × (1 + costBound) is a
// regression. The largest cost measured in 24 idle runs and 24 runs
// beside a concurrent `go test ./...` was 1.47x its idle median, so the
// bound leaves room for noise and still fails a compressor that became
// more than 2x slower.
const costBound = 1.0

// costRounds is the number of interleaved reference/compressor pairs
// timed per compressor; the two medians over them give the cost.
const costRounds = 31

var absSumSink float64

// threadCPUTime reads the calling OS thread's CPU-time clock in
// seconds. Unlike the wall clock it stops while the thread is
// descheduled, so a co-tenant taking the CPU away does not show up as
// compressor cost. A failing call leaves ts zero, so every reading is
// 0 and TestCompressorCost's positive-cost check fails.
func threadCPUTime() float64 {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// TestCompressorCost is the regression gate on compressor speed. It
// times every registry compressor's warmed CompressInto against a dense
// Σ|g| loop over the same vector, interleaved call by call, and fails
// when a compressor's cost in reference passes exceeds its committed
// value by more than costBound.
func TestCompressorCost(t *testing.T) {
	if testing.Short() {
		t.Skip("compressor cost gate times 1M-element compressions; skipped in -short mode")
	}
	const dim, delta = 1_000_000, 0.001
	g := simgrad.New(simgrad.Config{
		Dim: dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01, Seed: 1,
	}).Next()
	absSum := func() {
		s := 0.0
		for _, v := range g {
			s += math.Abs(v)
		}
		absSumSink = s
	}
	for _, name := range CompressorNames {
		committed, ok := compressorCosts[name]
		if !ok {
			t.Errorf("%s: no committed cost; measure it and add it to compressorCosts", name)
			continue
		}
		comp, err := NewCompressor(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		calls, refs, _, err := timeCompress(comp, g, delta, costRounds, absSum, threadCPUTime)
		if err != nil {
			t.Fatal(err)
		}
		cost := stats.Quantile(calls, 0.5) / stats.Quantile(refs, 0.5)
		limit := committed * (1 + costBound)
		t.Logf("%-10s cost %5.2f reference passes (committed %.1f, limit %.1f)", name, cost, committed, limit)
		if !(cost > 0) {
			t.Fatalf("%s: cost %v is not a positive number; is the thread CPU clock working?", name, cost)
		}
		if cost > limit {
			t.Errorf("%s: CompressInto costs %.2f reference passes, committed %.1f, limit %.1f",
				name, cost, committed, limit)
		}
	}
}
