package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/simgrad"
	"repro/internal/tensor"
)

// BenchSchema identifies the machine-readable bench record format. Bump
// the version suffix when a field changes meaning; adding fields is
// backward compatible and does not. v2 wraps the report in a
// BenchHistory trajectory and adds per-entry compression parallelism
// plus per-format wire-size/throughput rows; v1 single-report baselines
// are still read (LoadBenchHistory wraps them as one P=1 entry).
const BenchSchema = "sidco-bench/v2"

// benchSchemaV1 is the previous single-report schema, accepted on load.
const benchSchemaV1 = "sidco-bench/v1"

// BenchHistory is the committed trajectory: one entry per measurement
// configuration (at minimum single-core plus the machine's parallel
// setting), so BENCH_pipeline.json carries the perf history rather than
// a single point.
type BenchHistory struct {
	Schema  string        `json:"schema"`
	Entries []BenchReport `json:"entries"`
}

// EntryFor returns the entry measured at the given compression
// parallelism, or — when no exact match exists — the entry with the
// nearest parallelism (ties toward the lower setting). Entries without
// a recorded parallelism (v1 baselines) count as 1.
func (h *BenchHistory) EntryFor(parallelism int) (*BenchReport, error) {
	if len(h.Entries) == 0 {
		return nil, fmt.Errorf("harness: bench history has no entries")
	}
	if parallelism < 1 {
		parallelism = 1
	}
	norm := func(p int) int {
		if p < 1 {
			return 1
		}
		return p
	}
	best := 0
	for i := 1; i < len(h.Entries); i++ {
		bd := norm(h.Entries[best].Parallelism) - parallelism
		id := norm(h.Entries[i].Parallelism) - parallelism
		if bd < 0 {
			bd = -bd
		}
		if id < 0 {
			id = -id
		}
		if id < bd || (id == bd && norm(h.Entries[i].Parallelism) < norm(h.Entries[best].Parallelism)) {
			best = i
		}
	}
	return &h.Entries[best], nil
}

// BenchReport is the machine-readable perf baseline emitted by
// `sidco-micro -json` and committed as BENCH_pipeline.json: real Go
// wall-clock numbers for every compressor plus measured step time and
// exact traffic for each collective. Timings are machine-dependent
// (compare runs from the same machine); message counts are exact and
// machine-independent — PredictedMessages restates the netsim closed
// form so a reader can verify the engine against the model from the
// JSON alone.
type BenchReport struct {
	Schema      string            `json:"schema"`
	GoVersion   string            `json:"go_version"`
	GOOS        string            `json:"goos"`
	GOARCH      string            `json:"goarch"`
	Parallelism int               `json:"parallelism"`
	Compressors []CompressorBench `json:"compressors"`
	Collectives []CollectiveBench `json:"collectives"`
	Formats     []FormatBench     `json:"formats,omitempty"`
}

// FormatBench is one wire format's measured encode/decode throughput and
// exact size on a top-k selection: Bytes is the full encoded payload,
// BytesPerValue the per-element wire cost (header amortized in), and the
// MB/s columns move encoded payload bytes per wall second.
type FormatBench struct {
	Format         string  `json:"format"`
	Dim            int     `json:"dim"`
	NNZ            int     `json:"nnz"`
	Bytes          int     `json:"bytes"`
	BytesPerValue  float64 `json:"bytes_per_value"`
	EncodeMBPerSec float64 `json:"encode_mb_per_s"`
	DecodeMBPerSec float64 `json:"decode_mb_per_s"`
}

// CompressorBench is one compressor's wall-clock measurement: mean
// seconds per Compress call on a double-gamma synthetic gradient, the
// implied input throughput, and the achieved-vs-target selection ratio.
type CompressorBench struct {
	Name      string  `json:"name"`
	Dim       int     `json:"dim"`
	Delta     float64 `json:"delta"`
	Iters     int     `json:"iters"`
	MeanSec   float64 `json:"mean_sec"`
	MBPerSec  float64 `json:"mb_per_s"`
	KHatOverK float64 `json:"khat_over_k"`
}

// CollectiveBench is one collective's measured exchange: mean wall
// seconds per full exchange over the in-process ChanTransport, the
// total messages and payload bytes the instrumented transport counted
// across all iterations, and the message count the netsim closed form
// predicts for the same run. Messages must equal PredictedMessages
// exactly — the harness test asserts it.
type CollectiveBench struct {
	Collective        string  `json:"collective"`
	Workers           int     `json:"workers"`
	Chunks            int     `json:"chunks"`
	Dim               int     `json:"dim"`
	Delta             float64 `json:"delta"`
	Iters             int     `json:"iters"`
	StepWallSec       float64 `json:"step_wall_sec"`
	Messages          int     `json:"messages"`
	Bytes             int     `json:"bytes"`
	PredictedMessages int     `json:"predicted_messages"`
}

// BenchOptions scales the bench record; zero values take full defaults
// (the parameters of the committed baseline).
type BenchOptions struct {
	// Dim is the gradient dimension for compressor benches (default 1M).
	Dim int
	// Delta is the compressor target ratio (default 0.001).
	Delta float64
	// Iters is the runs averaged per compressor (default 3).
	Iters int
	// Workers is the collective fan-out (default 4).
	Workers int
	// CollectiveDim is the gradient dimension for collective benches
	// (default 65536).
	CollectiveDim int
	// CollectiveDelta is the sparsification ratio for collective benches
	// (default 0.01).
	CollectiveDelta float64
	// CollectiveIters is the exchanges averaged per collective
	// (default 3).
	CollectiveIters int
	// Seed fixes the synthetic gradient streams.
	Seed int64
	// Parallelism is the compression fan-out applied to every
	// compressor bench (compress.SetParallelism; default 1).
	Parallelism int
}

func (o BenchOptions) withDefaults() BenchOptions {
	if o.Dim <= 0 {
		o.Dim = 1_000_000
	}
	if o.Delta <= 0 {
		o.Delta = 0.001
	}
	if o.Iters <= 0 {
		o.Iters = 3
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CollectiveDim <= 0 {
		o.CollectiveDim = 65536
	}
	if o.CollectiveDelta <= 0 {
		o.CollectiveDelta = 0.01
	}
	if o.CollectiveIters <= 0 {
		o.CollectiveIters = 3
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	return o
}

// benchCollectives is the fixed matrix of collective cases recorded in
// the baseline: each ring collective once, plus the chunked pipeline at
// a chunk count where the overlap matters.
var benchCollectives = []struct {
	collective netsim.Collective
	chunks     int
}{
	{netsim.CollectiveRing, 1},
	{netsim.CollectiveAllGather, 1},
	{netsim.CollectiveAllGather, 8},
	{netsim.CollectivePS, 1},
}

// BenchRecord measures the current build and returns the report.
func BenchRecord(opt BenchOptions) (*BenchReport, error) {
	opt = opt.withDefaults()
	rep := &BenchReport{
		Schema:      BenchSchema,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Parallelism: opt.Parallelism,
	}
	for _, name := range CompressorNames {
		cb, err := compressorBench(name, opt)
		if err != nil {
			return nil, err
		}
		rep.Compressors = append(rep.Compressors, cb)
	}
	for _, c := range benchCollectives {
		cb, err := collectiveBench(c.collective, c.chunks, opt)
		if err != nil {
			return nil, err
		}
		rep.Collectives = append(rep.Collectives, cb)
	}
	fbs, err := formatBenches(opt)
	if err != nil {
		return nil, err
	}
	rep.Formats = fbs
	return rep, nil
}

// BenchHistoryRecord measures the standard trajectory: one single-core
// entry plus, when opt.Parallelism > 1, one entry at that fan-out.
func BenchHistoryRecord(opt BenchOptions) (*BenchHistory, error) {
	opt = opt.withDefaults()
	hist := &BenchHistory{Schema: BenchSchema}
	serial := opt
	serial.Parallelism = 1
	rep, err := BenchRecord(serial)
	if err != nil {
		return nil, err
	}
	hist.Entries = append(hist.Entries, *rep)
	if opt.Parallelism > 1 {
		rep, err := BenchRecord(opt)
		if err != nil {
			return nil, err
		}
		hist.Entries = append(hist.Entries, *rep)
	}
	return hist, nil
}

// benchFormats is the fixed list of wire formats recorded per entry:
// every data-independent format, lossless through the 8x-narrower int8.
var benchFormats = []encoding.Format{
	encoding.FormatPairs64, encoding.FormatPairs, encoding.FormatBitmap,
	encoding.FormatDense, encoding.FormatPairsF16, encoding.FormatPairsBF16,
	encoding.FormatPairsI8,
}

// formatBenches measures wire encode/decode throughput and exact sizes
// over a top-k selection of the collective-bench gradient.
func formatBenches(opt BenchOptions) ([]FormatBench, error) {
	gen := simgrad.New(simgrad.Config{
		Dim: opt.CollectiveDim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01, Seed: opt.Seed,
	})
	dense := make([]float64, opt.CollectiveDim)
	gen.Fill(dense)
	comp, err := NewCompressor("topk", opt.Seed)
	if err != nil {
		return nil, err
	}
	sp, err := compress.FreshCompress(comp, dense, opt.CollectiveDelta)
	if err != nil {
		return nil, err
	}
	var out []FormatBench
	var buf []byte
	var dec tensor.Sparse
	for _, f := range benchFormats {
		wantSize, err := encoding.Size(f, sp.Dim, sp.NNZ())
		if err != nil {
			return nil, err
		}
		var benchErr error
		encMean := timeIt(opt.Iters, func() {
			buf, benchErr = encoding.EncodeTo(buf[:0], sp, f)
		})
		if benchErr != nil {
			return nil, fmt.Errorf("harness: format bench %v: %w", f, benchErr)
		}
		if len(buf) != wantSize {
			return nil, fmt.Errorf("harness: format %v encoded %d bytes, Size says %d", f, len(buf), wantSize)
		}
		decMean := timeIt(opt.Iters, func() {
			benchErr = encoding.DecodeInto(&dec, buf)
		})
		if benchErr != nil {
			return nil, fmt.Errorf("harness: format bench %v decode: %w", f, benchErr)
		}
		fb := FormatBench{
			Format: f.String(), Dim: sp.Dim, NNZ: sp.NNZ(), Bytes: len(buf),
			BytesPerValue: float64(len(buf)) / float64(sp.NNZ()),
		}
		if encMean > 0 {
			fb.EncodeMBPerSec = float64(len(buf)) / encMean / 1e6
		}
		if decMean > 0 {
			fb.DecodeMBPerSec = float64(len(buf)) / decMean / 1e6
		}
		out = append(out, fb)
	}
	return out, nil
}

func compressorBench(name string, opt BenchOptions) (CompressorBench, error) {
	comp, err := NewCompressor(name, opt.Seed)
	if err != nil {
		return CompressorBench{}, err
	}
	if opt.Parallelism > 1 {
		compress.SetParallelism(comp, opt.Parallelism)
	}
	gen := simgrad.New(simgrad.Config{
		Dim: opt.Dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01, Seed: opt.Seed,
	})
	g := gen.Next()
	k := compress.TargetK(opt.Dim, opt.Delta)
	var s tensor.Sparse
	var benchErr error
	mean := timeIt(opt.Iters, func() {
		if err := comp.CompressInto(&s, g, opt.Delta); err != nil {
			benchErr = err
		}
	})
	if benchErr != nil {
		return CompressorBench{}, fmt.Errorf("harness: bench %s: %w", name, benchErr)
	}
	mbps := 0.0
	if mean > 0 {
		mbps = float64(opt.Dim) * 8 / mean / 1e6
	}
	return CompressorBench{
		Name: name, Dim: opt.Dim, Delta: opt.Delta, Iters: opt.Iters,
		MeanSec: mean, MBPerSec: mbps, KHatOverK: float64(s.NNZ()) / float64(k),
	}, nil
}

// predictedMessages returns the netsim closed-form message count of one
// exchange: the rings put n sending nodes on the wire, the parameter
// server's formula already counts both sides.
func predictedMessages(c netsim.Collective, workers, chunks int) int {
	switch c {
	case netsim.CollectiveRing:
		return workers * netsim.RingMessages(workers)
	case netsim.CollectiveAllGather:
		return workers * netsim.ChunkedAllGatherMessages(workers, chunks)
	case netsim.CollectivePS:
		return netsim.PSMessages(workers)
	default:
		return 0
	}
}

func collectiveBench(c netsim.Collective, chunks int, opt BenchOptions) (CollectiveBench, error) {
	e, err := cluster.New(cluster.NodeConfig{
		Workers:    opt.Workers,
		Collective: c,
		Chunks:     chunks,
	})
	if err != nil {
		return CollectiveBench{}, err
	}
	defer e.Close()

	gen := simgrad.New(simgrad.Config{
		Dim: opt.CollectiveDim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01, Seed: opt.Seed,
	})
	comp, err := NewCompressor("topk", opt.Seed)
	if err != nil {
		return CollectiveBench{}, err
	}
	ins := make([]dist.ExchangeInput, opt.Workers)
	for w := range ins {
		dense := make([]float64, opt.CollectiveDim)
		gen.Fill(dense)
		sp, err := compress.FreshCompress(comp, dense, opt.CollectiveDelta)
		if err != nil {
			return CollectiveBench{}, err
		}
		ins[w] = dist.ExchangeInput{Worker: w, Dense: dense, Sparse: sp}
	}
	agg := make([]float64, opt.CollectiveDim)

	// One untimed, uncounted warm-up exchange fills per-node scratch so
	// the timed loop measures steady state.
	if err := e.Exchange(0, ins, agg); err != nil {
		return CollectiveBench{}, err
	}
	e.Transport().Reset()

	step := 1
	var benchErr error
	mean := timeIt(opt.CollectiveIters, func() {
		if err := e.Exchange(step, ins, agg); err != nil {
			benchErr = err
		}
		step++
	})
	if benchErr != nil {
		return CollectiveBench{}, fmt.Errorf("harness: bench %s: %w", c, benchErr)
	}
	msgs, bytes := e.Transport().Totals()
	return CollectiveBench{
		Collective: c.String(), Workers: opt.Workers, Chunks: chunks,
		Dim: opt.CollectiveDim, Delta: opt.CollectiveDelta, Iters: opt.CollectiveIters,
		StepWallSec: mean, Messages: msgs, Bytes: bytes,
		PredictedMessages: opt.CollectiveIters * predictedMessages(c, opt.Workers, chunks),
	}, nil
}

// WriteBenchJSON runs BenchHistoryRecord and writes the indented JSON
// trajectory, trailing newline included — the exact bytes committed as
// BENCH_pipeline.json.
func WriteBenchJSON(w io.Writer, opt BenchOptions) error {
	hist, err := BenchHistoryRecord(opt)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(hist)
}
