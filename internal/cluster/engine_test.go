package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// randomInputs builds per-worker dense gradients plus top-k selections.
func randomInputs(t *testing.T, workers, dim int, delta float64, seed int64) []dist.ExchangeInput {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ins := make([]dist.ExchangeInput, workers)
	for w := range ins {
		dense := make([]float64, dim)
		for i := range dense {
			dense[i] = rng.NormFloat64()
		}
		ins[w] = dist.ExchangeInput{Worker: w, Dense: dense}
		if delta > 0 {
			s, err := compress.FreshCompress(compress.NewTopK(), dense, delta)
			if err != nil {
				t.Fatal(err)
			}
			ins[w].Sparse = s
		}
	}
	return ins
}

func engineExchange(t *testing.T, cfg Config, ins []dist.ExchangeInput, dim int) ([]float64, *Engine) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := make([]float64, dim)
	if err := e.Exchange(0, ins, agg); err != nil {
		e.Close()
		t.Fatal(err)
	}
	return agg, e
}

func TestEngineMatchesInProcessBitwise(t *testing.T) {
	const dim = 513 // odd: uneven ring chunks
	for _, workers := range []int{1, 2, 4, 7} {
		ins := randomInputs(t, workers, dim, 0.05, int64(workers))
		want := make([]float64, dim)
		if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
			t.Fatal(err)
		}
		for _, coll := range []netsim.Collective{netsim.CollectiveAllGather, netsim.CollectivePS} {
			got, e := engineExchange(t, Config{Workers: workers, Collective: coll, Verify: true}, ins, dim)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d %v: element %d = %v, want %v (must be bit-identical)",
						workers, coll, i, got[i], want[i])
				}
			}
			e.Close()
		}
	}
}

func TestEngineRingDenseMatchesWithinReassociation(t *testing.T) {
	const dim = 257
	workers := 4
	ins := randomInputs(t, workers, dim, 0, 9)
	want := make([]float64, dim)
	if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
		t.Fatal(err)
	}
	got, e := engineExchange(t, Config{Workers: workers, Collective: netsim.CollectiveRing, Verify: true}, ins, dim)
	defer e.Close()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("element %d = %v, want %v within reassociation tolerance", i, got[i], want[i])
		}
	}
}

func TestEngineAutoMirrorsNetsim(t *testing.T) {
	const dim = 128
	workers := 3
	// Sparse inputs under Auto take the all-gather schedule: N-1 messages
	// per node and no server.
	ins := randomInputs(t, workers, dim, 0.1, 3)
	_, e := engineExchange(t, Config{Workers: workers, Collective: netsim.CollectiveAuto}, ins, dim)
	msgs, _ := e.Transport().Totals()
	if want := workers * netsim.AllGatherMessages(workers); msgs != want {
		t.Errorf("auto sparse: %d messages, want %d", msgs, want)
	}
	e.Close()
	// Dense inputs take the ring schedule.
	for i := range ins {
		ins[i].Sparse = nil
	}
	_, e = engineExchange(t, Config{Workers: workers, Collective: netsim.CollectiveAuto}, ins, dim)
	msgs, _ = e.Transport().Totals()
	if want := workers * netsim.RingMessages(workers); msgs != want {
		t.Errorf("auto dense: %d messages, want %d", msgs, want)
	}
	e.Close()
}

func TestEngineBytesPerStepMatchEncodingAccounting(t *testing.T) {
	const dim = 400
	workers := 4
	ins := randomInputs(t, workers, dim, 0.05, 11)
	nnz := ins[0].Sparse.NNZ()
	for _, in := range ins {
		if in.Sparse.NNZ() != nnz {
			t.Fatalf("top-k nnz not uniform: %d vs %d", in.Sparse.NNZ(), nnz)
		}
	}

	t.Run("allgather-pairs64", func(t *testing.T) {
		_, e := engineExchange(t, Config{Workers: workers, Collective: netsim.CollectiveAllGather}, ins, dim)
		defer e.Close()
		_, bytes := e.Transport().Totals()
		// Each worker's encoded buffer traverses N-1 links.
		if want := (workers - 1) * workers * encoding.Pairs64Size(dim, nnz); bytes != want {
			t.Errorf("measured %d bytes, encoding accounting says %d", bytes, want)
		}
	})
	t.Run("allgather-pairs32", func(t *testing.T) {
		_, e := engineExchange(t, Config{
			Workers: workers, Collective: netsim.CollectiveAllGather, Format: WirePairs,
		}, ins, dim)
		defer e.Close()
		_, bytes := e.Transport().Totals()
		if want := (workers - 1) * workers * encoding.PairsSize(dim, nnz); bytes != want {
			t.Errorf("measured %d bytes, encoding accounting says %d", bytes, want)
		}
	})
	t.Run("ps-pairs64", func(t *testing.T) {
		e, err := New(Config{Workers: workers, Collective: netsim.CollectivePS})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		agg := make([]float64, dim)
		if err := e.Exchange(0, ins, agg); err != nil {
			t.Fatal(err)
		}
		aggNNZ := 0
		for _, v := range agg {
			if v != 0 {
				aggNNZ++
			}
		}
		_, bytes := e.Transport().Totals()
		want := workers*encoding.Pairs64Size(dim, nnz) + workers*encoding.Pairs64Size(dim, aggNNZ)
		if bytes != want {
			t.Errorf("measured %d bytes, encoding accounting says %d", bytes, want)
		}
		msgs, _ := e.Transport().Totals()
		if msgs != netsim.PSMessages(workers) {
			t.Errorf("%d messages, want %d", msgs, netsim.PSMessages(workers))
		}
	})
	t.Run("parallel-decode-same-traffic", func(t *testing.T) {
		var msgs, bytes [2]int
		for i, p := range []int{1, 4} {
			_, e := engineExchange(t, Config{
				Workers: workers, Collective: netsim.CollectiveAllGather, Chunks: 8, Parallelism: p,
			}, ins, dim)
			msgs[i], bytes[i] = e.Transport().Totals()
			e.Close()
		}
		if msgs[0] != msgs[1] || bytes[0] != bytes[1] {
			t.Errorf("traffic changed with parallelism: P=1 %d msgs/%d bytes, P=4 %d/%d",
				msgs[0], bytes[0], msgs[1], bytes[1])
		}
		if want := netsim.ExchangeMessages(netsim.CollectiveAllGather, workers, 8); msgs[1] != want {
			t.Errorf("P=4: %d messages, want %d", msgs[1], want)
		}
	})
	t.Run("reset-isolates-steps", func(t *testing.T) {
		e, err := New(Config{Workers: workers, Collective: netsim.CollectiveAllGather})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		agg := make([]float64, dim)
		perStep := (workers - 1) * workers * encoding.Pairs64Size(dim, nnz)
		for step := 0; step < 3; step++ {
			e.Transport().Reset()
			if err := e.Exchange(step, ins, agg); err != nil {
				t.Fatal(err)
			}
			if _, bytes := e.Transport().Totals(); bytes != perStep {
				t.Fatalf("step %d: %d bytes, want %d", step, bytes, perStep)
			}
		}
	})
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(Config{Workers: 0}); err == nil {
		t.Error("0 workers should error")
	}
	if _, err := New(Config{Workers: 2, Collective: netsim.Collective(99)}); err == nil {
		t.Error("unknown collective should error")
	}
	small, _ := NewChanTransport(2)
	if _, err := New(Config{Workers: 2, Collective: netsim.CollectivePS, Transport: small}); err == nil {
		t.Error("PS needs workers+1 transport nodes")
	}
	if _, err := New(Config{Workers: 2, Rank: 1}); err == nil {
		t.Error("a Rank should error: the Engine assigns ranks")
	}
	if _, err := New(Config{Workers: 2, StepTimeout: time.Second, MaxStepRetries: 1}); err == nil {
		t.Error("MaxStepRetries should error: the Engine is fail-stop")
	}
	e, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exchange(0, make([]dist.ExchangeInput, 3), make([]float64, 4)); err == nil {
		t.Error("wrong input count should error")
	}
	e.Close()
	if err := e.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	ins := randomInputs(t, 2, 4, 0, 1)
	if err := e.Exchange(0, ins, make([]float64, 4)); err == nil {
		t.Error("exchange on closed engine should error")
	}
}

func TestEngineFailStopOnBadInput(t *testing.T) {
	// A worker whose dense gradient disagrees with the aggregation
	// dimension must fail the round and leave the engine closed, not
	// deadlocked.
	e, err := New(Config{Workers: 3, Collective: netsim.CollectiveRing})
	if err != nil {
		t.Fatal(err)
	}
	ins := randomInputs(t, 3, 64, 0, 5)
	ins[1].Dense = ins[1].Dense[:10]
	if err := e.Exchange(0, ins, make([]float64, 64)); err == nil {
		t.Fatal("mismatched gradient accepted")
	}
	if err := e.Exchange(1, randomInputs(t, 3, 64, 0, 6), make([]float64, 64)); err == nil {
		t.Error("engine should be fail-stopped after a broken round")
	}
}

// tinyTrainerCfg builds the configuration of a small dense-net trainer,
// shared by the single-process bit-identity sweeps (workers trainers in
// one process, firstWorker 0) and the per-process node deployments of
// the TCP tests (Workers=1 trainers whose firstWorker is the rank) — one
// builder, so the two setups cannot drift apart.
func tinyTrainerCfg(workers, firstWorker int, comp string, delta float64, seed int64, ex dist.GradientExchange) dist.TrainerConfig {
	rng := rand.New(rand.NewSource(seed))
	model := nn.NewSequential(
		nn.NewDense("d1", 12, 10, rng),
		&nn.ReLU{},
		nn.NewDense("d2", 10, 4, rng),
	)
	var factory func() compress.Compressor
	if comp != "" {
		factory = func() compress.Compressor { return registryCompressor(comp, seed) }
	}
	return dist.TrainerConfig{
		Workers:     workers,
		FirstWorker: firstWorker,
		Model:       model,
		Loss:        &nn.SoftmaxCrossEntropy{},
		Opt:         &nn.SGD{LR: 0.05},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			x := nn.NewTensor(8, 12)
			targets := make([]int, 8)
			for i := range targets {
				targets[i] = rng.Intn(4)
				for j := 0; j < 12; j++ {
					x.Data[i*12+j] = rng.NormFloat64() + float64(targets[i])
				}
			}
			return x, targets
		},
		NewCompressor: factory,
		Delta:         delta,
		EC:            comp != "",
		Seed:          seed,
		Exchange:      ex,
	}
}

// tinyTrainer builds a small dense-net trainer so the bit-identity sweep
// over every registry compressor stays fast.
func tinyTrainer(t *testing.T, workers int, comp string, delta float64, seed int64, ex dist.GradientExchange) *dist.Trainer {
	t.Helper()
	tr, err := dist.NewTrainer(tinyTrainerCfg(workers, 0, comp, delta, seed, ex))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTrainerOverChannelTransportBitIdentical is the tentpole acceptance
// check: training over the channel transport must yield bit-identical
// per-iteration losses (and final weights) to the in-process Trainer for
// a fixed seed, across every compressor in the registry, on both the
// all-gather and parameter-server collectives.
func TestTrainerOverChannelTransportBitIdentical(t *testing.T) {
	const workers, iters = 4, 5
	run := func(comp string, ex dist.GradientExchange) ([]float64, []float64) {
		tr := tinyTrainer(t, workers, comp, 0.1, 42, ex)
		losses, _, err := tr.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		return losses, nn.FlattenWeights(tr.Params(), nil)
	}
	for _, comp := range registryNames {
		for _, coll := range []netsim.Collective{netsim.CollectiveAllGather, netsim.CollectivePS} {
			t.Run(fmt.Sprintf("%s-%v", comp, coll), func(t *testing.T) {
				e, err := New(Config{Workers: workers, Collective: coll, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				wantLoss, wantW := run(comp, nil)
				gotLoss, gotW := run(comp, e)
				for i := range wantLoss {
					if gotLoss[i] != wantLoss[i] {
						t.Fatalf("loss[%d] = %v, want %v (bit-identical)", i, gotLoss[i], wantLoss[i])
					}
				}
				for i := range wantW {
					if gotW[i] != wantW[i] {
						t.Fatalf("weight[%d] = %v, want %v (bit-identical)", i, gotW[i], wantW[i])
					}
				}
			})
		}
	}
}

// TestTrainerDenseRingConverges covers the dense cluster path: ring
// all-reduce reassociates float addition, so losses track the in-process
// run closely but not bitwise.
func TestTrainerDenseRingConverges(t *testing.T) {
	const workers, iters = 4, 8
	e, err := New(Config{Workers: workers, Collective: netsim.CollectiveRing, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref := tinyTrainer(t, workers, "", 0, 7, nil)
	wantLoss, _, err := ref.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	tr := tinyTrainer(t, workers, "", 0, 7, e)
	gotLoss, _, err := tr.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLoss {
		if math.Abs(gotLoss[i]-wantLoss[i]) > 1e-9 {
			t.Fatalf("loss[%d] = %v, want %v within ring tolerance", i, gotLoss[i], wantLoss[i])
		}
	}
}

func TestSparsifyKeepsExactSupport(t *testing.T) {
	dense := []float64{0, 1.5, 0, -2, 0, 1e-300}
	s := &tensor.Sparse{}
	sparsifyInto(s, len(dense), dense)
	if s.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", s.NNZ())
	}
	back := make([]float64, len(dense))
	s.AddTo(back)
	for i := range dense {
		if back[i] != dense[i] {
			t.Errorf("element %d = %v, want %v", i, back[i], dense[i])
		}
	}
	if _, err := tensor.NewSparse(3, []int32{0, 1, 2}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

// registryNames mirrors harness.CompressorNames; the cluster tests keep
// their own copy because harness now depends on this package (the chunk
// study), and a test-only import back into harness would be a cycle.
var registryNames = []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e", "sidco-gp", "sidco-p"}

// registryCompressor mirrors harness.NewCompressor for the names above.
func registryCompressor(name string, seed int64) compress.Compressor {
	switch name {
	case "topk":
		return compress.NewTopK()
	case "dgc":
		return compress.NewDGC(seed)
	case "redsync":
		return compress.NewRedSync()
	case "gaussiank":
		return compress.NewGaussianKSGD()
	case "sidco-e":
		return core.NewE()
	case "sidco-gp":
		return core.NewGammaGP()
	case "sidco-p":
		return core.NewGP()
	default:
		panic("unknown registry compressor " + name)
	}
}

// TestChunkedMatchesMonolithicProperty is the chunked-mode property
// test: over random gradients, the chunked all-gather aggregate must be
// bit-identical to the monolithic one for the deterministic compressors
// (topk) and for seeded DGC — the chunk split partitions the already-
// selected support, so no compressor randomness can diverge between the
// two schedules.
func TestChunkedMatchesMonolithicProperty(t *testing.T) {
	const workers = 4
	for trial := 0; trial < 8; trial++ {
		dim := 200 + 157*trial // non-power-of-two dims exercise uneven chunk bounds
		delta := []float64{0.01, 0.05, 0.2}[trial%3]
		for _, compName := range []string{"topk", "dgc"} {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			ins := make([]dist.ExchangeInput, workers)
			for w := range ins {
				dense := make([]float64, dim)
				for i := range dense {
					dense[i] = rng.NormFloat64()
				}
				// One compressor per worker, seeded per (trial, worker):
				// DGC consumes randomness, so both schedules must see the
				// same pre-computed selection.
				s, err := compress.FreshCompress(registryCompressor(compName, int64(trial*10+w)), dense, delta)
				if err != nil {
					t.Fatal(err)
				}
				ins[w] = dist.ExchangeInput{Worker: w, Dense: dense, Sparse: s}
			}
			mono, e1 := engineExchange(t, Config{Workers: workers, Collective: netsim.CollectiveAllGather}, ins, dim)
			e1.Close()
			for _, chunks := range []int{2, 3, 8, 64} {
				got, e := engineExchange(t, Config{
					Workers: workers, Collective: netsim.CollectiveAllGather, Chunks: chunks, Verify: true,
				}, ins, dim)
				e.Close()
				for i := range mono {
					if got[i] != mono[i] {
						t.Fatalf("%s trial %d chunks %d: element %d = %v, want %v (bit-identity broken)",
							compName, trial, chunks, i, got[i], mono[i])
					}
				}
			}
		}
	}
}

// TestChunkedTrafficMatchesAccounting pins the chunked traffic contract:
// C*(N-1) messages per node, and total bytes equal to the per-chunk
// encoded sizes of every worker's partitioned selection, each forwarded
// N-1 times. Empty chunks still ship a header-only payload.
func TestChunkedTrafficMatchesAccounting(t *testing.T) {
	const dim, workers, chunks = 400, 4, 8
	ins := randomInputs(t, workers, dim, 0.05, 17)
	_, e := engineExchange(t, Config{
		Workers: workers, Collective: netsim.CollectiveAllGather, Chunks: chunks,
	}, ins, dim)
	defer e.Close()
	msgs, bytes := e.Transport().Totals()
	if want := workers * netsim.ChunkedAllGatherMessages(workers, chunks); msgs != want {
		t.Errorf("%d messages, want %d", msgs, want)
	}
	wantBytes := 0
	for _, in := range ins {
		for _, n := range ChunkNNZ(in.Sparse.Idx, dim, chunks) {
			wantBytes += (workers - 1) * encoding.Pairs64Size(dim, n)
		}
	}
	if bytes != wantBytes {
		t.Errorf("%d bytes, want %d", bytes, wantBytes)
	}
}

// TestChunkedTrainerBitIdentical trains through a chunked engine and
// requires the loss trajectory bit-identical to the in-process reducer —
// the end-to-end form of the chunked safety net, including error
// feedback feeding selections back across iterations.
func TestChunkedTrainerBitIdentical(t *testing.T) {
	const workers, iters = 3, 4
	ref := tinyTrainer(t, workers, "sidco-e", 0.1, 11, nil)
	want, _, err := ref.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Workers: workers, Collective: netsim.CollectiveAllGather, Chunks: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tr := tinyTrainer(t, workers, "sidco-e", 0.1, 11, e)
	got, _, err := tr.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loss[%d] = %v, want %v (must be bit-identical)", i, got[i], want[i])
		}
	}
}

// TestChunkedOverlapHidesCompression pins the virtual-clock win the
// chunked mode exists for: with compression charged per exchange, the
// pipelined chunked schedule must finish strictly earlier than the
// monolithic one, both homogeneously and under a straggler.
func TestChunkedOverlapHidesCompression(t *testing.T) {
	const dim, workers = 1 << 14, 4
	ins := randomInputs(t, workers, dim, 0.05, 23)
	net := netsim.Network{Workers: workers, BandwidthBps: 1e9, LatencySec: 20e-6}
	measure := func(chunks int, straggler float64) float64 {
		scen := ScenarioFromNetwork(net)
		if straggler > 1 {
			scen.StragglerFactor = map[int]float64{workers - 1: straggler}
		}
		e, err := New(Config{
			Workers:     workers,
			Collective:  netsim.CollectiveAllGather,
			Scenario:    scen,
			Chunks:      chunks,
			CompressSec: 2e-3,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Exchange(0, ins, make([]float64, dim)); err != nil {
			t.Fatal(err)
		}
		return e.Transport().Elapsed()
	}
	for _, straggler := range []float64{1, 8} {
		mono := measure(1, straggler)
		chunked := measure(4, straggler)
		if chunked >= mono {
			t.Errorf("straggler x%g: chunked %v not faster than monolithic %v", straggler, chunked, mono)
		}
	}
}

// TestChunkedConfigValidation covers the chunked-mode constraints.
func TestChunkedConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 2, Chunks: -1, Collective: netsim.CollectiveAllGather}); err == nil {
		t.Error("negative chunks should error")
	}
	if _, err := New(Config{Workers: 2, Chunks: 4, Collective: netsim.CollectiveRing}); err == nil {
		t.Error("chunked ring should error")
	}
	if _, err := New(Config{Workers: 2, Chunks: 4, Collective: netsim.CollectivePS}); err == nil {
		t.Error("chunked PS should error")
	}
	if _, err := New(Config{Workers: 2, CompressSec: -1}); err == nil {
		t.Error("negative CompressSec should error")
	}
	// Chunks may exceed the element count: surplus chunks ship empty
	// payloads and the result is still exact.
	ins := randomInputs(t, 2, 16, 0.1, 3)
	want := make([]float64, 16)
	if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
		t.Fatal(err)
	}
	got, e := engineExchange(t, Config{
		Workers: 2, Collective: netsim.CollectiveAllGather, Chunks: 32, Verify: true,
	}, ins, 16)
	defer e.Close()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunks > dim: element %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestChunkedAutoResolvesBeforeValidation is the regression for the
// construction-time rejection of Chunks > 1 under CollectiveAuto: Auto
// resolves to the all-gather on every sparse exchange, so the chunked
// mode must be validated against the resolved collective, not the
// selector. A dense round that resolves to the ring is rejected at
// exchange time instead — without fail-stopping the engine.
func TestChunkedAutoResolvesBeforeValidation(t *testing.T) {
	const dim, workers = 120, 3
	e, err := New(Config{Workers: workers, Collective: netsim.CollectiveAuto, Chunks: 4, Verify: true})
	if err != nil {
		t.Fatalf("Auto + Chunks > 1 rejected at construction: %v", err)
	}
	defer e.Close()
	ins := randomInputs(t, workers, dim, 0.1, 21)
	want := make([]float64, dim)
	if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
		t.Fatal(err)
	}
	agg := make([]float64, dim)
	if err := e.Exchange(0, ins, agg); err != nil {
		t.Fatalf("sparse exchange under Auto + chunks: %v", err)
	}
	for i := range want {
		if agg[i] != want[i] {
			t.Fatalf("element %d = %v, want %v (chunked Auto must stay bit-identical)", i, agg[i], want[i])
		}
	}
	dense := make([]dist.ExchangeInput, workers)
	for i, in := range ins {
		dense[i] = dist.ExchangeInput{Worker: in.Worker, Dense: in.Dense}
	}
	if err := e.Exchange(1, dense, agg); err == nil {
		t.Fatal("dense round under Auto + chunks resolved to the ring and should error")
	}
	// The rejection happened before fan-out, so the engine is still live.
	if err := e.Exchange(2, ins, agg); err != nil {
		t.Fatalf("engine fail-stopped on a pre-flight validation error: %v", err)
	}
	// Training end-to-end through Auto + chunks (the configuration the
	// old validation made unreachable).
	ref := tinyTrainer(t, workers, "topk", 0.1, 31, nil)
	wantLoss, _, err := ref.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(Config{Workers: workers, Collective: netsim.CollectiveAuto, Chunks: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tr := tinyTrainer(t, workers, "topk", 0.1, 31, e2)
	gotLoss, _, err := tr.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLoss {
		if gotLoss[i] != wantLoss[i] {
			t.Fatalf("loss[%d] = %v, want %v (bit-identical)", i, gotLoss[i], wantLoss[i])
		}
	}
}

// TestChunkedTinyDimEdges is the regression for chunk counts colliding
// with tiny dimensions: at d=3, C=8 most chunk ranges are empty
// (c*d/C == (c+1)*d/C), and at d=0 all of them are. Neither may panic or
// short-count — empty chunks ship header-only payloads, the aggregate
// stays bit-identical to the in-process reducer, and the traffic still
// matches the chunked formulas.
func TestChunkedTinyDimEdges(t *testing.T) {
	t.Run("d3c8", func(t *testing.T) {
		const dim, workers, chunks = 3, 2, 8
		counts := ChunkNNZ([]int32{0, 1, 2}, dim, chunks)
		if len(counts) != chunks {
			t.Fatalf("ChunkNNZ returned %d chunks, want %d", len(counts), chunks)
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != dim {
			t.Fatalf("ChunkNNZ partition covers %d indices, want %d", total, dim)
		}
		ins := randomInputs(t, workers, dim, 1, 13) // full-support selections
		want := make([]float64, dim)
		if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
			t.Fatal(err)
		}
		got, e := engineExchange(t, Config{
			Workers: workers, Collective: netsim.CollectiveAllGather, Chunks: chunks, Verify: true,
		}, ins, dim)
		defer e.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
			}
		}
		msgs, bytes := e.Transport().Totals()
		if wantMsgs := workers * netsim.ChunkedAllGatherMessages(workers, chunks); msgs != wantMsgs {
			t.Errorf("%d messages, want %d (empty chunks still run their all-gather)", msgs, wantMsgs)
		}
		wantBytes := 0
		for _, in := range ins {
			for _, n := range ChunkNNZ(in.Sparse.Idx, dim, chunks) {
				wantBytes += (workers - 1) * encoding.Pairs64Size(dim, n)
			}
		}
		if bytes != wantBytes {
			t.Errorf("%d bytes, want %d (header-only payloads for empty chunks)", bytes, wantBytes)
		}
	})
	t.Run("d0", func(t *testing.T) {
		const workers, chunks = 2, 4
		for _, c := range ChunkNNZ(nil, 0, chunks) {
			if c != 0 {
				t.Fatal("ChunkNNZ at d=0 must be all zeros")
			}
		}
		ins := []dist.ExchangeInput{
			{Worker: 0, Dense: []float64{}, Sparse: &tensor.Sparse{Dim: 0}},
			{Worker: 1, Dense: []float64{}, Sparse: &tensor.Sparse{Dim: 0}},
		}
		got, e := engineExchange(t, Config{
			Workers: workers, Collective: netsim.CollectiveAllGather, Chunks: chunks, Verify: true,
		}, ins, 0)
		defer e.Close()
		if len(got) != 0 {
			t.Fatalf("aggregate has %d elements, want 0", len(got))
		}
	})
}

// TestChunkedSingleWorker covers the degenerate one-node ring, where the
// overlap hook never fires and chunks must still encode lazily.
func TestChunkedSingleWorker(t *testing.T) {
	ins := randomInputs(t, 1, 64, 0.2, 9)
	want := make([]float64, 64)
	if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
		t.Fatal(err)
	}
	got, e := engineExchange(t, Config{
		Workers: 1, Collective: netsim.CollectiveAllGather, Chunks: 4,
	}, ins, 64)
	defer e.Close()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
}
