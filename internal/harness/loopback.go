package harness

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/nn"
)

// LoopbackStudyConfig parameterises the TCP loopback study.
type LoopbackStudyConfig struct {
	// Workers is the cluster size N (default 4).
	Workers int
	// Iters is the number of training iterations compared (default 6).
	Iters int
	// Compressor is the registry compressor (default "sidco-e").
	Compressor string
	// Delta is the compression ratio (default 0.05).
	Delta float64
	// Chunks is the chunked-pipeline setting for the all-gather rounds
	// (default 1: monolithic).
	Chunks int
	// Seed fixes every random stream.
	Seed int64
}

func (c LoopbackStudyConfig) withDefaults() LoopbackStudyConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Iters <= 0 {
		c.Iters = 6
	}
	if c.Compressor == "" {
		c.Compressor = "sidco-e"
	}
	if c.Delta <= 0 || c.Delta > 1 {
		c.Delta = 0.05
	}
	return c
}

// LoopbackStudy runs the same compressed training workload four ways —
// the in-process reducer, the cluster engine over in-process channels,
// the cluster engine over loopback TCP sockets, and the multi-process
// topology (one Node, one single-worker trainer and one single-rank
// TCPTransport per worker, exactly cmd/sidco-node's shape minus process
// isolation) — and tabulates the per-iteration global losses. Over the
// lossless wire all four columns must agree bit-for-bit, and the
// engine-over-TCP traffic must match netsim's all-gather formula
// exactly; the study prints both checks and returns an error (after
// rendering) when either fails.
func LoopbackStudy(w io.Writer, cfg LoopbackStudyConfig) error {
	cfg = cfg.withDefaults()

	ref, err := cfg.trainer(cfg.Workers, 0, nil)
	if err != nil {
		return err
	}
	refLoss, _, err := ref.Run(cfg.Iters)
	if err != nil {
		return err
	}

	engineRun := func(tp cluster.Transport) ([]float64, int, error) {
		e, err := cluster.New(cluster.NodeConfig{
			Workers:    cfg.Workers,
			Collective: netsim.CollectiveAllGather,
			Chunks:     cfg.Chunks,
			Transport:  tp,
			Verify:     true,
		})
		if err != nil {
			return nil, 0, err
		}
		defer e.Close()
		tr, err := cfg.trainer(cfg.Workers, 0, e)
		if err != nil {
			return nil, 0, err
		}
		losses, _, err := tr.Run(cfg.Iters)
		if err != nil {
			return nil, 0, err
		}
		msgs, _ := e.Transport().Totals()
		return losses, msgs, nil
	}

	chanLoss, _, err := engineRun(nil)
	if err != nil {
		return fmt.Errorf("harness: loopback study, channel engine: %w", err)
	}
	tcpAddrs := make([]string, cfg.Workers)
	for i := range tcpAddrs {
		tcpAddrs[i] = "127.0.0.1:0"
	}
	tcpTransport, err := cluster.NewTCPTransport(cluster.TCPConfig{Addrs: tcpAddrs})
	if err != nil {
		return err
	}
	tcpLoss, tcpMsgs, err := engineRun(tcpTransport)
	if err != nil {
		return fmt.Errorf("harness: loopback study, tcp engine: %w", err)
	}
	nodeLoss, err := loopbackNodes(cfg)
	if err != nil {
		return fmt.Errorf("harness: loopback study, per-rank nodes: %w", err)
	}

	wantMsgs := cfg.Iters * netsim.ExchangeMessages(netsim.CollectiveAllGather, cfg.Workers, cfg.Chunks)
	tbl := NewTable(
		fmt.Sprintf("Loopback study — %s, N=%d, delta=%g, chunks=%d: global loss, in-process vs channels vs TCP sockets vs per-rank nodes",
			cfg.Compressor, cfg.Workers, cfg.Delta, max(cfg.Chunks, 1)),
		"iter", "in-process", "chan engine", "tcp engine", "tcp nodes", "max |diff|")
	worst := 0.0
	for i := range refLoss {
		diff := math.Max(math.Abs(chanLoss[i]-refLoss[i]),
			math.Max(math.Abs(tcpLoss[i]-refLoss[i]), math.Abs(nodeLoss[i]-refLoss[i])))
		worst = math.Max(worst, diff) // a NaN diff propagates, so it fails too
		tbl.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.17g", refLoss[i]), fmt.Sprintf("%.17g", chanLoss[i]),
			fmt.Sprintf("%.17g", tcpLoss[i]), fmt.Sprintf("%.17g", nodeLoss[i]),
			fmt.Sprintf("%g", diff))
	}
	tbl.Render(w)
	fmt.Fprintf(w, "tcp engine traffic: %d messages, formula %d, exact=%v\n\n",
		tcpMsgs, wantMsgs, tcpMsgs == wantMsgs)
	if worst != 0 {
		return fmt.Errorf("harness: loopback study: losses differ from the in-process trainer by up to %g, want bit-identity", worst)
	}
	if tcpMsgs != wantMsgs {
		return fmt.Errorf("harness: loopback study: tcp engine sent %d messages, formula says %d", tcpMsgs, wantMsgs)
	}
	return nil
}

// DemoTrainerConfig is the demo workload every cluster runner trains
// and every bit-identity oracle compares against: a 16-12-4 ReLU net
// under SGD on synthetic class-shifted batches, compressed by the
// registry compressor with error feedback at ratio delta ("" or "none"
// trains dense). Callers set only what differs per runner — Workers,
// FirstWorker, Exchange, ECWire, Parallelism, Telemetry. The seed fixes
// the model and every worker's batch stream at any (Workers,
// FirstWorker) split, so N single-worker processes draw exactly the
// batches of one N-worker in-process trainer. Each call builds a fresh
// model.
func DemoTrainerConfig(compressor string, delta float64, seed int64) dist.TrainerConfig {
	rng := rand.New(rand.NewSource(seed))
	cfg := dist.TrainerConfig{
		Model: nn.NewSequential(
			nn.NewDense("d1", 16, 12, rng),
			&nn.ReLU{},
			nn.NewDense("d2", 12, 4, rng),
		),
		Loss: &nn.SoftmaxCrossEntropy{},
		Opt:  &nn.SGD{LR: 0.05},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			x := nn.NewTensor(8, 16)
			targets := make([]int, 8)
			for i := range targets {
				targets[i] = rng.Intn(4)
				for j := 0; j < 16; j++ {
					x.Data[i*16+j] = rng.NormFloat64() + float64(targets[i])
				}
			}
			return x, targets
		},
		Delta: delta,
		Seed:  seed,
	}
	if compressor != "" && compressor != "none" {
		cfg.NewCompressor = Factory(compressor, seed)
		cfg.EC = true
	}
	return cfg
}

// trainer builds the study's demo trainer at a (workers, firstWorker)
// split over exchange ex (nil: the in-process reducer).
func (c LoopbackStudyConfig) trainer(workers, firstWorker int, ex dist.GradientExchange) (*dist.Trainer, error) {
	tc := DemoTrainerConfig(c.Compressor, c.Delta, c.Seed)
	tc.Workers, tc.FirstWorker, tc.Exchange = workers, firstWorker, ex
	return dist.NewTrainer(tc)
}

// loopbackNodes runs the multi-process topology in-process: one
// TCPTransport, Node and Workers=1 trainer per rank, each goroutine
// owning only its rank, global losses reduced through Node.MeanScalar.
// It returns rank 0's global loss sequence after checking all ranks
// agree bitwise.
func loopbackNodes(cfg LoopbackStudyConfig) ([]float64, error) {
	addrs, err := cluster.FreeLoopbackAddrs(cfg.Workers)
	if err != nil {
		return nil, err
	}
	type rankOut struct {
		rank   int
		losses []float64
		err    error
	}
	results := make(chan rankOut, cfg.Workers)
	for rank := 0; rank < cfg.Workers; rank++ {
		go func(rank int) {
			out := rankOut{rank: rank}
			defer func() { results <- out }()
			tp, err := cluster.NewTCPTransport(cluster.TCPConfig{Addrs: addrs, Local: []int{rank}})
			if err != nil {
				out.err = err
				return
			}
			defer tp.Close()
			nd, err := cluster.NewNode(cluster.NodeConfig{
				Workers:    cfg.Workers,
				Rank:       rank,
				Collective: netsim.CollectiveAllGather,
				Chunks:     cfg.Chunks,
				Transport:  tp,
			})
			if err != nil {
				out.err = err
				return
			}
			tr, err := cfg.trainer(1, rank, nd)
			if err != nil {
				out.err = err
				return
			}
			for it := 0; it < cfg.Iters; it++ {
				local, err := tr.Step()
				if err != nil {
					out.err = err
					return
				}
				global, err := nd.MeanScalar(local)
				if err != nil {
					out.err = err
					return
				}
				out.losses = append(out.losses, global)
			}
		}(rank)
	}
	byRank := make([][]float64, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		out := <-results
		if out.err != nil {
			return nil, fmt.Errorf("rank %d: %w", out.rank, out.err)
		}
		byRank[out.rank] = out.losses
	}
	for rank := 1; rank < cfg.Workers; rank++ {
		for it := range byRank[0] {
			if byRank[rank][it] != byRank[0][it] {
				return nil, fmt.Errorf("rank %d loss[%d] = %v disagrees with rank 0's %v",
					rank, it, byRank[rank][it], byRank[0][it])
			}
		}
	}
	return byRank[0], nil
}
