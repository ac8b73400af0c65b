package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/nn"
)

// The model every workload trains: Dense(1024→1024) → ReLU →
// Dense(1024→10), d = 1,059,850 parameters, batch 1 per worker.
const (
	inDim   = 1024
	hidden  = 1024
	classes = 10
	// classShift is the standard deviation of each class mean's
	// coordinates; samples add unit Gaussian noise around their mean.
	classShift = 0.1
	learnRate  = 0.001
	// taskSeed fixes the task: the class means and the initial weights.
	// The workload seed drives every worker's draws (TrainerConfig.Seed).
	taskSeed = 0x5eed5eed
	// stepTimeout bounds every blocking receive of a cluster exchange, so
	// a broken deployment fails its step instead of hanging the run.
	stepTimeout = 30 * time.Second
)

// spec describes one workload.
type spec struct {
	name string
	// workers is the global data-parallel worker count.
	workers int
	// compressor is "" (dense), "sidco-e" or "topk".
	compressor string
	delta      float64
	ec         bool
	// deploy selects the exchange: "inproc" (dist.InProcess), "engine"
	// (cluster.Engine ring all-reduce over one loopback TCPTransport) or
	// "nodes" (one cluster.Node and TCPTransport per rank).
	deploy string
	chunks int
	wire   cluster.Wire
}

// specs are the workloads; README.md says why each exists.
var specs = []spec{
	{name: "sidco-inproc", workers: 1, compressor: "sidco-e", delta: 0.001, ec: true, deploy: "inproc"},
	{name: "dense-ring-tcp", workers: 2, deploy: "engine"},
	{name: "topk-allgather-nodes", workers: 2, compressor: "topk", delta: 0.01, ec: true, deploy: "nodes",
		chunks: 4, wire: cluster.WirePairsI8},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// modelDim is d for the shared model.
const modelDim = inDim*hidden + hidden + hidden*classes + classes

// trainerLanes is the number of dist.Trainers (one per rank under
// "nodes"); nodeLanes the number of cluster nodes.
func (s spec) trainerLanes() int {
	if s.deploy == "nodes" {
		return s.workers
	}
	return 1
}

func (s spec) nodeLanes() int {
	if s.deploy == "inproc" {
		return 0
	}
	return s.workers
}

// fanout is the peak number of goroutines that compute at once: during
// the gradient phase every worker runs (times its compression
// parallelism, 1 here), during the exchange every cluster node runs.
// Engine node goroutines and trainer workers never overlap, and under
// "nodes" each rank's worker and node share one goroutine.
func (s spec) fanout() int {
	f := s.workers
	if n := s.nodeLanes(); n > f {
		f = n
	}
	return f
}

// expectedMessages is the gradient messages one exchange puts on all
// links, from the netsim closed forms.
func (s spec) expectedMessages() int {
	switch s.deploy {
	case "engine":
		return s.workers * netsim.RingMessages(s.workers)
	case "nodes":
		return s.workers * netsim.ChunkedAllGatherMessages(s.workers, s.chunks)
	}
	return 0
}

// targetK is the per-worker selection target k (0 when dense).
func (s spec) targetK() int {
	if s.compressor == "" {
		return 0
	}
	return compress.TargetK(modelDim, s.delta)
}

func newCompressor(name string) compress.Compressor {
	switch name {
	case "sidco-e":
		return core.NewE()
	case "topk":
		return compress.NewTopK()
	}
	panic("stepbench: unknown compressor " + name)
}

// dataset draws synthetic Gaussian class-shifted samples: the class and
// the noise come from the calling worker's RNG. The class means define
// the task, so they are the same for every seed; they are read-only. Each global worker
// owns one reused input buffer and label slice.
type dataset struct {
	means  [][]float64
	x      []*nn.Tensor
	labels [][]int
}

func newDataset(workers int) *dataset {
	rng := rand.New(rand.NewSource(taskSeed))
	d := &dataset{means: make([][]float64, classes)}
	for c := range d.means {
		m := make([]float64, inDim)
		for i := range m {
			m[i] = rng.NormFloat64() * classShift
		}
		d.means[c] = m
	}
	for w := 0; w < workers; w++ {
		d.x = append(d.x, nn.NewTensor(1, inDim))
		d.labels = append(d.labels, make([]int, 1))
	}
	return d
}

func (d *dataset) batch(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
	c := rng.Intn(classes)
	x := d.x[worker]
	for i, m := range d.means[c] {
		x.Data[i] = m + rng.NormFloat64()
	}
	d.labels[worker][0] = c
	return x, d.labels[worker]
}

// newTrainerConfig assembles one trainer's configuration: the model
// replica (identical on every rank), the data and the
// compressor stack. Under tracing every public seam is wrapped and the
// error-feedback wrapper is built here instead of by the trainer, so its
// self time can be timed; TrainerConfig.EC does exactly the same
// construction.
func newTrainerConfig(s spec, seed int64, workers, first int, tr *tracer) dist.TrainerConfig {
	rng := rand.New(rand.NewSource(taskSeed))
	layers := []nn.Layer{
		nn.NewDense("fc1", inDim, hidden, rng),
		&nn.ReLU{},
		nn.NewDense("fc2", hidden, classes, rng),
	}
	var loss nn.Loss = &nn.SoftmaxCrossEntropy{}
	var opt nn.Optimizer = &nn.SGD{LR: learnRate}
	data := newDataset(s.workers)
	batch := data.batch
	if tr != nil {
		for i, l := range layers {
			layers[i] = &timedLayer{Layer: l, tr: tr}
		}
		loss = &timedLoss{Loss: loss, tr: tr}
		opt = &timedOptimizer{Optimizer: opt, tr: tr}
		batch = func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			t0 := time.Now()
			x, y := data.batch(worker, rng)
			tr.add(sBatch, time.Since(t0))
			return x, y
		}
	}
	cfg := dist.TrainerConfig{
		Workers:     workers,
		FirstWorker: first,
		Model:       nn.NewSequential(layers...),
		Loss:        loss,
		Opt:         opt,
		Batch:       batch,
		Delta:       s.delta,
		Parallelism: 1,
		Seed:        seed,
	}
	if s.compressor == "" {
		return cfg
	}
	var wire *encoding.Format
	if s.deploy == "nodes" {
		f, err := s.wire.Format()
		if err != nil {
			panic(err)
		}
		wire = &f
	}
	if tr == nil {
		cfg.NewCompressor = func() compress.Compressor { return newCompressor(s.compressor) }
		cfg.EC = s.ec
		cfg.ECWire = wire
		return cfg
	}
	cfg.NewCompressor = func() compress.Compressor {
		var c compress.Compressor = &timedCompressor{inner: newCompressor(s.compressor), tr: tr, slot: sSelect}
		if s.ec {
			ec := compress.NewErrorFeedback(c)
			if wire != nil {
				ec.SetWireFormat(*wire)
			}
			c = &timedCompressor{inner: ec, tr: tr, slot: sEC}
		}
		return c
	}
	return cfg
}

// deployment is one built workload: step runs one closed-loop global
// training step (every worker, the exchange and the update).
type deployment interface {
	step() (stepResult, error)
	// traffic returns the cumulative gradient payload messages and bytes
	// over all links: the Instrumented totals of the cluster layer, or,
	// in-process, the pairs64 size of the selections a lossless wire
	// would carry (no messages).
	traffic() (msgs, bytes int)
	close() error
}

type stepResult struct {
	loss  float64 // global mean training loss
	ratio float64 // mean achieved k-hat/k over the workers
}

// build constructs a workload's deployment. tr is nil for untraced runs.
func build(s spec, seed int64, tr *tracer) (deployment, error) {
	switch s.deploy {
	case "inproc":
		cfg := newTrainerConfig(s, seed, s.workers, 0, tr)
		if tr != nil {
			cfg.Exchange = &timedExchange{inner: dist.InProcess{}, tr: tr}
		}
		t, err := dist.NewTrainer(cfg)
		if err != nil {
			return nil, err
		}
		return &trainerDeployment{spec: s, t: t, tr: tr}, nil
	case "engine":
		return buildEngine(s, seed, tr)
	case "nodes":
		return buildNodes(s, seed, tr)
	}
	return nil, fmt.Errorf("unknown deployment %q", s.deploy)
}

// trainerDeployment is one dist.Trainer, exchanging in-process or over an
// Engine.
type trainerDeployment struct {
	spec   spec
	t      *dist.Trainer
	engine *cluster.Engine
	tr     *tracer
	bytes  int // in-process: cumulative pairs64 selection bytes
}

func (d *trainerDeployment) step() (stepResult, error) {
	t0 := time.Now()
	loss, err := d.t.Step()
	if d.tr != nil {
		d.tr.add(sTrainerStep, time.Since(t0))
	}
	if err != nil {
		return stepResult{}, err
	}
	if d.engine == nil && d.spec.compressor != "" {
		nnz := int(math.Round(d.t.LastRatio * float64(d.spec.targetK())))
		d.bytes += encoding.Pairs64Size(modelDim, nnz)
	}
	return stepResult{loss: loss, ratio: d.t.LastRatio}, nil
}

func (d *trainerDeployment) traffic() (int, int) {
	if d.engine == nil {
		return 0, d.bytes
	}
	return d.engine.Transport().Totals()
}

func (d *trainerDeployment) close() error {
	if d.engine == nil {
		return nil
	}
	return d.engine.Close()
}

func buildEngine(s spec, seed int64, tr *tracer) (deployment, error) {
	addrs, err := cluster.FreeLoopbackAddrs(s.workers)
	if err != nil {
		return nil, err
	}
	tcp, err := cluster.NewTCPTransport(cluster.TCPConfig{Addrs: addrs})
	if err != nil {
		return nil, err
	}
	ccfg := cluster.Config{
		Workers:     s.workers,
		Collective:  netsim.CollectiveRing,
		Transport:   tcp,
		StepTimeout: stepTimeout,
	}
	if tr != nil {
		ccfg.Transport = &timedTransport{inner: tcp, tr: tr}
		ccfg.Telemetry = tr.telemetry()
	}
	eng, err := cluster.New(ccfg)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	cfg := newTrainerConfig(s, seed, s.workers, 0, tr)
	cfg.Exchange = eng
	if tr != nil {
		cfg.Exchange = &timedExchange{inner: eng, tr: tr}
	}
	t, err := dist.NewTrainer(cfg)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &trainerDeployment{spec: s, t: t, engine: eng, tr: tr}, nil
}

// nodesDeployment runs one goroutine per rank, each owning a Workers=1
// trainer (FirstWorker = rank), a cluster.Node and a TCPTransport that
// hosts only that rank — cmd/sidco-node's shape without the process
// boundary. Every step reduces the loss with Node.MeanScalar, so both
// ranks report the same global loss.
type nodesDeployment struct {
	spec  spec
	ranks []*rank
	tr    *tracer
	// disagreements counts steps whose global losses differ bitwise
	// between ranks.
	disagreements int
	wg            sync.WaitGroup
}

type rank struct {
	t    *dist.Trainer
	node *cluster.Node
	tp   *timedTransport // nil untraced
	cmd  chan struct{}
	out  chan rankResult
}

type rankResult struct {
	global, ratio float64
	err           error
}

func buildNodes(s spec, seed int64, tr *tracer) (deployment, error) {
	var tcps []*cluster.TCPTransport
	var err error
	// FreeLoopbackAddrs releases the ports before the listeners bind
	// them; retry the rare rebind race.
	for attempt := 0; attempt < 3; attempt++ {
		if tcps, err = listenRanks(s.workers); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	d := &nodesDeployment{spec: s, tr: tr}
	for r, tcp := range tcps {
		var tp cluster.Transport = tcp
		rk := &rank{cmd: make(chan struct{}), out: make(chan rankResult)}
		if tr != nil {
			rk.tp = &timedTransport{inner: tcp, tr: tr}
			tp = rk.tp
		}
		ncfg := cluster.NodeConfig{
			Workers:     s.workers,
			Rank:        r,
			Collective:  netsim.CollectiveAllGather,
			Format:      s.wire,
			Chunks:      s.chunks,
			Parallelism: 1,
			StepTimeout: stepTimeout,
			Transport:   tp,
		}
		if tr != nil {
			ncfg.Telemetry = tr.telemetry()
		}
		node, nerr := cluster.NewNode(ncfg)
		if nerr == nil {
			cfg := newTrainerConfig(s, seed, 1, r, tr)
			cfg.Exchange = node
			if tr != nil {
				cfg.Exchange = &timedExchange{inner: node, tr: tr}
			}
			rk.node = node
			rk.t, nerr = dist.NewTrainer(cfg)
		}
		if nerr != nil {
			for _, t := range tcps {
				t.Close()
			}
			d.close()
			return nil, nerr
		}
		d.ranks = append(d.ranks, rk)
		d.wg.Add(1)
		go d.loop(rk)
	}
	return d, nil
}

func listenRanks(n int) ([]*cluster.TCPTransport, error) {
	addrs, err := cluster.FreeLoopbackAddrs(n)
	if err != nil {
		return nil, err
	}
	var tcps []*cluster.TCPTransport
	for r := 0; r < n; r++ {
		tcp, err := cluster.NewTCPTransport(cluster.TCPConfig{Addrs: addrs, Local: []int{r}})
		if err != nil {
			for _, t := range tcps {
				t.Close()
			}
			return nil, err
		}
		tcps = append(tcps, tcp)
	}
	return tcps, nil
}

// loop is one rank's goroutine: a step per command.
func (d *nodesDeployment) loop(rk *rank) {
	defer d.wg.Done()
	for range rk.cmd {
		var res rankResult
		t0 := time.Now()
		loss, err := rk.t.Step()
		if d.tr != nil {
			d.tr.add(sTrainerStep, time.Since(t0))
		}
		if err == nil {
			t1 := time.Now()
			if rk.tp != nil {
				rk.tp.scalar.Store(true)
			}
			res.global, err = rk.node.MeanScalar(loss)
			if rk.tp != nil {
				rk.tp.scalar.Store(false)
				d.tr.add(sMeanScalar, time.Since(t1))
			}
		}
		res.ratio, res.err = rk.t.LastRatio, err
		rk.out <- res
	}
}

func (d *nodesDeployment) step() (stepResult, error) {
	for _, rk := range d.ranks {
		rk.cmd <- struct{}{}
	}
	var out stepResult
	var firstErr error
	for r, rk := range d.ranks {
		res := <-rk.out
		if res.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", r, res.err)
		}
		if r == 0 {
			out.loss = res.global
		} else if math.Float64bits(res.global) != math.Float64bits(out.loss) {
			d.disagreements++
		}
		out.ratio += res.ratio
	}
	out.ratio /= float64(len(d.ranks))
	return out, firstErr
}

func (d *nodesDeployment) traffic() (int, int) {
	msgs, bytes := 0, 0
	for _, rk := range d.ranks {
		m, b := rk.node.Transport().Totals()
		msgs += m
		bytes += b
	}
	return msgs, bytes
}

func (d *nodesDeployment) close() error {
	var first error
	for _, rk := range d.ranks {
		close(rk.cmd)
	}
	d.wg.Wait()
	for _, rk := range d.ranks {
		if err := rk.node.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// referenceLosses trains the topk-allgather-nodes configuration as one
// untimed in-process trainer — both workers in one dist.Trainer with the
// same seed and ECWire, exchanging through an Engine over in-process
// channels with the same collective, chunking and wire — and returns its
// per-step losses. A chunked pairs-i8 wire quantizes each chunk with its
// own scale, so the plain shared-memory reducer is not a bit-exact
// reference; the Engine runs the same schedule code without sockets or
// per-rank processes.
func referenceLosses(s spec, seed int64, steps int) ([]float64, error) {
	eng, err := cluster.New(cluster.Config{
		Workers:    s.workers,
		Collective: netsim.CollectiveAllGather,
		Format:     s.wire,
		Chunks:     s.chunks,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	cfg := newTrainerConfig(s, seed, s.workers, 0, nil)
	cfg.Exchange = eng
	t, err := dist.NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	losses, _, err := t.Run(steps)
	return losses, err
}
