package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config assembles a cluster Engine.
type Config struct {
	// Workers is the number of training nodes N (>= 1).
	Workers int
	// Collective selects the exchange schedule. CollectiveAuto mirrors
	// netsim: all-gather when a contribution is sparse, ring all-reduce
	// when dense.
	Collective netsim.Collective
	// Format is the wire format for encoded gradient payloads. The zero
	// value WireLossless (encoding.FormatPairs64) makes all-gather and
	// parameter-server exchanges reproduce the in-process reducer
	// bit-for-bit; the float32 wires model what production fabrics
	// actually ship.
	Format Wire
	// Transport overrides the default in-process channel transport. It
	// must span NodeCount(Workers, Collective) nodes.
	Transport Transport
	// Scenario enables the virtual-time model on the instrumented
	// transport (nil: traffic counting only).
	Scenario *Scenario
	// ComputeSec charges this much local work to every worker's clock at
	// the start of each exchange (scaled per node by the scenario's
	// straggler factors).
	ComputeSec float64
	// Chunks enables the chunked execution mode on the all-gather
	// collective: each exchange splits the index space into this many
	// near-equal ranges, ships every worker's selection as one encoded
	// payload per chunk, and pipelines chunk i+1's compression while
	// chunk i's collective is in flight. The per-chunk element budget is
	// whatever the monolithic selection placed in each range — the global
	// k-budget partitioned, never a per-chunk re-quota — so chunked
	// aggregates are bit-identical to monolithic ones for any compressor.
	// 0 or 1 keeps the monolithic schedule. Valid with CollectiveAllGather
	// and with CollectiveAuto (which resolves to all-gather on every
	// sparse exchange; an Auto exchange that resolves to the dense ring
	// rejects Chunks > 1 at that point).
	Chunks int
	// CompressSec charges this much compression time per exchange to
	// every worker's clock, split evenly across chunks. Unlike
	// ComputeSec, which is charged up front, the per-chunk slices are
	// charged inside the pipeline overlap slot, so under Chunks > 1 they
	// hide behind in-flight communication (scaled per node by the
	// scenario's straggler factors).
	CompressSec float64
	// Parallelism fans each node's per-origin payload decodes out over
	// up to this many goroutines per chunk round; the decoded
	// contributions are then reduced serially in worker-index order, so
	// aggregates are bit-identical to the sequential schedule at any
	// setting. 0 or 1 decodes sequentially.
	Parallelism int
	// StepTimeout, when positive, bounds every blocking receive of one
	// exchange: a worker stuck past the deadline fails its step with an
	// error wrapping ErrTimeout instead of hanging. The Engine stays
	// fail-stop — the classified error surfaces from Exchange and the
	// engine shuts down; elastic recovery (retry over the surviving
	// members) is Node's, the per-process runner. 0 disables deadlines.
	StepTimeout time.Duration
	// Telemetry, if non-nil, traces every round (per-node collective
	// spans, per-chunk encode spans) and the gradient traffic on the
	// instrumented transport (per-link sent/recv message and byte
	// counters, receive-wait time). Telemetry totals equal
	// Transport().Totals()/RecvTotals() exactly — same layer, same
	// events. Nil (the default) costs nothing.
	Telemetry *telemetry.Tracer
	// Verify makes every exchange cross-check that all nodes computed
	// identical aggregates (a distributed-consistency assertion for
	// tests; it costs O(N*d) comparisons per step).
	Verify bool
}

// NodeCount returns the transport size a configuration needs: the
// parameter-server collective adds one server node after the workers.
func NodeCount(workers int, c netsim.Collective) int {
	if c == netsim.CollectivePS {
		return workers + 1
	}
	return workers
}

// Wire selects the payload wire format. Its zero value is the lossless
// default, so Config{} trains bit-identically to the in-process path.
type Wire int

const (
	// WireLossless ships encoding.FormatPairs64: 12 bytes per element,
	// float64 values bit-for-bit.
	WireLossless Wire = iota
	// WirePairs ships encoding.FormatPairs: 8 bytes per element, float32.
	WirePairs
	// WireBitmap ships encoding.FormatBitmap.
	WireBitmap
	// WireDense ships encoding.FormatDense.
	WireDense
	// WireDeltaVarint ships encoding.FormatDeltaVarint.
	WireDeltaVarint
	// WirePairsF16 ships encoding.FormatPairsF16: 6 bytes per element,
	// IEEE binary16 values.
	WirePairsF16
	// WirePairsBF16 ships encoding.FormatPairsBF16: 6 bytes per
	// element, bfloat16 values.
	WirePairsBF16
	// WirePairsI8 ships encoding.FormatPairsI8: 5 bytes per element
	// plus a 4-byte payload-wide scale, absmax-scaled int8 values — the
	// most aggressive quantized wire (8x smaller values than lossless).
	WirePairsI8
)

// String implements fmt.Stringer; the names are what ParseWire accepts.
func (w Wire) String() string {
	switch w {
	case WireLossless:
		return "lossless"
	case WirePairs:
		return "pairs"
	case WireBitmap:
		return "bitmap"
	case WireDense:
		return "dense"
	case WireDeltaVarint:
		return "delta-varint"
	case WirePairsF16:
		return "pairs-f16"
	case WirePairsBF16:
		return "pairs-bf16"
	case WirePairsI8:
		return "pairs-i8"
	default:
		return fmt.Sprintf("wire(%d)", int(w))
	}
}

// ParseWire resolves a wire format name (the String values) — the
// -format flag of cmd/sidco-node.
//
//sidco:errclass flag validation, deliberately fatal
func ParseWire(name string) (Wire, error) {
	for w := WireLossless; w <= WirePairsI8; w++ {
		if w.String() == name {
			return w, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown wire format %q (want lossless, pairs, bitmap, dense, delta-varint, pairs-f16, pairs-bf16 or pairs-i8)", name)
}

// Format maps the wire selector onto its encoding format.
//
//sidco:errclass config validation, deliberately fatal
func (w Wire) Format() (encoding.Format, error) {
	switch w {
	case WireLossless:
		return encoding.FormatPairs64, nil
	case WirePairs:
		return encoding.FormatPairs, nil
	case WireBitmap:
		return encoding.FormatBitmap, nil
	case WireDense:
		return encoding.FormatDense, nil
	case WireDeltaVarint:
		return encoding.FormatDeltaVarint, nil
	case WirePairsF16:
		return encoding.FormatPairsF16, nil
	case WirePairsBF16:
		return encoding.FormatPairsBF16, nil
	case WirePairsI8:
		return encoding.FormatPairsI8, nil
	default:
		return 0, fmt.Errorf("cluster: unknown wire format %d", int(w))
	}
}

// newSched validates the settings Engine and Node share — Workers,
// Collective, Format, Chunks, CompressSec, StepTimeout and the transport
// size — and builds the schedule runner over cfg.Transport (an
// in-process ChanTransport when nil), instrumented with cfg.Scenario and
// cfg.Telemetry.
//
//sidco:errclass construction-time config validation, deliberately fatal
func newSched(cfg Config) (sched, error) {
	if cfg.Workers < 1 {
		return sched{}, fmt.Errorf("cluster: Workers = %d, need >= 1", cfg.Workers)
	}
	switch cfg.Collective {
	case netsim.CollectiveAuto, netsim.CollectiveRing, netsim.CollectiveAllGather, netsim.CollectivePS:
	default:
		return sched{}, fmt.Errorf("cluster: unknown collective %v", cfg.Collective)
	}
	format, err := cfg.Format.Format()
	if err != nil {
		return sched{}, err
	}
	if err := validateChunks(cfg.Chunks, cfg.Collective); err != nil {
		return sched{}, err
	}
	if cfg.CompressSec < 0 {
		return sched{}, fmt.Errorf("cluster: CompressSec = %v, need >= 0", cfg.CompressSec)
	}
	if cfg.StepTimeout < 0 {
		return sched{}, fmt.Errorf("cluster: StepTimeout = %v, need >= 0", cfg.StepTimeout)
	}
	nodes := NodeCount(cfg.Workers, cfg.Collective)
	inner := cfg.Transport
	if inner == nil {
		if inner, err = NewChanTransport(nodes); err != nil {
			return sched{}, err
		}
	}
	if inner.Nodes() < nodes {
		return sched{}, fmt.Errorf("cluster: transport has %d nodes, need %d", inner.Nodes(), nodes)
	}
	server := -1
	if cfg.Collective == netsim.CollectivePS {
		server = cfg.Workers
	}
	return sched{
		workers:     cfg.Workers,
		full:        identityMembers(cfg.Workers),
		server:      server,
		format:      format,
		chunks:      cfg.Chunks,
		parallel:    cfg.Parallelism,
		computeSec:  cfg.ComputeSec,
		compressSec: cfg.CompressSec,
		tp:          NewInstrumented(inner, cfg.Scenario).WithTelemetry(cfg.Telemetry),
		tel:         cfg.Telemetry,
	}, nil
}

// validateChunks checks the chunked-mode configuration against the
// selected collective, shared by Engine and Node construction. Auto is
// accepted: it resolves to the all-gather on every sparse exchange, and
// the per-exchange resolution re-validates if a dense round slips in.
//
//sidco:errclass config validation, deliberately fatal
func validateChunks(chunks int, c netsim.Collective) error {
	if chunks < 0 {
		return fmt.Errorf("cluster: Chunks = %d, need >= 0", chunks)
	}
	if chunks > 1 && c != netsim.CollectiveAllGather && c != netsim.CollectiveAuto {
		// Ring all-reduce is already d/N-chunked by construction and the
		// parameter server has no ring to pipeline against; the chunked
		// mode is defined for the sparse all-gather only.
		return fmt.Errorf("cluster: Chunks = %d requires the all-gather collective, got %v", chunks, c)
	}
	return nil
}

// resolveCollective resolves Auto against the round's inputs (sparse:
// all-gather, dense: ring) and re-validates the chunked mode against the
// outcome. Resolution happens once per round, never per node — per-node
// resolution could diverge on a mixed dense/sparse input set and
// deadlock the schedule.
//
//sidco:errclass config validation, deliberately fatal
func resolveCollective(c netsim.Collective, sparse bool, chunks int) (netsim.Collective, error) {
	if c == netsim.CollectiveAuto {
		if sparse {
			c = netsim.CollectiveAllGather
		} else {
			c = netsim.CollectiveRing
		}
	}
	if chunks > 1 && c != netsim.CollectiveAllGather {
		return 0, fmt.Errorf("cluster: Chunks = %d, but this exchange resolved to %v (dense inputs under Auto take the ring)", chunks, c)
	}
	return c, nil
}

// job is one node's share of a gradient exchange.
type job struct {
	step   int
	sparse *tensor.Sparse // nil on the dense path
	dense  []float64
	dim    int
	coll   netsim.Collective // resolved collective, never Auto
	// members is the participating worker node-id list (ascending) of an
	// elastic deployment; nil means full membership 0..workers-1.
	members []int
	// deadline, when non-zero, bounds every blocking receive of the
	// schedule run; a receive past it fails with ErrTimeout.
	deadline time.Time
}

// result is what a node reports back after running its schedule.
type result struct {
	node int
	err  error
}

// Engine runs one goroutine per cluster node; each Exchange call hands
// every node its worker's gradient, the nodes execute the configured
// collective as real message passing, and the aggregated mean lands in
// the caller's buffer. Engine satisfies dist.GradientExchange, so it
// plugs directly into dist.TrainerConfig.Exchange.
//
// Engine is the single-process deployment: all N nodes live in one
// process and share one Transport (in-process channels by default, or a
// TCPTransport hosting every node for loopback-socket runs). Node is the
// one-node-per-process counterpart behind cmd/sidco-node.
type Engine struct {
	cfg     Config
	sched   sched
	jobs    []chan job
	results chan result
	outs    [][]float64 // per-node aggregation buffers
	scratch []nodeScratch
	ident   []int32 // shared 0..dim-1 ramp, aliased into every scratch
	wg      sync.WaitGroup
	closed  bool
}

// New validates cfg, builds the transport and starts the node
// goroutines. Callers must Close the engine to stop them.
//
//sidco:errclass construction-time config validation, deliberately fatal
func New(cfg Config) (*Engine, error) {
	s, err := newSched(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		sched:   s,
		jobs:    make([]chan job, cfg.Workers),
		results: make(chan result, NodeCount(cfg.Workers, cfg.Collective)),
		outs:    make([][]float64, cfg.Workers),
		scratch: make([]nodeScratch, cfg.Workers),
	}
	for w := 0; w < cfg.Workers; w++ {
		e.jobs[w] = make(chan job)
		e.wg.Add(1)
		go e.workerLoop(w)
	}
	if s.server >= 0 {
		e.wg.Add(1)
		go e.serverLoop()
	}
	return e, nil
}

// Transport exposes the instrumented transport for traffic and
// virtual-time inspection.
func (e *Engine) Transport() *Instrumented { return e.sched.tp }

// Close stops the node goroutines and closes the transport. The Engine
// is not concurrency-safe: Exchange and Close must come from one
// goroutine (the Trainer's step loop).
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.sched.tp.Close()
	for _, ch := range e.jobs {
		close(ch)
	}
	e.wg.Wait()
	return err
}

// Exchange implements dist.GradientExchange: it fans the workers'
// contributions out to the node goroutines, runs the collective, and
// copies the agreed mean into agg.
func (e *Engine) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	if e.closed {
		return fmt.Errorf("cluster: exchange on closed engine: %w", ErrClosed)
	}
	if len(ins) != e.cfg.Workers {
		return fmt.Errorf("cluster: %d inputs for %d workers", len(ins), e.cfg.Workers) //sidco:errclass caller misuse, deliberately fatal
	}
	coll, err := resolveCollective(e.cfg.Collective, ins[0].Sparse != nil, e.cfg.Chunks)
	if err != nil {
		return err
	}
	// Dense-as-sparse views all read the same identity index ramp: grown
	// here, before fan-out, and aliased into every node's scratch, so the
	// node goroutines never mutate it (localSparse's grow loop is a no-op
	// once the shared ramp covers the dimension) and the engine pays for
	// one ramp instead of one per worker.
	if coll != netsim.CollectiveRing {
		for _, in := range ins {
			if in.Sparse == nil {
				for i := len(e.ident); i < len(agg); i++ {
					e.ident = append(e.ident, int32(i))
				}
				for w := range e.scratch {
					e.scratch[w].ident = e.ident
				}
				break
			}
		}
	}
	// Tag the round's telemetry message events with the step before any
	// node goroutine can send: Exchange is a synchronous barrier, so no
	// message from another step can be in flight here.
	e.sched.tp.SetStep(int64(step))
	var deadline time.Time
	if e.cfg.StepTimeout > 0 {
		deadline = time.Now().Add(e.cfg.StepTimeout) //sidco:nondet fault-detection deadline, never feeds gradient math
	}
	for w, in := range ins {
		e.jobs[w] <- job{step: step, sparse: in.Sparse, dense: in.Dense, dim: len(agg), coll: coll, deadline: deadline}
	}
	want := e.cfg.Workers
	if e.sched.server >= 0 {
		want++ // the server also reports
	}
	var firstErr error
	for i := 0; i < want; i++ {
		r := <-e.results
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: node %d: %w", r.node, r.err)
			// Peers may be blocked mid-schedule waiting on the failed
			// node; closing the transport unblocks them so the round
			// drains instead of deadlocking.
			e.sched.tp.Close()
		}
	}
	if firstErr == nil && e.cfg.Verify {
		for w := 1; w < e.cfg.Workers; w++ {
			for i := range e.outs[0] {
				if e.outs[w][i] != e.outs[0][i] {
					firstErr = fmt.Errorf("cluster: node %d disagrees with node 0 at element %d: %v vs %v",
						w, i, e.outs[w][i], e.outs[0][i])
					break
				}
			}
		}
	}
	if firstErr != nil {
		// Fail-stop: a broken round leaves stray messages in the
		// transport, so the engine cannot safely run another schedule.
		e.Close()
		return firstErr
	}
	copy(agg, e.outs[0])
	return nil
}

// workerLoop is the goroutine body of worker node w.
func (e *Engine) workerLoop(w int) {
	defer e.wg.Done()
	for jb := range e.jobs[w] {
		if len(e.outs[w]) != jb.dim {
			e.outs[w] = make([]float64, jb.dim)
		}
		e.results <- result{node: w, err: e.sched.runWorker(w, jb, &e.scratch[w], e.outs[w])}
	}
}

// serverLoop is the goroutine body of the parameter-server node: one
// round per exchange. The server learns each round's start from the
// first arriving push, so it needs no job channel.
func (e *Engine) serverLoop() {
	defer e.wg.Done()
	var srv psServer
	for round := int64(0); ; round++ {
		span := e.sched.tel.Begin(telemetry.SpanCollective, e.sched.server, -1, -1, round)
		// The server receives without a deadline: it idles here between
		// exchanges, so a round-start deadline would misfire. A worker
		// timing out under StepTimeout closes the transport, which
		// unblocks this receive with ErrClosed.
		err := srv.round(e.sched.tp, e.sched.tp.Recv, e.sched.server, e.sched.full, e.sched.format)
		span.End()
		if err != nil {
			// A server failure is fatal to the cluster: close the
			// transport so workers blocked on their pull unblock with an
			// error instead of hanging, then report and exit. (On a
			// normal engine Close the transport is already closed and
			// this is a no-op.)
			e.sched.tp.Close()
			e.results <- result{node: e.sched.server, err: err}
			return
		}
		e.results <- result{node: e.sched.server}
	}
}
