package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/telemetry"
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
	// exchange on every hosted node, the parameter server included: a
	// node stuck past the deadline fails its round with an error wrapping
	// ErrTimeout instead of hanging. The Engine stays fail-stop — its
	// nodes run without retries, so the classified error surfaces from
	// Exchange and the engine shuts down; elastic recovery (retry over
	// the surviving members, NodeConfig.MaxStepRetries) is for Nodes in
	// processes of their own. 0 disables deadlines.
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

// validateChunks checks the chunked-mode configuration against the
// selected collective at construction (newInstrumented). Auto is
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

// Engine hosts every node of a deployment in one process: the Workers
// worker Nodes, plus the server Node under CollectivePS, over one shared
// instrumented Transport (in-process channels by default, or a
// TCPTransport hosting every node for loopback-socket runs). Each
// Exchange hands every worker its gradient and runs all the nodes' rounds
// concurrently on long-lived goroutines, one per hosted node, so the
// collective executes as real message passing through exactly the
// schedule code a per-process Node runs (cmd/sidco-node), and the agreed
// mean lands in the caller's buffer. Engine satisfies
// dist.GradientExchange, so it plugs directly into
// dist.TrainerConfig.Exchange.
//
// The Engine is fail-stop: its nodes run without retries, so a failed
// round closes the shared transport and the engine. Elastic recovery is
// for Nodes in processes of their own (NodeConfig.MaxStepRetries).
type Engine struct {
	cfg   Config
	tp    *Instrumented
	nodes []*Node     // workers 0..Workers-1, then the server under PS
	outs  [][]float64 // per-worker aggregation buffers
	ident []int32     // shared 0..dim-1 ramp, aliased into every node's scratch
	errs  []error     // per-node outcome of the current round

	// The current round, published to the node goroutines by the handoff
	// of node indices on work (buffered to one round's handoffs, so
	// Exchange never blocks handing out) and joined by round.
	step  int
	coll  netsim.Collective
	ins   []dist.ExchangeInput
	work  chan int
	round sync.WaitGroup

	live   sync.WaitGroup // the node goroutines, joined by Close
	closed bool
}

// New validates cfg, builds the shared transport and the nodes, and
// starts one goroutine per node. Callers must Close the engine to stop
// them.
//
//sidco:errclass construction-time config validation, deliberately fatal
func New(cfg Config) (*Engine, error) {
	ncfg := NodeConfig{
		Workers: cfg.Workers, Collective: cfg.Collective, Format: cfg.Format, Chunks: cfg.Chunks,
		Parallelism: cfg.Parallelism, ComputeSec: cfg.ComputeSec, CompressSec: cfg.CompressSec,
		StepTimeout: cfg.StepTimeout, Transport: cfg.Transport, Scenario: cfg.Scenario, Telemetry: cfg.Telemetry,
	}
	tp, err := newInstrumented(ncfg)
	if err != nil {
		return nil, err
	}
	nodes := NodeCount(cfg.Workers, cfg.Collective)
	e := &Engine{
		cfg:   cfg,
		tp:    tp,
		nodes: make([]*Node, nodes),
		outs:  make([][]float64, cfg.Workers),
		errs:  make([]error, nodes),
		work:  make(chan int, nodes),
	}
	for i := range e.nodes {
		ncfg.Rank = i
		e.nodes[i] = newNode(ncfg, tp)
		e.live.Add(1)
		go e.host()
	}
	return e, nil
}

// Transport exposes the instrumented transport for traffic and
// virtual-time inspection.
func (e *Engine) Transport() *Instrumented { return e.tp }

// Close stops the node goroutines and closes the transport. The Engine
// is not concurrency-safe: Exchange and Close must come from one
// goroutine (the Trainer's step loop).
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.tp.Close()
	close(e.work)
	e.live.Wait()
	return err
}

// Exchange implements dist.GradientExchange: it hands every worker node
// its contribution, runs all the nodes' rounds of the collective, and
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
	// here, before the handoff, and aliased into every node's scratch, so
	// the node goroutines never mutate it (localSparse's grow loop is a
	// no-op once the shared ramp covers the dimension) and the engine
	// pays for one ramp instead of one per worker.
	if coll != netsim.CollectiveRing {
		for _, in := range ins {
			if in.Sparse == nil {
				for i := len(e.ident); i < len(agg); i++ {
					e.ident = append(e.ident, int32(i))
				}
				for _, n := range e.nodes {
					n.sc.ident = e.ident
				}
				break
			}
		}
	}
	for w := range e.outs {
		if len(e.outs[w]) != len(agg) {
			e.outs[w] = make([]float64, len(agg))
		}
	}
	e.step, e.coll, e.ins = step, coll, ins
	e.round.Add(len(e.nodes))
	for i := range e.nodes {
		e.work <- i
	}
	e.round.Wait()
	e.ins = nil
	err = e.roundErr()
	if err == nil && e.cfg.Verify {
		for w := 1; w < e.cfg.Workers; w++ {
			for i := range e.outs[0] {
				if e.outs[w][i] != e.outs[0][i] {
					err = fmt.Errorf("cluster: node %d disagrees with node 0 at element %d: %v vs %v",
						w, i, e.outs[w][i], e.outs[0][i])
					break
				}
			}
		}
	}
	if err != nil {
		// Fail-stop: a broken round leaves stray messages in the
		// transport, so the engine cannot safely run another schedule.
		e.Close()
		return err
	}
	copy(agg, e.outs[0])
	return nil
}

// host is the body of one of the engine's node goroutines: for every
// node index handed over on work, it runs that node's round of the
// current exchange — the worker's exchange or the server's serveRound,
// both tagged with the exchange's own step so the shared transport's
// step tag and fault clock agree across nodes.
func (e *Engine) host() {
	defer e.live.Done()
	for i := range e.work {
		if i < e.cfg.Workers {
			e.errs[i] = e.nodes[i].exchange(e.step, e.coll, e.ins[i], e.outs[i])
		} else {
			e.errs[i] = e.nodes[i].serveRound(int64(e.step))
		}
		e.round.Done()
	}
}

// roundErr reports a failed round by its root cause. A failing node
// closes the shared transport to unblock its peers, which then fail with
// ErrClosed; so the first error in node order that does not wrap
// ErrClosed is the cause, falling back to the first error of all.
func (e *Engine) roundErr() error {
	first := -1
	for i, err := range e.errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrClosed) {
			first = i
			break
		}
		if first < 0 {
			first = i
		}
	}
	if first < 0 {
		return nil
	}
	return fmt.Errorf("cluster: node %d: %w", first, e.errs[first])
}
