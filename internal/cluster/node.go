package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// nodeScratch is one node's reusable pipeline storage: encode buffers
// (one per chunk — a chunk's buffer stays pinned while it circulates the
// ring, so chunks cannot share), the all-gather result slots, the decode
// target, the zero-copy view headers and the identity index ramp backing
// dense-as-sparse views.
type nodeScratch struct {
	enc    [][]byte
	gather [][]byte
	ready  []float64 // per-chunk compression completion (virtual time)
	dec    tensor.Sparse
	decs   []tensor.Sparse // per-origin decode targets of the parallel path
	decErr []error         // per-origin decode outcomes, drained in order
	view   tensor.Sparse   // chunk subrange of the local selection
	full   tensor.Sparse   // full-support view of a dense gradient
	ident  []int32         // 0..dim-1 ramp for dense-as-sparse views
}

// runWorker executes this worker's half of one exchange under the
// resolved collective coll, leaving the aggregated mean in out (whose
// length is the gradient dimension).
func (n *Node) runWorker(step int, coll netsim.Collective, in dist.ExchangeInput, out []float64) error {
	w := n.cfg.Rank
	if n.cfg.ComputeSec > 0 {
		n.tp.Compute(w, n.cfg.ComputeSec)
	}
	recv := interceptRecv(n.tp, n.stepDeadline())
	switch coll {
	case netsim.CollectiveRing:
		// Dense in-ring reduction: start from the local dense gradient
		// (densifying the sparse selection if the caller forced ring).
		if in.Sparse != nil {
			tensor.Zero(out)
			in.Sparse.AddTo(out)
		} else {
			if len(in.Dense) != len(out) {
				return fmt.Errorf("dense gradient has %d elements, want %d", len(in.Dense), len(out)) //sidco:errclass geometry violation means a buggy caller, deliberately fatal
			}
			copy(out, in.Dense)
		}
		if err := ringAllReduceGroup(n.tp, recv, n.workers, w, out); err != nil {
			return err
		}
		tensor.Scale(1/float64(len(n.workers)), out)
		return nil

	case netsim.CollectiveAllGather:
		return n.runAllGather(step, in, recv, out)

	case netsim.CollectivePS:
		sc := &n.sc
		sp, err := n.localSparse(in, len(out))
		if err != nil {
			return err
		}
		sc.enc = growSlots(sc.enc, 1)
		es := n.cfg.Telemetry.Begin(telemetry.SpanEncode, w, -1, -1, int64(step)).WithValue(int64(n.format))
		sc.enc[0], err = encoding.EncodeTo(sc.enc[0][:0], sp, n.format)
		es.End()
		if err != nil {
			return err
		}
		if err := n.tp.Send(w, n.cfg.Workers, sc.enc[0]); err != nil {
			return err
		}
		reply, err := recv(w, n.cfg.Workers)
		if err != nil {
			return err
		}
		if err := encoding.DecodeInto(&sc.dec, reply); err != nil {
			return fmt.Errorf("decoding server reply: %w", err)
		}
		if sc.dec.Dim != len(out) {
			return fmt.Errorf("server reply has dim %d, want %d", sc.dec.Dim, len(out)) //sidco:errclass geometry violation means a buggy peer, deliberately fatal
		}
		tensor.Zero(out)
		sc.dec.AddTo(out)
		return nil
	}
	return fmt.Errorf("unreachable collective") //sidco:errclass internal invariant, deliberately fatal
}

// runAllGather executes the (optionally chunked) sparse all-gather for
// one node. The local selection is partitioned by index range into C
// chunks — each chunk's element budget is exactly what the monolithic
// selection placed in that range, so the global k-budget is preserved
// without any per-chunk floor — and every chunk runs one all-gather of
// encoded payloads. Compression time (CompressSec/C per chunk) and the
// encode of chunk i+1 happen inside chunk i's pipeline overlap slot.
//
// Aggregation stays bit-identical to the monolithic schedule: chunks
// partition the index space, and within each chunk contributions are
// decoded and added in worker-index order — for every element the same
// addition sequence as dist.InProcess over a lossless wire.
//
// Chunk counts beyond the dimension are harmless: chunkBounds collides
// (c*d/C == (c+1)*d/C) for the surplus chunks, whose index ranges are
// empty, so they ship header-only payloads and contribute nothing to the
// sum — the schedule still runs C full all-gathers, which is what the
// traffic formulas (netsim.ChunkedAllGatherMessages) count.
func (n *Node) runAllGather(step int, in dist.ExchangeInput, recv linkRecv, out []float64) error {
	w, sc, members, dim := n.cfg.Rank, &n.sc, n.workers, len(out)
	origins := len(members)
	C := max(n.cfg.Chunks, 1)
	sp, err := n.localSparse(in, dim)
	if err != nil {
		return err
	}
	perChunkCompress := 0.0
	if n.cfg.CompressSec > 0 {
		perChunkCompress = n.cfg.CompressSec / float64(C)
	}
	sc.enc = growSlots(sc.enc, C)
	if cap(sc.ready) < C {
		sc.ready = make([]float64, C)
	}
	sc.ready = sc.ready[:C]

	// encodeUpTo materialises chunk payloads in ascending order, charging
	// each chunk's compression slice to the node's compressor lane (which
	// runs concurrently with the NICs) and recording when each chunk
	// becomes sendable. It is called from the overlap hook (the pipelined
	// slot) and is idempotent from the loop head, which keeps single-node
	// rings — no transport step, so no hook — correct.
	encoded, pos := 0, 0
	encodeUpTo := func(c int) error {
		for ; encoded <= c; encoded++ {
			sc.ready[encoded] = 0
			if perChunkCompress > 0 {
				sc.ready[encoded] = n.tp.ComputeOverlap(w, perChunkCompress)
			}
			_, hi := chunkBounds(dim, C, encoded)
			end := pos
			for end < len(sp.Idx) && int(sp.Idx[end]) < hi {
				end++
			}
			sc.view = tensor.Sparse{Dim: dim, Idx: sp.Idx[pos:end], Vals: sp.Vals[pos:end]}
			pos = end
			var err error
			es := n.cfg.Telemetry.Begin(telemetry.SpanEncode, w, -1, encoded, int64(step)).WithValue(int64(n.format))
			sc.enc[encoded], err = encoding.EncodeTo(sc.enc[encoded][:0], &sc.view, n.format)
			es.End()
			if err != nil {
				return err
			}
		}
		return nil
	}

	tensor.Zero(out)
	for c := 0; c < C; c++ {
		if err := encodeUpTo(c); err != nil {
			return err
		}
		// The chunk's own payload cannot leave before its compression
		// finishes; everything the node merely forwards is not gated.
		n.tp.WaitFor(w, sc.ready[c])
		overlap := func() error {
			if c+1 < C {
				return encodeUpTo(c + 1)
			}
			return nil
		}
		sc.gather, err = allGatherGroup(n.tp, recv, members, w, sc.enc[c], sc.gather, overlap)
		if err != nil {
			return err
		}
		// Decode and reduce in worker-index order: with a lossless format
		// this is the exact operation sequence of dist.InProcess. With
		// Parallelism > 1 the per-origin decodes fan out into per-origin
		// scratch, but the floating-point reduction below still runs
		// serially in worker-index order, so the aggregate stays
		// bit-identical to the sequential schedule.
		p := min(n.cfg.Parallelism, origins)
		if p > 1 {
			for len(sc.decs) < origins {
				sc.decs = append(sc.decs, tensor.Sparse{})
				sc.decErr = append(sc.decErr, nil)
			}
			par.Do(p, func(worker int) {
				lo, hi := par.RangeBounds(origins, p, worker)
				for origin := lo; origin < hi; origin++ {
					sc.decErr[origin] = encoding.DecodeInto(&sc.decs[origin], sc.gather[origin])
				}
			})
		}
		for origin := 0; origin < origins; origin++ {
			dec := &sc.dec
			if p > 1 {
				dec, err = &sc.decs[origin], sc.decErr[origin]
			} else {
				err = encoding.DecodeInto(dec, sc.gather[origin])
			}
			if err != nil {
				return fmt.Errorf("decoding origin %d chunk %d: %w", members[origin], c, err)
			}
			if dec.Dim != dim {
				return fmt.Errorf("origin %d has dim %d, want %d", members[origin], dec.Dim, dim) //sidco:errclass geometry violation means a buggy peer, deliberately fatal
			}
			dec.AddTo(out)
		}
	}
	tensor.Scale(1/float64(origins), out)
	return nil
}

// localSparse resolves a worker's contribution to a sparse vector of
// dimension dim without copying: compressed gradients are used as-is,
// dense gradients get a full-support view over the scratch's index ramp,
// so even the no-compression baseline moves real encoded bytes.
func (n *Node) localSparse(in dist.ExchangeInput, dim int) (*tensor.Sparse, error) {
	if in.Sparse != nil {
		return in.Sparse, nil
	}
	if len(in.Dense) != dim {
		return nil, fmt.Errorf("dense gradient has %d elements, want %d", len(in.Dense), dim) //sidco:errclass geometry violation means a buggy caller, deliberately fatal
	}
	sc := &n.sc
	for i := len(sc.ident); i < dim; i++ {
		sc.ident = append(sc.ident, int32(i))
	}
	sc.full = tensor.Sparse{Dim: dim, Idx: sc.ident[:dim], Vals: in.Dense}
	return &sc.full, nil
}

// growSlots ensures bufs has at least n reusable byte-buffer slots.
func growSlots(bufs [][]byte, n int) [][]byte {
	for len(bufs) < n {
		bufs = append(bufs, nil)
	}
	return bufs
}

// psServer is the parameter-server node's reusable aggregation state:
// one value lives in the server Node for its whole life, whether an
// Engine or Node.Serve drives its rounds.
type psServer struct {
	acc  []float64
	dim  int
	dec  tensor.Sparse
	agg  tensor.Sparse
	wire []byte
}

// round serves one parameter-server exchange: receive every surviving
// worker's push in worker-index order, combine, and broadcast the mean
// over the surviving count.
func (s *psServer) round(tp Transport, recv linkRecv, server int, workers []int, format encoding.Format) error {
	combine := func(pos, worker int, payload []byte) error {
		if err := encoding.DecodeInto(&s.dec, payload); err != nil {
			return err
		}
		if pos == 0 {
			s.dim = s.dec.Dim
			if len(s.acc) != s.dim {
				s.acc = make([]float64, s.dim)
			}
			tensor.Zero(s.acc)
		} else if s.dec.Dim != s.dim {
			return fmt.Errorf("worker %d pushed dim %d, want %d", worker, s.dec.Dim, s.dim) //sidco:errclass geometry violation means a buggy peer, deliberately fatal
		}
		// Worker-index arrival order (psServeGroup receives in ascending
		// member order) keeps the sum bit-identical to the in-process
		// reducer.
		s.dec.AddTo(s.acc)
		return nil
	}
	reply := func() ([]byte, error) {
		tensor.Scale(1/float64(len(workers)), s.acc)
		sparsifyInto(&s.agg, s.dim, s.acc)
		var err error
		// The reply buffer is broadcast to every worker and read
		// within the round, so recycling it across rounds is safe:
		// the round barrier ends before reuse.
		s.wire, err = encoding.EncodeTo(s.wire[:0], &s.agg, format)
		if err != nil {
			return nil, err
		}
		return s.wire, nil
	}
	return psServeGroup(tp, recv, server, workers, combine, reply)
}

// sparsifyInto extracts the non-zero support of a dense vector into
// reused sparse storage. Exact zeros drop out of the encoding; decoding
// restores them as zeros, so the round-trip is value-preserving.
func sparsifyInto(dst *tensor.Sparse, dim int, dense []float64) {
	dst.Reset(dim)
	for i, v := range dense {
		if v != 0 {
			dst.Append(int32(i), v)
		}
	}
}

// NodeConfig is the one cluster configuration: it assembles one Node of
// a multi-process deployment (NewNode) or every node of an in-process
// Engine (New). Every process of a deployment must pass identical
// Workers, Collective, Format, Chunks, ComputeSec and CompressSec, or the
// interlocking schedules diverge.
type NodeConfig struct {
	// Workers is the global number of training nodes N (>= 1) — not the
	// count hosted by this process.
	Workers int
	// Rank is this node's id: 0..Workers-1 for a worker node, or exactly
	// Workers for the parameter-server node (CollectivePS only), which
	// runs Serve instead of Exchange. New rejects a non-zero Rank: the
	// Engine assigns every rank itself.
	Rank int
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
	// Parallelism fans each node's per-origin payload decodes out over
	// up to this many goroutines per chunk round; the decoded
	// contributions are then reduced serially in worker-index order, so
	// aggregates are bit-identical to the sequential schedule at any
	// setting. 0 or 1 decodes sequentially. It is purely node-local (it
	// never changes what goes on the wire or the reduction order), so it
	// may differ across the processes of one deployment.
	Parallelism int
	// ComputeSec charges this much local work to every worker's clock at
	// the start of each exchange (scaled per node by the scenario's
	// straggler factors).
	ComputeSec float64
	// CompressSec charges this much compression time per exchange to
	// every worker's clock, split evenly across chunks. Unlike
	// ComputeSec, which is charged up front, the per-chunk slices are
	// charged inside the pipeline overlap slot, so under Chunks > 1 they
	// hide behind in-flight communication (scaled per node by the
	// scenario's straggler factors).
	CompressSec float64
	// StepTimeout, when positive, bounds every blocking receive of one
	// exchange (and of one server round): a receive stuck past the
	// deadline fails the step with an error wrapping ErrTimeout — a
	// recoverable classification, unlike ErrClosed. It must comfortably
	// exceed one full step including every peer's local compute, since
	// the schedules only interlock once all peers reach the exchange.
	// Under an Engine the classified error surfaces from Exchange and the
	// engine shuts down. 0 disables deadlines (a dead peer then blocks
	// the step forever unless the transport detects it, as TCP does).
	StepTimeout time.Duration
	// MaxStepRetries enables elastic recovery: a step that fails
	// recoverably (peer lost or receive timeout) triggers a membership
	// renegotiation among the surviving nodes — fixed mask-exchange
	// rounds over the raw transport that double as a link drain — and is
	// then retried over the agreed group, up to this many times across
	// the node's lifetime per step. The surviving workers rescale the
	// aggregated mean to their count. 0 keeps the fail-stop behaviour,
	// and New rejects anything else: the Engine is fail-stop.
	// Requires StepTimeout > 0: without deadlines, survivors that are
	// not adjacent to the dead peer would block forever instead of
	// joining the renegotiation. Also requires a deployment of at most
	// 64 nodes: the renegotiated membership is a uint64 bit mask.
	MaxStepRetries int
	// Transport carries the deployment's messages and must span
	// NodeCount(Workers, Collective) nodes. NewNode requires one:
	// typically a TCPTransport hosting this rank over the deployment's
	// shared host list. New defaults to an in-process ChanTransport, or
	// takes a TCPTransport hosting every node for loopback-socket runs.
	//
	// A node reuses its encode buffers across exchanges and has no
	// per-round barrier of its own (an Engine supplies one: its Exchange
	// joins every hosted node's round before returning). A TCPTransport
	// copies every payload through the socket, so reuse is always safe
	// there.
	// Nodes sharing a by-reference transport (ChanTransport) must end
	// every round with a collective barrier before the next Exchange —
	// MeanScalar after each step, as cmd/sidco-node does, is one — or a
	// node running ahead would overwrite bytes a slower peer is still
	// decoding. When in doubt in-process, use Engine instead.
	Transport Transport
	// Scenario enables the virtual-time model on the instrumented
	// transport (nil: traffic counting only). It is meaningful for
	// single-process studies; in a real multi-process run each process
	// only sees its own clock.
	Scenario *Scenario
	// Telemetry, if non-nil, traces every round (per-node collective
	// spans, per-chunk encode spans) and the gradient traffic on the
	// instrumented transport (per-link sent/recv message and byte
	// counters, receive-wait time) — the counters are emitted at the
	// Instrumented layer, so telemetry totals equal
	// Transport().Totals()/RecvTotals() exactly. Nil (the default) costs
	// nothing.
	Telemetry *telemetry.Tracer
	// Verify makes every Engine exchange cross-check that all nodes
	// computed identical aggregates (a distributed-consistency assertion
	// for tests; it costs O(N*d) comparisons per step). NewNode rejects
	// it: the check needs every node in one process.
	Verify bool
}

// Node is one cluster node: a worker (Rank < Workers) or, under
// CollectivePS, the parameter server (Rank == Workers). It runs the
// collective schedules from its own perspective, and it is the only
// runner: a per-process deployment (cmd/sidco-node) holds one Node, and
// an Engine hosts all N of them over one shared transport. A worker Node
// satisfies dist.GradientExchange for a single local worker — plug it
// into a Workers=1 dist.Trainer whose FirstWorker is this rank and the
// process trains global worker Rank, exchanging real bytes with its
// peers. The server Node runs Serve instead.
//
// Exchange leaves the global mean over all Workers contributions in agg,
// so the local optimizer applies exactly the update every peer applies:
// replicas that start from identical weights stay identical, and over
// the lossless wire the whole deployment reproduces the in-process
// trainer bit-for-bit.
type Node struct {
	cfg    NodeConfig
	tp     *Instrumented // shared by every Node an Engine hosts
	format encoding.Format
	sc     nodeScratch
	srv    psServer // the server rank's aggregation state
	scalar [8]byte
	sgath  [][]byte
	closed bool

	// Elastic-membership state: the agreed participant list (worker node
	// ids plus the server id under PS), its worker subset (cached so a
	// round reads it without allocating), the renegotiation epoch, and
	// the stash of membership frames consumed out-of-band.
	group   []int
	workers []int
	epoch   uint32
	ng      negotiator
}

// NewNode validates cfg and binds the node to its transport.
//
//sidco:errclass construction-time config validation, deliberately fatal
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: Node requires a Transport (use Engine for the in-process default)")
	}
	if cfg.Verify {
		return nil, fmt.Errorf("cluster: Verify needs every node in one process (use Engine)")
	}
	tp, err := newInstrumented(cfg)
	if err != nil {
		return nil, err
	}
	return newNode(cfg, tp), nil
}

// newInstrumented validates a node configuration — Workers, Collective,
// Format, Chunks, CompressSec, StepTimeout, MaxStepRetries, Rank and the
// transport size — and builds the instrumented transport over
// cfg.Transport (an in-process ChanTransport when nil), with cfg.Scenario
// and cfg.Telemetry attached. New calls it once for all the nodes it
// hosts, NewNode once for its own.
//
//sidco:errclass construction-time config validation, deliberately fatal
func newInstrumented(cfg NodeConfig) (*Instrumented, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("cluster: Workers = %d, need >= 1", cfg.Workers)
	}
	switch cfg.Collective {
	case netsim.CollectiveAuto, netsim.CollectiveRing, netsim.CollectiveAllGather, netsim.CollectivePS:
	default:
		return nil, fmt.Errorf("cluster: unknown collective %v", cfg.Collective)
	}
	if _, err := cfg.Format.Format(); err != nil {
		return nil, err
	}
	if err := validateChunks(cfg.Chunks, cfg.Collective); err != nil {
		return nil, err
	}
	if cfg.CompressSec < 0 {
		return nil, fmt.Errorf("cluster: CompressSec = %v, need >= 0", cfg.CompressSec)
	}
	if cfg.StepTimeout < 0 {
		return nil, fmt.Errorf("cluster: StepTimeout = %v, need >= 0", cfg.StepTimeout)
	}
	nodes := NodeCount(cfg.Workers, cfg.Collective)
	inner := cfg.Transport
	if inner == nil {
		var err error
		if inner, err = NewChanTransport(nodes); err != nil {
			return nil, err
		}
	}
	if inner.Nodes() < nodes {
		return nil, fmt.Errorf("cluster: transport has %d nodes, need %d", inner.Nodes(), nodes)
	}
	if cfg.MaxStepRetries < 0 {
		return nil, fmt.Errorf("cluster: MaxStepRetries = %d, need >= 0", cfg.MaxStepRetries)
	}
	if cfg.MaxStepRetries > 0 && cfg.StepTimeout <= 0 {
		return nil, fmt.Errorf("cluster: MaxStepRetries = %d requires StepTimeout > 0 (recovery needs receive deadlines to detect a dead peer from every rank)", cfg.MaxStepRetries)
	}
	if cfg.MaxStepRetries > 0 && nodes > maxMaskNodes {
		return nil, fmt.Errorf("cluster: MaxStepRetries = %d supports at most %d nodes (the membership mask is a uint64), deployment has %d", cfg.MaxStepRetries, maxMaskNodes, nodes)
	}
	if cfg.Rank < 0 || cfg.Rank >= nodes {
		return nil, fmt.Errorf("cluster: Rank = %d outside the %d-node deployment", cfg.Rank, nodes)
	}
	if cfg.Rank == cfg.Workers && cfg.Collective != netsim.CollectivePS {
		return nil, fmt.Errorf("cluster: Rank = %d is the server slot, which only CollectivePS has", cfg.Rank)
	}
	return NewInstrumented(inner, cfg.Scenario).WithTelemetry(cfg.Telemetry), nil
}

// newNode binds a configuration newInstrumented accepted to tp.
func newNode(cfg NodeConfig, tp *Instrumented) *Node {
	format, _ := cfg.Format.Format() // validated by newInstrumented
	n := &Node{cfg: cfg, tp: tp, format: format}
	n.setGroup(identityMembers(NodeCount(cfg.Workers, cfg.Collective)))
	return n
}

// Transport exposes the node's instrumented transport: its counters see
// this process's gradient traffic (sends from and receives at this
// rank), which is what a per-node traffic cross-check compares against
// the per-node share of netsim's collective formulas.
func (n *Node) Transport() *Instrumented { return n.tp }

// Exchange implements dist.GradientExchange for the single local worker:
// ins must hold exactly one input — this rank's contribution — and agg
// receives the global mean over all Workers contributions. Every worker
// process must call Exchange for the same step with the same collective
// resolution, or the interlocked schedules deadlock; the transport's
// per-link FIFO keeps successive steps from interleaving.
func (n *Node) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	if n.closed {
		return fmt.Errorf("cluster: exchange on closed node: %w", ErrClosed)
	}
	if n.cfg.Rank >= n.cfg.Workers {
		return fmt.Errorf("cluster: exchange on the server node (rank %d); run Serve instead", n.cfg.Rank) //sidco:errclass caller misuse, deliberately fatal
	}
	if len(ins) != 1 {
		return fmt.Errorf("cluster: node exchange got %d inputs, hosts exactly 1 worker", len(ins)) //sidco:errclass caller misuse, deliberately fatal
	}
	if ins[0].Worker != n.cfg.Rank {
		return fmt.Errorf("cluster: node %d handed worker %d's gradient (is the trainer's FirstWorker set to the rank?)", n.cfg.Rank, ins[0].Worker) //sidco:errclass caller misuse, deliberately fatal
	}
	coll, err := resolveCollective(n.cfg.Collective, ins[0].Sparse != nil, n.cfg.Chunks)
	if err != nil {
		return err
	}
	if err := n.exchange(step, coll, ins[0], agg); err != nil {
		return fmt.Errorf("cluster: node %d: %w", n.cfg.Rank, err)
	}
	return nil
}

// exchange runs this worker's round of step under the resolved
// collective coll, leaving the mean in out. A recoverable failure
// renegotiates membership and retries, up to MaxStepRetries times; any
// other failure is fail-stop — a broken round leaves stray messages on
// the links, so the node closes its transport (unblocking every peer
// sharing it) and cannot run another schedule.
func (n *Node) exchange(step int, coll netsim.Collective, in dist.ExchangeInput, out []float64) error {
	for attempt := 0; ; attempt++ {
		n.tp.SetStep(int64(step))
		span := n.cfg.Telemetry.Begin(telemetry.SpanCollective, n.cfg.Rank, -1, -1, int64(step))
		err := n.runWorker(step, coll, in, out)
		span.End()
		if err == nil {
			return nil
		}
		if !Recoverable(err) || attempt >= n.cfg.MaxStepRetries {
			n.Close()
			return err
		}
		if rerr := n.recover(err); rerr != nil {
			n.Close()
			return fmt.Errorf("step %d recovery after %v: %w", step, err, rerr)
		}
	}
}

// setGroup installs an agreed participant list and caches its worker
// subset: the group minus the server node (if any), ascending.
func (n *Node) setGroup(group []int) {
	n.group, n.workers = group, group
	if n.cfg.Collective != netsim.CollectivePS {
		return
	}
	n.workers = make([]int, 0, len(group))
	for _, id := range group {
		if id < n.cfg.Workers {
			n.workers = append(n.workers, id)
		}
	}
}

// stepDeadline computes the receive deadline of one schedule run.
//
//sidco:nondet fault-detection deadline, never feeds gradient math
func (n *Node) stepDeadline() time.Time {
	if n.cfg.StepTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(n.cfg.StepTimeout)
}

// recover handles a recoverable step failure: renegotiate membership
// with the survivors (seeding the protocol with a frame the failing
// receive may already have consumed) and validate that the agreed group
// can still train. The renegotiation timeout is twice the step timeout:
// a survivor adjacent to the dead peer fails fast, one waiting on a
// forwarded payload only after a full step timeout.
func (n *Node) recover(cause error) error {
	var pr *peerRenegotiating
	if errors.As(cause, &pr) {
		n.ng.note(pr.from, pr.frame)
	}
	timeout := 2 * n.cfg.StepTimeout
	dbg("node %d: recovering (epoch %d) after: %v", n.cfg.Rank, n.epoch+1, cause)
	view, err := n.ng.renegotiate(n.tp.inner, n.cfg.Rank, n.group, n.epoch+1, timeout)
	if err != nil {
		return err
	}
	dbg("node %d: epoch %d agreed members %v", n.cfg.Rank, n.epoch+1, view)
	n.epoch++
	n.setGroup(view)
	if n.cfg.Collective == netsim.CollectivePS && memberPos(view, n.cfg.Workers) < 0 {
		return fmt.Errorf("cluster: parameter server lost — a PS deployment cannot recover without its server") //sidco:errclass lost server is unrecoverable under PS, deliberately fatal
	}
	if len(n.workers) < 1 {
		return fmt.Errorf("cluster: no workers left in the renegotiated group %v", view) //sidco:errclass empty worker set is unrecoverable, deliberately fatal
	}
	return nil
}

// MeanScalar all-reduces one scalar across the worker nodes and returns
// the mean, summed in worker-index order — the reduction that makes the
// global training loss of a multi-process run bit-identical to the
// in-process trainer's. It rides the raw transport, not the
// instrumented one: loss reporting is diagnostics, so it never pollutes
// the gradient-traffic counters the netsim cross-checks compare.
func (n *Node) MeanScalar(x float64) (float64, error) {
	if n.closed {
		return 0, fmt.Errorf("cluster: scalar reduce on closed node: %w", ErrClosed)
	}
	if n.cfg.Rank >= n.cfg.Workers {
		return 0, fmt.Errorf("cluster: scalar reduce on the server node (rank %d)", n.cfg.Rank) //sidco:errclass caller misuse, deliberately fatal
	}
	binary.LittleEndian.PutUint64(n.scalar[:], math.Float64bits(x))
	for attempt := 0; ; attempt++ {
		members := n.workers
		if len(members) == 1 {
			return x, nil
		}
		recv := interceptRecv(n.tp.inner, n.stepDeadline())
		sgath, err := allGatherGroup(n.tp.inner, recv, members, n.cfg.Rank, n.scalar[:], n.sgath, nil)
		if err == nil {
			n.sgath = sgath
			sum := 0.0
			for pos := range members {
				if len(sgath[pos]) != 8 {
					n.Close()
					return 0, fmt.Errorf("cluster: node %d scalar reduce: origin %d payload has %d bytes", n.cfg.Rank, members[pos], len(sgath[pos])) //sidco:errclass geometry violation means a buggy peer, deliberately fatal
				}
				sum += math.Float64frombits(binary.LittleEndian.Uint64(sgath[pos]))
			}
			return sum * (1 / float64(len(members))), nil
		}
		if !Recoverable(err) || attempt >= n.cfg.MaxStepRetries {
			n.Close()
			return 0, fmt.Errorf("cluster: node %d scalar reduce: %w", n.cfg.Rank, err)
		}
		if rerr := n.recover(err); rerr != nil {
			n.Close()
			return 0, fmt.Errorf("cluster: node %d scalar reduce recovery after %v: %w", n.cfg.Rank, err, rerr)
		}
	}
}

// Serve runs the parameter-server loop (Rank == Workers): one
// aggregation round per worker exchange. rounds > 0 serves exactly that
// many rounds — the deterministic shutdown of a fixed-iteration
// deployment, where the server is told the step count every worker was
// told. rounds <= 0 serves until the transport closes (the closure is
// the shutdown signal, so it returns nil rather than an error); note a
// peer merely dropping its connections does not close this node's
// transport, so unbounded serving needs an external Close.
func (n *Node) Serve(rounds int) error {
	if n.cfg.Rank != n.cfg.Workers || n.cfg.Collective != netsim.CollectivePS {
		return fmt.Errorf("cluster: Serve on rank %d, want the server rank %d under PS", n.cfg.Rank, n.cfg.Workers) //sidco:errclass caller misuse, deliberately fatal
	}
	for served := 0; rounds <= 0 || served < rounds; served++ {
		if err := n.serveRound(int64(served)); err != nil {
			if errors.Is(err, ErrClosed) {
				return nil
			}
			return fmt.Errorf("cluster: server: %w", err)
		}
	}
	return nil
}

// serveRound serves the parameter-server round of step: receive every
// surviving worker's push, combine, and broadcast the mean. Failures are
// handled as in exchange — a recoverable one renegotiates and retries,
// any other closes the transport — except that a closed transport (the
// shutdown signal) only marks the node closed.
func (n *Node) serveRound(step int64) error {
	n.tp.SetStep(step)
	for attempt := 0; ; attempt++ {
		span := n.cfg.Telemetry.Begin(telemetry.SpanCollective, n.cfg.Rank, -1, -1, step)
		recv := interceptRecv(n.tp, n.stepDeadline())
		err := n.srv.round(n.tp, recv, n.cfg.Rank, n.workers, n.format)
		span.End()
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrClosed) {
			n.closed = true
			return err
		}
		if !Recoverable(err) || attempt >= n.cfg.MaxStepRetries {
			n.Close()
			return err
		}
		if rerr := n.recover(err); rerr != nil {
			n.Close()
			return fmt.Errorf("round %d recovery after %v: %w", step, err, rerr)
		}
	}
}

// Close marks the node closed and closes its transport. Safe to call
// more than once.
func (n *Node) Close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	return n.tp.Close()
}
