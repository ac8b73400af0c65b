// Package netsim models the communication stage of synchronous
// data-parallel training: ring all-reduce for dense gradients, all-gather
// for sparse (index, value) gradients, and a parameter-server alternative.
// Costs follow the standard alpha-beta (latency-bandwidth) collective
// model.
package netsim

import "fmt"

// Network describes the cluster fabric.
type Network struct {
	// Workers is the number of training nodes N.
	Workers int
	// BandwidthBps is per-link bandwidth in bits/second (the paper's
	// dedicated cluster uses 25 Gbps Ethernet).
	BandwidthBps float64
	// LatencySec is the per-message latency alpha.
	LatencySec float64
}

// Cluster25GbE returns the paper's dedicated 8-node cluster fabric.
func Cluster25GbE(workers int) Network {
	return Network{Workers: workers, BandwidthBps: 25e9, LatencySec: 20e-6}
}

// Cluster10GbE returns the 10 Gbps configuration of Section 4.1.
func Cluster10GbE(workers int) Network {
	return Network{Workers: workers, BandwidthBps: 10e9, LatencySec: 30e-6}
}

// NVLinkNode returns the shared multi-GPU single-node fabric of the
// Figure 13 experiment (fast intra-node interconnect).
func NVLinkNode(workers int) Network {
	return Network{Workers: workers, BandwidthBps: 200e9, LatencySec: 5e-6}
}

// DyadicLab returns a test fabric whose alpha-beta arithmetic is exact
// in float64: bandwidth 2^27 bits/s and latency 2^-20 s, both powers of
// two, so a transfer of b bytes costs b*2^-24 seconds — a dyadic
// rational for any integer payload size. Every closed form in this
// package is then a finite sum/product of dyadic rationals well inside
// float64's 53-bit mantissa, and cluster.Instrumented's incremental
// accumulation of the same quantities lands on bit-identical values.
// That is the fabric the trace-assembly cross-checks run on: assembled
// critical paths must equal these formulas exactly, not approximately.
// (~128 Mbps with ~1 microsecond latency — a plausible slow fabric, but
// chosen for representability, not realism.)
func DyadicLab(workers int) Network {
	return Network{Workers: workers, BandwidthBps: 1 << 27, LatencySec: 1.0 / (1 << 20)}
}

func (n Network) validate() error {
	if n.Workers < 1 {
		return fmt.Errorf("netsim: %d workers", n.Workers)
	}
	if n.BandwidthBps <= 0 {
		return fmt.Errorf("netsim: bandwidth %v", n.BandwidthBps)
	}
	return nil
}

// transfer returns the time to move b bytes over one link.
func (n Network) transfer(bytes float64) float64 {
	return bytes * 8 / n.BandwidthBps
}

// AllReduceDense returns the time of a ring all-reduce over a dense buffer
// of the given size: 2(N-1) steps each moving bytes/N.
func (n Network) AllReduceDense(bytes int) float64 {
	if err := n.validate(); err != nil || n.Workers == 1 {
		return 0
	}
	steps := float64(2 * (n.Workers - 1))
	return steps*n.transfer(float64(bytes)/float64(n.Workers)) + steps*n.LatencySec
}

// AllGatherSparse returns the time for every worker to receive every other
// worker's sparse gradient of the given encoded size (the collective used
// with sparsification, since sparse buffers cannot be reduced in-ring
// without densifying): N-1 steps each moving one worker's buffer.
func (n Network) AllGatherSparse(bytesPerWorker int) float64 {
	if err := n.validate(); err != nil || n.Workers == 1 {
		return 0
	}
	steps := float64(n.Workers - 1)
	return steps*n.transfer(float64(bytesPerWorker)) + steps*n.LatencySec
}

// ParameterServer returns the time for all workers to push their (sparse
// or dense) gradient of pushBytes to a central server and pull back an
// aggregate of pullBytes, assuming the server link is the bottleneck.
// Every push and every pull is a separate message, so each of the 2N
// transfers pays the per-message latency alpha.
func (n Network) ParameterServer(pushBytes, pullBytes int) float64 {
	if err := n.validate(); err != nil || n.Workers == 1 {
		return 0
	}
	w := float64(n.Workers)
	inbound := w * (n.transfer(float64(pushBytes)) + n.LatencySec)
	outbound := w * (n.transfer(float64(pullBytes)) + n.LatencySec)
	return inbound + outbound
}

// CommTime returns the gradient-exchange time for one iteration given the
// dense dimension and the per-worker sparse payload size in bytes; dense
// (nil payload semantics: bytesSparse < 0) uses ring all-reduce, sparse
// uses all-gather.
func (n Network) CommTime(denseBytes, sparseBytes int, compressed bool) float64 {
	return n.CollectiveTime(CollectiveAuto, denseBytes, sparseBytes, compressed)
}

// Collective names a gradient-exchange schedule. internal/cluster executes
// the same three schedules as real message exchanges; this package prices
// them analytically.
type Collective int

const (
	// CollectiveAuto picks ring all-reduce for dense exchanges and
	// all-gather for sparse ones — the pairing the paper's cluster uses.
	CollectiveAuto Collective = iota
	// CollectiveRing is ring all-reduce: 2(N-1) steps of bytes/N.
	CollectiveRing
	// CollectiveAllGather is the sparse all-gather ring: N-1 steps each
	// forwarding one worker's whole payload.
	CollectiveAllGather
	// CollectivePS is the central parameter server: N pushes, N pulls.
	CollectivePS
)

// String implements fmt.Stringer.
func (c Collective) String() string {
	switch c {
	case CollectiveAuto:
		return "auto"
	case CollectiveRing:
		return "ring"
	case CollectiveAllGather:
		return "allgather"
	case CollectivePS:
		return "ps"
	default:
		return fmt.Sprintf("collective(%d)", int(c))
	}
}

// ParseCollective resolves a collective name (the String values: auto,
// ring, allgather, ps) — the inverse of String.
func ParseCollective(name string) (Collective, error) {
	for c := CollectiveAuto; c <= CollectivePS; c++ {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("netsim: unknown collective %q (want auto, ring, allgather or ps)", name)
}

// CollectiveTime prices one gradient exchange over the chosen collective.
// denseBytes is the full-model payload (used by ring and as the PS pull
// size), sparseBytes the per-worker encoded payload (used by all-gather
// and as the PS push size when compressed).
func (n Network) CollectiveTime(c Collective, denseBytes, sparseBytes int, compressed bool) float64 {
	switch c {
	case CollectiveRing:
		return n.AllReduceDense(denseBytes)
	case CollectiveAllGather:
		return n.AllGatherSparse(sparseBytes)
	case CollectivePS:
		push := denseBytes
		if compressed {
			push = sparseBytes
		}
		return n.ParameterServer(push, denseBytes)
	default:
		if compressed {
			return n.AllGatherSparse(sparseBytes)
		}
		return n.AllReduceDense(denseBytes)
	}
}

// PipelineSpan returns the completion time of a two-stage pipeline:
// stage-one items (per-chunk compression, compute[i]) are produced
// serially on one device, and each finished item is shipped through a
// serial communication channel (comm[i]). Chunk i's transmission starts
// when its compression is done and the channel is free, so compression of
// chunk i+1 overlaps the transmission of chunk i. The two slices must
// have equal length; the result is the time the last transmission ends.
//
// This is the closed-form counterpart of internal/cluster's chunked
// execution mode: with a single chunk it degenerates to compute + comm,
// and the monolithic-vs-chunked gap is exactly the hidden overlap.
func PipelineSpan(compute, comm []float64) float64 {
	computeEnd, commEnd := 0.0, 0.0
	for i, c := range compute {
		computeEnd += c
		start := computeEnd
		if commEnd > start {
			start = commEnd
		}
		commEnd = start + comm[i]
	}
	return commEnd
}

// ChunkedAllGatherSparse prices the chunked, pipelined sparse all-gather:
// the per-worker payload is split into chunks of the given encoded sizes,
// each chunk costs compressSecPerChunk to produce, and chunk i+1's
// compression overlaps chunk i's ring all-gather. Each chunk's collective
// pays the full N-1 steps of per-message latency, so chunking trades
// (C-1)*(N-1) extra alphas for the overlap — the model reproduces the
// measured crossover where too-small chunks lose to latency.
func (n Network) ChunkedAllGatherSparse(chunkBytes []int, compressSecPerChunk float64) float64 {
	if err := n.validate(); err != nil {
		return 0
	}
	computeEnd, commEnd := 0.0, 0.0
	for _, b := range chunkBytes {
		computeEnd += compressSecPerChunk
		start := computeEnd
		if commEnd > start {
			start = commEnd
		}
		commEnd = start + n.AllGatherSparse(b)
	}
	return commEnd
}

// Message-count formulas of the three collectives, shared with
// internal/cluster's instrumented-transport tests: the analytic model
// charges one latency alpha per step, and the message-passing engine must
// put exactly that many messages on the wire.

// RingMessages returns the messages each node sends in a ring all-reduce
// of n workers: N-1 reduce-scatter steps plus N-1 all-gather steps.
func RingMessages(n int) int {
	if n <= 1 {
		return 0
	}
	return 2 * (n - 1)
}

// AllGatherMessages returns the messages each node sends in a ring
// all-gather of n workers: N-1 forwarding steps.
func AllGatherMessages(n int) int {
	if n <= 1 {
		return 0
	}
	return n - 1
}

// ChunkedAllGatherMessages returns the messages each node sends in a
// chunked ring all-gather: one full all-gather per chunk.
func ChunkedAllGatherMessages(n, chunks int) int {
	if chunks < 1 {
		chunks = 1
	}
	return chunks * AllGatherMessages(n)
}

// PSMessages returns the total messages of a parameter-server exchange
// with n workers: N pushes plus N pulls. Unlike the ring collectives a
// single worker still exchanges 2 messages — the server is a distinct
// node.
func PSMessages(n int) int {
	if n < 1 {
		return 0
	}
	return 2 * n
}

// ExchangeMessages returns the messages one exchange of collective c
// puts on the wire across every sending node: n ring senders for the
// ring collectives (chunks only splits the all-gather), while the
// parameter server's formula already counts both sides. It is 0 for a
// collective without a fixed schedule (Auto).
func ExchangeMessages(c Collective, workers, chunks int) int {
	switch c {
	case CollectiveRing:
		return workers * RingMessages(workers)
	case CollectiveAllGather:
		return workers * ChunkedAllGatherMessages(workers, chunks)
	case CollectivePS:
		return PSMessages(workers)
	}
	return 0
}

// Byte closed forms of the three collectives. Like the message counts
// these are exact integer identities, not estimates: the instrumented
// transport's byte counters must land on them to the byte, for any wire
// format, because the formulas take the actual encoded payload sizes as
// inputs (encoding.Size supplies them for the data-independent formats).

// AllGatherTrafficBytes returns the bytes the ring all-gather moves to
// distribute ONE worker's encoded payload to the n-1 others: the payload
// is forwarded once per step. Sum it over every worker's (per-chunk)
// payload for the cluster total; divide that by n for the per-node send
// total only when payloads are uniform.
func AllGatherTrafficBytes(n, payloadBytes int) int {
	if n <= 1 {
		return 0
	}
	return (n - 1) * payloadBytes
}

// RingTrafficBytes returns the total bytes all n nodes send in one ring
// all-reduce over a dense buffer of denseBytes: each of the 2(n-1) steps
// moves every node's chunk, and the chunks partition the buffer, so each
// step moves exactly denseBytes across the cluster — regardless of how
// unevenly the d/n chunking rounds.
func RingTrafficBytes(n, denseBytes int) int {
	if n <= 1 {
		return 0
	}
	return 2 * (n - 1) * denseBytes
}

// PSTrafficBytes returns the total bytes of a parameter-server exchange
// with n workers: every worker pushes pushBytes and pulls pullBytes.
func PSTrafficBytes(n, pushBytes, pullBytes int) int {
	if n < 1 {
		return 0
	}
	return n * (pushBytes + pullBytes)
}
