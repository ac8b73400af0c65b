package cluster

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/nn"
)

// localTCP builds a transport hosting all nodes in this process on
// kernel-assigned loopback ports, failing the test on error.
func localTCP(t *testing.T, nodes int) *TCPTransport {
	t.Helper()
	tp, err := newLoopbackTCP(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestTCPTransportFIFO pins the framing and per-link ordering: payloads
// of varied sizes (including empty) arrive intact and in order on every
// directed link of a mesh, interleaved across links.
func TestTCPTransportFIFO(t *testing.T) {
	const n, msgs = 3, 16
	tp := localTCP(t, n)
	defer tp.Close()
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			for m := 0; m < msgs; m++ {
				payload := make([]byte, m*7%11) // sizes 0..10, some empty
				for i := range payload {
					payload[i] = byte(from ^ to ^ m)
				}
				if err := tp.Send(from, to, payload); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			for m := 0; m < msgs; m++ {
				p, err := tp.Recv(to, from)
				if err != nil {
					t.Fatal(err)
				}
				if len(p) != m*7%11 {
					t.Fatalf("link %d->%d msg %d: %d bytes, want %d", from, to, m, len(p), m*7%11)
				}
				for i := range p {
					if p[i] != byte(from^to^m) {
						t.Fatalf("link %d->%d msg %d corrupted at byte %d", from, to, m, i)
					}
				}
			}
		}
	}
}

// TestTCPRecvPrefersDeliveredPayloads exercises the close contract's
// receive side over real sockets: a payload that reached the local inbox
// before Close must be returned, not the closure error.
func TestTCPRecvPrefersDeliveredPayloads(t *testing.T) {
	tp := localTCP(t, 2)
	if err := tp.Send(0, 1, []byte{42}); err != nil {
		t.Fatal(err)
	}
	// First recv proves the frame made it into the inbox pipeline; the
	// second payload then sits delivered when Close lands.
	if _, err := tp.Recv(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.Send(0, 1, []byte{43}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // generous: loopback delivery is microseconds
	tp.Close()
	p, err := tp.Recv(1, 0)
	if err != nil {
		t.Fatalf("recv of pre-close payload failed: %v", err)
	}
	if len(p) != 1 || p[0] != 43 {
		t.Fatalf("got %v, want [43]", p)
	}
	if _, err := tp.Recv(1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained recv error = %v, want ErrClosed", err)
	}
}

// TestTCPPeerDeathFailsRecv pins the dead-peer behaviour: when the
// remote side of a link goes away mid-run (its process dies, its
// transport closes), a blocked or subsequent Recv on that link must fail
// promptly — never hang on an inbox nobody will feed again — while
// payloads that arrived before the loss still drain first, and the
// failure stays sticky.
func TestTCPPeerDeathFailsRecv(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(0, 1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the frame land in b's inbox
	a.Close()                          // peer 0 is gone
	if p, err := b.Recv(1, 0); err != nil || len(p) != 1 || p[0] != 2 {
		t.Fatalf("pre-death payload: got %v, %v; want [2]", p, err)
	}
	for attempt := 0; attempt < 2; attempt++ { // sticky across calls
		done := make(chan error, 1)
		go func() {
			_, err := b.Recv(1, 0)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || errors.Is(err, ErrClosed) {
				t.Fatalf("attempt %d: recv from dead peer returned %v, want a link-lost error", attempt, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("attempt %d: recv from dead peer hung", attempt)
		}
	}
}

// TestTCPTransportValidation covers the hosting and id checks.
func TestTCPTransportValidation(t *testing.T) {
	if _, err := NewTCPTransport(TCPConfig{}); err == nil {
		t.Error("no addresses should error")
	}
	if _, err := NewTCPTransport(TCPConfig{Addrs: []string{"127.0.0.1:0"}, Local: []int{1}}); err == nil {
		t.Error("out-of-range local node should error")
	}
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if err := tp.Send(1, 0, nil); err == nil {
		t.Error("send from a non-hosted node should error")
	}
	if _, err := tp.Recv(1, 0); err == nil {
		t.Error("recv at a non-hosted node should error")
	}
	if err := tp.Send(0, 0, nil); err == nil {
		t.Error("self-send should error")
	}
	if a, err := tp.Addr(0); err != nil || a == "" {
		t.Errorf("Addr(0) = %q, %v", a, err)
	}
	if _, err := tp.Addr(5); err == nil {
		t.Error("out-of-range Addr should error")
	}
}

// TestTCPEngineMatchesChanBitwise runs the same exchange through an
// engine over the channel transport and an engine over TCP loopback: the
// all-gather and parameter-server aggregates must match the in-process
// reducer bit-for-bit, and the ring result must match the channel ring
// bit-for-bit (both run the identical reduction schedule).
func TestTCPEngineMatchesChanBitwise(t *testing.T) {
	const dim = 513
	for _, workers := range []int{1, 2, 4} {
		ins := randomInputs(t, workers, dim, 0.05, int64(workers))
		want := make([]float64, dim)
		if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
			t.Fatal(err)
		}
		for _, coll := range []netsim.Collective{netsim.CollectiveAllGather, netsim.CollectivePS} {
			got, e := engineExchange(t, Config{
				Workers: workers, Collective: coll, Verify: true,
				Transport: localTCP(t, NodeCount(workers, coll)),
			}, ins, dim)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d %v over tcp: element %d = %v, want %v (must be bit-identical)",
						workers, coll, i, got[i], want[i])
				}
			}
			e.Close()
		}
		// Dense ring: compare TCP against the channel transport.
		for i := range ins {
			ins[i].Sparse = nil
		}
		chanAgg, e1 := engineExchange(t, Config{Workers: workers, Collective: netsim.CollectiveRing, Verify: true}, ins, dim)
		e1.Close()
		tcpAgg, e2 := engineExchange(t, Config{
			Workers: workers, Collective: netsim.CollectiveRing, Verify: true,
			Transport: localTCP(t, workers),
		}, ins, dim)
		e2.Close()
		for i := range chanAgg {
			if tcpAgg[i] != chanAgg[i] {
				t.Fatalf("workers=%d ring over tcp: element %d = %v, want %v (same schedule, must be bit-identical)",
					workers, i, tcpAgg[i], chanAgg[i])
			}
		}
	}
}

// TestTCPTrainerAllCompressorsBitIdentical is the tentpole acceptance
// sweep over real sockets: training through an engine whose transport is
// TCP loopback must reproduce the in-process trainer's losses and final
// weights bit-for-bit for every registry compressor, on both
// order-preserving collectives.
func TestTCPTrainerAllCompressorsBitIdentical(t *testing.T) {
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
				e, err := New(Config{
					Workers: workers, Collective: coll, Verify: true,
					Transport: localTCP(t, NodeCount(workers, coll)),
				})
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

// TestTCPInstrumentedTrafficExact pins the Instrumented-over-TCP
// contract: message and byte counts measured on real sockets equal
// netsim's collective formulas and encoding's size accounting exactly —
// including the chunked all-gather with its header-only surplus chunks —
// and the recv-side counters mirror the send side in a single-process
// deployment.
func TestTCPInstrumentedTrafficExact(t *testing.T) {
	const dim, workers = 400, 4
	ins := randomInputs(t, workers, dim, 0.05, 11)
	nnz := ins[0].Sparse.NNZ()

	check := func(t *testing.T, e *Engine, wantMsgs, wantBytes int) {
		t.Helper()
		msgs, bytes := e.Transport().Totals()
		if msgs != wantMsgs {
			t.Errorf("sent %d messages, formula says %d", msgs, wantMsgs)
		}
		if bytes != wantBytes {
			t.Errorf("sent %d bytes, accounting says %d", bytes, wantBytes)
		}
		rmsgs, rbytes := e.Transport().RecvTotals()
		if rmsgs != wantMsgs || rbytes != wantBytes {
			t.Errorf("received %d msgs / %d bytes, want %d / %d (all traffic local)", rmsgs, rbytes, wantMsgs, wantBytes)
		}
	}

	t.Run("allgather", func(t *testing.T) {
		_, e := engineExchange(t, Config{
			Workers: workers, Collective: netsim.CollectiveAllGather,
			Transport: localTCP(t, workers),
		}, ins, dim)
		defer e.Close()
		check(t, e, workers*netsim.AllGatherMessages(workers), workers*(workers-1)*encoding.Pairs64Size(dim, nnz))
	})
	t.Run("allgather-chunked", func(t *testing.T) {
		const chunks = 8
		_, e := engineExchange(t, Config{
			Workers: workers, Collective: netsim.CollectiveAllGather, Chunks: chunks,
			Transport: localTCP(t, workers),
		}, ins, dim)
		defer e.Close()
		wantBytes := 0
		for _, in := range ins {
			for _, n := range ChunkNNZ(in.Sparse.Idx, dim, chunks) {
				wantBytes += (workers - 1) * encoding.Pairs64Size(dim, n)
			}
		}
		check(t, e, workers*netsim.ChunkedAllGatherMessages(workers, chunks), wantBytes)
	})
	t.Run("ring", func(t *testing.T) {
		dense := make([]dist.ExchangeInput, workers)
		for i, in := range ins {
			dense[i] = dist.ExchangeInput{Worker: in.Worker, Dense: in.Dense}
		}
		_, e := engineExchange(t, Config{
			Workers: workers, Collective: netsim.CollectiveRing,
			Transport: localTCP(t, workers),
		}, dense, dim)
		defer e.Close()
		check(t, e, workers*netsim.RingMessages(workers), 2*(workers-1)*8*dim)
	})
	t.Run("ps", func(t *testing.T) {
		e, err := New(Config{
			Workers: workers, Collective: netsim.CollectivePS,
			Transport: localTCP(t, workers+1),
		})
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
		check(t, e, netsim.PSMessages(workers),
			workers*encoding.Pairs64Size(dim, nnz)+workers*encoding.Pairs64Size(dim, aggNNZ))
	})
}

// rankResult is one node process's outcome in a deployment test.
type rankResult struct {
	rank    int
	losses  []float64 // global per-iteration mean losses
	weights []float64
	err     error
}

// runTCPDeployment trains the one-node-per-transport topology of
// cmd/sidco-node, minus process isolation: every rank gets its own
// TCPTransport (hosting only itself over the shared host list), its own
// Node and its own Workers=1 trainer whose FirstWorker is the rank. It
// returns the per-rank results after asserting every rank agrees.
func runTCPDeployment(t *testing.T, workers, iters int, coll netsim.Collective, chunks int, comp string, delta float64, seed int64) []rankResult {
	t.Helper()
	nodes := NodeCount(workers, coll)
	addrs, err := FreeLoopbackAddrs(nodes)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan rankResult, nodes)
	runRank := func(rank int) {
		res := rankResult{rank: rank}
		defer func() { results <- res }()
		tp, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{rank}})
		if err != nil {
			res.err = err
			return
		}
		defer tp.Close()
		nd, err := NewNode(NodeConfig{
			Workers: workers, Rank: rank, Collective: coll, Chunks: chunks, Transport: tp,
		})
		if err != nil {
			res.err = err
			return
		}
		if rank == workers { // parameter-server process
			res.err = nd.Serve(iters)
			return
		}
		tr, err := dist.NewTrainer(tinyTrainerCfg(1, rank, comp, delta, seed, nd))
		if err != nil {
			res.err = err
			return
		}
		for it := 0; it < iters; it++ {
			local, err := tr.Step()
			if err != nil {
				res.err = err
				return
			}
			global, err := nd.MeanScalar(local)
			if err != nil {
				res.err = err
				return
			}
			res.losses = append(res.losses, global)
		}
		res.weights = nn.FlattenWeights(tr.Params(), nil)
		// Per-rank traffic share: this process only saw its own sends and
		// receives, which must match the per-node slice of the formulas.
		// Auto resolves the way the trainer's rounds did: all-gather when
		// a compressor produced sparse contributions, ring otherwise.
		effColl := coll
		if effColl == netsim.CollectiveAuto {
			if comp != "" {
				effColl = netsim.CollectiveAllGather
			} else {
				effColl = netsim.CollectiveRing
			}
		}
		var wantSent, wantRecv int
		switch effColl {
		case netsim.CollectiveAllGather:
			wantSent = iters * netsim.ChunkedAllGatherMessages(workers, chunks)
			wantRecv = wantSent
		case netsim.CollectiveRing:
			wantSent = iters * netsim.RingMessages(workers)
			wantRecv = wantSent
		case netsim.CollectivePS:
			wantSent = iters
			wantRecv = iters
		}
		if msgs, _ := nd.Transport().Totals(); msgs != wantSent {
			res.err = fmt.Errorf("rank %d sent %d messages, formula says %d", rank, msgs, wantSent)
			return
		}
		if msgs, _ := nd.Transport().RecvTotals(); msgs != wantRecv {
			res.err = fmt.Errorf("rank %d received %d messages, formula says %d", rank, msgs, wantRecv)
		}
	}
	for rank := 0; rank < nodes; rank++ {
		go runRank(rank)
	}
	got := make([]rankResult, 0, nodes)
	for i := 0; i < nodes; i++ {
		select {
		case res := <-results:
			got = append(got, res)
		case <-time.After(60 * time.Second):
			t.Fatal("deployment did not finish")
		}
	}
	var first *rankResult
	for i := range got {
		res := &got[i]
		if res.err != nil {
			t.Fatalf("rank %d: %v", res.rank, res.err)
		}
		if res.rank == workers {
			continue // server has no losses
		}
		if first == nil {
			first = res
			continue
		}
		for it := range first.losses {
			if res.losses[it] != first.losses[it] {
				t.Fatalf("rank %d loss[%d] = %v, rank %d says %v (global loss must agree bitwise)",
					res.rank, it, res.losses[it], first.rank, first.losses[it])
			}
		}
		for j := range first.weights {
			if res.weights[j] != first.weights[j] {
				t.Fatalf("rank %d weight[%d] diverged: %v vs %v (replicas must stay identical)",
					res.rank, j, res.weights[j], first.weights[j])
			}
		}
	}
	return got
}

// refLosses trains the in-process reference with the full worker count.
func refLosses(t *testing.T, workers, iters int, comp string, delta float64, seed int64) ([]float64, []float64) {
	t.Helper()
	tr := tinyTrainer(t, workers, comp, delta, seed, nil)
	losses, _, err := tr.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	return losses, nn.FlattenWeights(tr.Params(), nil)
}

// TestNodeDeploymentBitIdentical is the multi-process acceptance check
// in miniature: N separate single-node transports over loopback TCP,
// each training its own worker, must reproduce the in-process trainer's
// global loss sequence and final weights bit-for-bit — monolithic and
// chunked all-gather, and parameter server.
func TestNodeDeploymentBitIdentical(t *testing.T) {
	const workers, iters = 3, 4
	cases := []struct {
		name   string
		coll   netsim.Collective
		chunks int
		comp   string
	}{
		{"allgather", netsim.CollectiveAllGather, 0, "sidco-e"},
		{"allgather-chunked", netsim.CollectiveAllGather, 3, "topk"},
		{"auto-chunked", netsim.CollectiveAuto, 4, "topk"}, // Auto resolves to all-gather on sparse rounds
		{"ps", netsim.CollectivePS, 0, "dgc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantW := refLosses(t, workers, iters, tc.comp, 0.1, 42)
			got := runTCPDeployment(t, workers, iters, tc.coll, tc.chunks, tc.comp, 0.1, 42)
			for i := range got {
				if got[i].rank >= workers {
					continue
				}
				for it := range want {
					if got[i].losses[it] != want[it] {
						t.Fatalf("rank %d loss[%d] = %v, in-process says %v (must be bit-identical)",
							got[i].rank, it, got[i].losses[it], want[it])
					}
				}
				for j := range wantW {
					if got[i].weights[j] != wantW[j] {
						t.Fatalf("rank %d weight[%d] = %v, in-process says %v (must be bit-identical)",
							got[i].rank, j, got[i].weights[j], wantW[j])
					}
				}
			}
		})
	}
}

// TestNodeDeploymentDenseRing covers the dense multi-process path: the
// ring reassociates float addition, so ranks agree bitwise with each
// other (asserted inside runTCPDeployment) and track the in-process
// trainer within tolerance.
func TestNodeDeploymentDenseRing(t *testing.T) {
	const workers, iters = 3, 4
	want, _ := refLosses(t, workers, iters, "", 0, 7)
	got := runTCPDeployment(t, workers, iters, netsim.CollectiveRing, 0, "", 0, 7)
	for _, res := range got {
		for it := range want {
			if math.Abs(res.losses[it]-want[it]) > 1e-9 {
				t.Fatalf("rank %d loss[%d] = %v, want %v within ring tolerance", res.rank, it, res.losses[it], want[it])
			}
		}
	}
}

// TestNodeValidation pins NewNode's configuration checks.
func TestNodeValidation(t *testing.T) {
	tp, err := NewChanTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if _, err := NewNode(NodeConfig{Workers: 0, Transport: tp}); err == nil {
		t.Error("0 workers should error")
	}
	if _, err := NewNode(NodeConfig{Workers: 2, Rank: 0}); err == nil {
		t.Error("nil transport should error")
	}
	if _, err := NewNode(NodeConfig{Workers: 2, Rank: 2, Transport: tp}); err == nil {
		t.Error("rank == workers without PS should error")
	}
	if _, err := NewNode(NodeConfig{Workers: 3, Rank: 0, Collective: netsim.CollectivePS, Transport: tp}); err == nil {
		t.Error("PS needs workers+1 transport nodes")
	}
	if _, err := NewNode(NodeConfig{Workers: 2, Rank: 0, Chunks: 2, Collective: netsim.CollectiveRing, Transport: tp}); err == nil {
		t.Error("chunked ring should error")
	}
	if _, err := NewNode(NodeConfig{Workers: 2, Rank: 0, Transport: tp, Verify: true}); err == nil {
		t.Error("Verify should error: it needs every node in one process")
	}
	nd, err := NewNode(NodeConfig{Workers: 2, Rank: 1, Collective: netsim.CollectiveAllGather, Transport: tp})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Exchange(0, make([]dist.ExchangeInput, 2), nil); err == nil {
		t.Error("two inputs should error")
	}
	if err := nd.Exchange(0, []dist.ExchangeInput{{Worker: 0}}, nil); err == nil {
		t.Error("wrong worker id should error")
	}
	if err := nd.Serve(1); err == nil {
		t.Error("Serve on a worker rank should error")
	}
}

// TestHandshakeTimeoutNamed pins the accept-side diagnosis of a peer
// that connects but never speaks: the transport must record a distinct
// ErrHandshakeTimeout-wrapped error naming the remote address, instead
// of silently dropping the connection (which looks identical to "peer
// never dialed" from the outside).
func TestHandshakeTimeoutNamed(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{0}, DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	// A raw client that completes the TCP connect but sends no handshake
	// bytes — a stray scanner, or a wedged peer process.
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	local := conn.LocalAddr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		errs := tp.HandshakeErrors()
		if len(errs) > 0 {
			found := false
			for _, e := range errs {
				if errors.Is(e, ErrHandshakeTimeout) && strings.Contains(e.Error(), local) {
					found = true
				}
			}
			if !found {
				t.Fatalf("handshake errors %v wrap no ErrHandshakeTimeout naming %s", errs, local)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no handshake error recorded within 5s of a silent connection")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
