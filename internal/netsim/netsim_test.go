package netsim

import (
	"math"
	"testing"
)

func TestAllReduceDenseRingModel(t *testing.T) {
	n := Network{Workers: 8, BandwidthBps: 25e9, LatencySec: 0}
	bytes := 100 << 20 // 100 MiB
	got := n.AllReduceDense(bytes)
	// Ring: 2(N-1)/N * bytes over the wire.
	want := 2 * 7.0 / 8.0 * float64(bytes) * 8 / 25e9
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("allreduce = %v, want %v", got, want)
	}
}

func TestAllGatherSparseModel(t *testing.T) {
	n := Network{Workers: 8, BandwidthBps: 25e9, LatencySec: 0}
	bytes := 1 << 20
	got := n.AllGatherSparse(bytes)
	want := 7 * float64(bytes) * 8 / 25e9
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("allgather = %v, want %v", got, want)
	}
}

func TestLatencyTermsCounted(t *testing.T) {
	n := Network{Workers: 4, BandwidthBps: 1e12, LatencySec: 1e-3}
	// With huge bandwidth, latency dominates: 2(N-1) steps.
	if got := n.AllReduceDense(1000); math.Abs(got-6e-3) > 1e-6 {
		t.Errorf("allreduce latency share = %v", got)
	}
	if got := n.AllGatherSparse(1000); math.Abs(got-3e-3) > 1e-6 {
		t.Errorf("allgather latency share = %v", got)
	}
}

func TestSingleWorkerIsFree(t *testing.T) {
	n := Network{Workers: 1, BandwidthBps: 25e9, LatencySec: 1e-5}
	if n.AllReduceDense(1<<20) != 0 || n.AllGatherSparse(1<<20) != 0 || n.ParameterServer(1<<20, 1<<20) != 0 {
		t.Error("single worker communication should be free")
	}
}

func TestSparsificationWinsWhenSparseEnough(t *testing.T) {
	// The entire premise of the paper: at delta = 0.001 the sparse
	// all-gather beats the dense all-reduce even though all-gather scales
	// worse with N.
	n := Cluster25GbE(8)
	d := 66034000 // LSTM-PTB parameters
	denseBytes := 4 * d
	sparseBytes := 8 * d / 1000 // (idx+val) per kept element at 0.001
	dense := n.CommTime(denseBytes, 0, false)
	sparse := n.CommTime(0, sparseBytes, true)
	if sparse >= dense {
		t.Errorf("sparse %v not faster than dense %v at delta=0.001", sparse, dense)
	}
	// And at delta ~ 0.25 the crossover flips for 8 workers: 7*2delta > 2*7/8.
	sparseBytes = 8 * d / 4
	sparse = n.CommTime(0, sparseBytes, true)
	if sparse <= dense {
		t.Errorf("sparse %v should lose to dense %v at delta=0.25", sparse, dense)
	}
}

func TestParameterServerModel(t *testing.T) {
	n := Network{Workers: 8, BandwidthBps: 10e9, LatencySec: 0}
	got := n.ParameterServer(1<<20, 1<<20)
	want := 2 * 8 * float64(1<<20) * 8 / 10e9
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("ps = %v, want %v", got, want)
	}
}

func TestParameterServerAccounting(t *testing.T) {
	cases := []struct {
		name       string
		net        Network
		push, pull int
		want       float64
	}{
		{
			// N pushes + N pulls, each paying alpha: 2*4 messages.
			name: "per-message latency",
			net:  Network{Workers: 4, BandwidthBps: 1e15, LatencySec: 1e-3},
			push: 1000, pull: 1000,
			want: 8e-3 + 2*4*1000*8/1e15,
		},
		{
			name: "asymmetric push and pull",
			net:  Network{Workers: 2, BandwidthBps: 1e9, LatencySec: 1e-4},
			push: 1000, pull: 4000,
			want: 2*(1000*8/1e9+1e-4) + 2*(4000*8/1e9+1e-4),
		},
		{
			name: "single worker is free",
			net:  Network{Workers: 1, BandwidthBps: 1e9, LatencySec: 1e-3},
			push: 1 << 20, pull: 1 << 20,
			want: 0,
		},
		{
			name: "zero workers degenerate",
			net:  Network{Workers: 0, BandwidthBps: 1e9, LatencySec: 1e-3},
			push: 100, pull: 100,
			want: 0,
		},
		{
			name: "zero bandwidth degenerate",
			net:  Network{Workers: 4, BandwidthBps: 0, LatencySec: 1e-3},
			push: 100, pull: 100,
			want: 0,
		},
		{
			name: "empty messages still pay latency",
			net:  Network{Workers: 3, BandwidthBps: 1e9, LatencySec: 1e-3},
			push: 0, pull: 0,
			want: 6e-3,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.net.ParameterServer(c.push, c.pull)
			if c.want == 0 {
				if got != 0 {
					t.Errorf("ParameterServer = %v, want 0", got)
				}
				return
			}
			if math.Abs(got-c.want)/c.want > 1e-9 {
				t.Errorf("ParameterServer = %v, want %v", got, c.want)
			}
		})
	}
}

func TestCollectiveTimeDispatch(t *testing.T) {
	n := Cluster25GbE(8)
	denseBytes, sparseBytes := 4<<20, 1<<16
	cases := []struct {
		c          Collective
		compressed bool
		want       float64
	}{
		{CollectiveAuto, false, n.AllReduceDense(denseBytes)},
		{CollectiveAuto, true, n.AllGatherSparse(sparseBytes)},
		{CollectiveRing, false, n.AllReduceDense(denseBytes)},
		{CollectiveAllGather, true, n.AllGatherSparse(sparseBytes)},
		{CollectivePS, true, n.ParameterServer(sparseBytes, denseBytes)},
		{CollectivePS, false, n.ParameterServer(denseBytes, denseBytes)},
	}
	for _, c := range cases {
		if got := n.CollectiveTime(c.c, denseBytes, sparseBytes, c.compressed); got != c.want {
			t.Errorf("%v compressed=%v: %v, want %v", c.c, c.compressed, got, c.want)
		}
	}
}

func TestCollectiveMessageFormulas(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		if got := RingMessages(n); got != 2*(n-1) {
			t.Errorf("RingMessages(%d) = %d", n, got)
		}
		if got := AllGatherMessages(n); got != n-1 {
			t.Errorf("AllGatherMessages(%d) = %d", n, got)
		}
		if got := PSMessages(n); got != 2*n {
			t.Errorf("PSMessages(%d) = %d", n, got)
		}
	}
	if RingMessages(1) != 0 || AllGatherMessages(1) != 0 {
		t.Error("single worker should need no ring messages")
	}
	// PS keeps a distinct server node, so one worker still pushes and
	// pulls — matching what cluster.Engine actually puts on the wire.
	if PSMessages(1) != 2 {
		t.Errorf("PSMessages(1) = %d, want 2", PSMessages(1))
	}
	if PSMessages(0) != 0 {
		t.Errorf("PSMessages(0) = %d, want 0", PSMessages(0))
	}
}

func TestCollectiveStrings(t *testing.T) {
	for c, want := range map[Collective]string{
		CollectiveAuto: "auto", CollectiveRing: "ring",
		CollectiveAllGather: "allgather", CollectivePS: "ps",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestPresetClusters(t *testing.T) {
	if c := Cluster25GbE(8); c.Workers != 8 || c.BandwidthBps != 25e9 {
		t.Error("25GbE preset wrong")
	}
	if c := Cluster10GbE(8); c.BandwidthBps != 10e9 {
		t.Error("10GbE preset wrong")
	}
	if c := NVLinkNode(8); c.BandwidthBps <= 25e9 {
		t.Error("NVLink preset should be much faster than Ethernet")
	}
}

func TestDegenerateNetworks(t *testing.T) {
	bad := Network{Workers: 0, BandwidthBps: 1e9}
	if bad.AllReduceDense(100) != 0 {
		t.Error("invalid network should cost 0 (degenerate)")
	}
	bad = Network{Workers: 4, BandwidthBps: 0}
	if bad.AllGatherSparse(100) != 0 {
		t.Error("zero-bandwidth network should cost 0 (degenerate)")
	}
}

func TestPipelineSpan(t *testing.T) {
	cases := []struct {
		name    string
		compute []float64
		comm    []float64
		want    float64
	}{
		{"single chunk", []float64{3}, []float64{2}, 5},
		{"comm bound", []float64{1, 1, 1}, []float64{4, 4, 4}, 1 + 12},
		{"compute bound", []float64{4, 4, 4}, []float64{1, 1, 1}, 12 + 1},
		{"balanced", []float64{2, 2}, []float64{2, 2}, 2 + 2 + 2},
		{"empty", nil, nil, 0},
	}
	for _, tc := range cases {
		if got := PipelineSpan(tc.compute, tc.comm); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: PipelineSpan = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestChunkedAllGatherSparse(t *testing.T) {
	net := Network{Workers: 4, BandwidthBps: 1e9, LatencySec: 1e-4}
	// One chunk must price exactly like compress + monolithic all-gather.
	mono := 3e-3 + net.AllGatherSparse(120000)
	if got := net.ChunkedAllGatherSparse([]int{120000}, 3e-3); math.Abs(got-mono) > 1e-12 {
		t.Errorf("single chunk = %v, want %v", got, mono)
	}
	// Four equal chunks with compression dominating: the span approaches
	// total compression plus one chunk's collective.
	chunks := []int{30000, 30000, 30000, 30000}
	got := net.ChunkedAllGatherSparse(chunks, 3e-3)
	want := 4*3e-3 + net.AllGatherSparse(30000)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("compute-bound chunked = %v, want %v", got, want)
	}
	if got >= mono+3*3e-3 {
		t.Errorf("chunked %v should undercut serialised compress+comm %v", got, mono+3*3e-3)
	}
	// Degenerate fabric prices to zero, like the other collectives.
	if got := (Network{}).ChunkedAllGatherSparse(chunks, 1); got != 0 {
		t.Errorf("invalid network = %v, want 0", got)
	}
}

func TestChunkedAllGatherMessages(t *testing.T) {
	if got := ChunkedAllGatherMessages(4, 8); got != 8*3 {
		t.Errorf("got %d, want 24", got)
	}
	if got := ChunkedAllGatherMessages(4, 0); got != AllGatherMessages(4) {
		t.Errorf("chunks clamp: got %d, want %d", got, AllGatherMessages(4))
	}
	if got := ChunkedAllGatherMessages(1, 5); got != 0 {
		t.Errorf("single node: got %d, want 0", got)
	}
}

// TestParseCollectiveRoundTrip pins ParseCollective as the inverse of
// Collective.String over every schedule, and rejects unknown names.
func TestParseCollectiveRoundTrip(t *testing.T) {
	for _, c := range []Collective{CollectiveAuto, CollectiveRing, CollectiveAllGather, CollectivePS} {
		got, err := ParseCollective(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCollective(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if _, err := ParseCollective("tree"); err == nil {
		t.Error("unknown collective name accepted")
	}
}

// TestExchangeMessages pins the cluster-wide message total of one
// exchange: n senders times the per-node ring count, the parameter
// server's two-sided count, and nothing for Auto (no fixed schedule).
func TestExchangeMessages(t *testing.T) {
	for _, tc := range []struct {
		c               Collective
		workers, chunks int
		want            int
	}{
		{CollectiveRing, 4, 1, 24},
		{CollectiveRing, 1, 1, 0},
		{CollectiveAllGather, 4, 1, 12},
		{CollectiveAllGather, 4, 0, 12},
		{CollectiveAllGather, 4, 8, 96},
		{CollectivePS, 4, 1, 8},
		{CollectivePS, 4, 8, 8},
		{CollectiveAuto, 4, 1, 0},
	} {
		if got := ExchangeMessages(tc.c, tc.workers, tc.chunks); got != tc.want {
			t.Errorf("ExchangeMessages(%v, %d, %d) = %d, want %d", tc.c, tc.workers, tc.chunks, got, tc.want)
		}
	}
}
