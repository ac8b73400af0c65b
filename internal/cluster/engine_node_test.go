package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/tensor"
)

// TestEngineErrorNamesRootCause pins which node's error a failed Engine
// round reports. A failing node closes the shared transport to unblock
// its peers, so every other node fails too, with ErrClosed; the report
// must name the node that caused the failure, with its own message and
// a single "cluster: node N:" prefix — not a peer's closed-transport
// echo, whatever its rank.
func TestEngineErrorNamesRootCause(t *testing.T) {
	const dim = 64
	sparse := func(dim int) *tensor.Sparse {
		return &tensor.Sparse{Dim: dim, Idx: []int32{0, 5}, Vals: []float64{1, -2}}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		ins  func() []dist.ExchangeInput
		want string
	}{
		{
			// Worker 1 fails validation before sending; workers 0 and 2
			// then fail on the closed ring.
			name: "ring-worker",
			cfg:  Config{Workers: 3, Collective: netsim.CollectiveRing},
			ins: func() []dist.ExchangeInput {
				ins := randomInputs(t, 3, dim, 0, 5)
				ins[1].Dense = ins[1].Dense[:10]
				return ins
			},
			want: "cluster: node 1: dense gradient has 10 elements, want 64",
		},
		{
			// Both workers push and wait on their pull; the server (node
			// 2) rejects worker 1's push, and the workers' pulls then fail
			// on the closed transport. (The inner "cluster: ps combine"
			// is the server schedule's own context, not a node prefix.)
			name: "ps-server",
			cfg:  Config{Workers: 2, Collective: netsim.CollectivePS},
			ins: func() []dist.ExchangeInput {
				return []dist.ExchangeInput{
					{Worker: 0, Sparse: sparse(dim)},
					{Worker: 1, Sparse: sparse(32)},
				}
			},
			want: "cluster: node 2: cluster: ps combine worker 1: worker 1 pushed dim 32, want 64",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			err = e.Exchange(0, tc.ins(), make([]float64, dim))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("round error = %v, want %q", err, tc.want)
			}
			if strings.Count(err.Error(), "cluster: node") != 1 {
				t.Errorf("error %q carries more than one node prefix", err)
			}
			if err := e.Exchange(1, tc.ins(), make([]float64, dim)); !errors.Is(err, ErrClosed) {
				t.Errorf("exchange after a failed round = %v, want the engine closed", err)
			}
		})
	}
}

// TestEngineExchangeAllocFree guards the steady-state sparse exchange:
// handing the round to the long-lived node goroutines, running every
// node's schedule (the server's included under PS) and joining them
// must not allocate.
func TestEngineExchangeAllocFree(t *testing.T) {
	const workers, dim = 4, 4096
	for _, coll := range []netsim.Collective{netsim.CollectiveAllGather, netsim.CollectivePS} {
		t.Run(coll.String(), func(t *testing.T) {
			e, err := New(Config{Workers: workers, Collective: coll})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ins := randomInputs(t, workers, dim, 0.01, 9)
			agg := make([]float64, dim)
			step := 0
			exchange := func() {
				if err := e.Exchange(step, ins, agg); err != nil {
					t.Fatal(err)
				}
				step++
			}
			for i := 0; i < 10; i++ { // grow scratch, slots and link buffers
				exchange()
			}
			if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
				t.Errorf("Engine.Exchange allocates %.1f/op under %v, want 0", allocs, coll)
			}
		})
	}
}

// TestEngineKillMidSchedule kills worker 1 at step 1 under every
// collective schedule the Engine hosts. The step before the kill must
// complete; the step of the kill must fail promptly — bounded by
// StepTimeout, never hanging — with a recoverable or closed-transport
// classification; and the fail-stop Engine must then refuse further
// steps.
func TestEngineKillMidSchedule(t *testing.T) {
	const workers, dim = 3, 96
	for _, tc := range []struct {
		name   string
		coll   netsim.Collective
		chunks int
		delta  float64
	}{
		{"ring", netsim.CollectiveRing, 0, 0},
		{"allgather", netsim.CollectiveAllGather, 0, 0.1},
		{"allgather-chunked", netsim.CollectiveAllGather, 3, 0.1},
		{"ps", netsim.CollectivePS, 0, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, err := NewChanTransport(NodeCount(workers, tc.coll))
			if err != nil {
				t.Fatal(err)
			}
			ft := NewFaultTransport(inner, FaultPlan{KillRank: map[int]int64{1: 1}})
			e, err := New(Config{
				Workers: workers, Collective: tc.coll, Chunks: tc.chunks,
				Transport: ft, StepTimeout: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			agg := make([]float64, dim)
			if err := e.Exchange(0, randomInputs(t, workers, dim, tc.delta, 1), agg); err != nil {
				t.Fatalf("step 0 (before the kill): %v", err)
			}
			ins := randomInputs(t, workers, dim, tc.delta, 2)
			done := make(chan error, 1)
			go func() { done <- e.Exchange(1, ins, agg) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("step 1 succeeded with worker 1 dead")
				}
				if !Recoverable(err) && !errors.Is(err, ErrClosed) {
					t.Fatalf("step 1 error %v is neither recoverable nor a closed transport", err)
				}
				t.Logf("step 1: %v", err)
			case <-time.After(30 * time.Second):
				t.Fatal("step 1 hung past 30s with worker 1 dead")
			}
			if err := e.Exchange(2, randomInputs(t, workers, dim, tc.delta, 3), agg); !errors.Is(err, ErrClosed) {
				t.Errorf("step 2 = %v, want the fail-stopped engine closed", err)
			}
		})
	}
}
