package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// smoke runs one short benchmark run and returns its parsed result line.
func smoke(t *testing.T, workload string, seed int64, trace bool) result {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{
		workload: workload, seed: seed, seconds: 0.05, trace: trace,
		window: 10, setups: 1, traceDir: t.TempDir(),
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: result %+v\n%s", workload, res, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return last
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			res := smoke(t, s.name, 1, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", s.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", s.name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", s.name, m.name)
				}
			}
		}
	}
}

// TestTracedRunIsBitwiseUntraced: the timing wrappers change no
// arithmetic, so a traced deployment reproduces the untraced losses
// bit for bit on every workload.
func TestTracedRunIsBitwiseUntraced(t *testing.T) {
	for _, s := range specs {
		plain, err := build(s, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{}
		traced, err := build(s, 7, tr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			a, err := plain.step()
			if err != nil {
				t.Fatal(err)
			}
			tr.begin()
			b, err := traced.step()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(a.loss) != math.Float64bits(b.loss) || a.ratio != b.ratio {
				t.Fatalf("%s step %d: untraced %v/%v, traced %v/%v", s.name, i, a.loss, a.ratio, b.loss, b.ratio)
			}
		}
		plain.close()
		traced.close()
		if tr.rows[len(tr.rows)-1][sForward] == 0 {
			t.Errorf("%s: the traced run recorded no forward time", s.name)
		}
	}
}

// TestNamesMatchBenchmarkJSON keeps the printed metric names and units
// and the workload names in step with BENCHMARK.json.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	type nu = struct{ Name, Unit string }
	same := func(what string, got []nu, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the command prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, command %s", i, w.Name, specs[i].name)
		}
	}
}

// TestSeedRepeatability: the quality metrics depend on the seed alone,
// not on how many steps the machine fits into the measured time.
func TestSeedRepeatability(t *testing.T) {
	exact := []string{"loss_final", "khat_over_k_factor", "wire_bytes_per_step"}
	for _, s := range specs {
		a := smoke(t, s.name, 3, false)
		b := smoke(t, s.name, 3, false)
		c := smoke(t, s.name, 4, false)
		for _, m := range exact {
			if math.Float64bits(a.Metrics[m].Value) != math.Float64bits(b.Metrics[m].Value) {
				t.Errorf("%s: %s differs at one seed: %v vs %v", s.name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		if a.Metrics["loss_final"].Value == c.Metrics["loss_final"].Value {
			t.Errorf("%s: seeds 3 and 4 give the same loss_final %v", s.name, a.Metrics["loss_final"].Value)
		}
	}
}
