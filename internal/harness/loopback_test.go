package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dist"
)

// TestLoopbackStudy runs the four-way comparison end to end over real
// loopback sockets: the study itself errors if the per-rank node
// deployment disagrees with itself, and the rendered table must report
// exact traffic and an all-zero diff column (bit-identity of every mode
// against the in-process trainer).
func TestLoopbackStudy(t *testing.T) {
	var buf bytes.Buffer
	err := LoopbackStudy(&buf, LoopbackStudyConfig{Workers: 3, Iters: 3, Compressor: "topk", Chunks: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "exact=true") {
		t.Errorf("traffic cross-check not exact:\n%s", out)
	}
	if strings.Contains(out, "exact=false") {
		t.Errorf("traffic mismatch reported:\n%s", out)
	}
	// Every data row ends in the max-|diff| column; bit-identity means
	// each one renders as exactly "0".
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && fields[0] != "iter" && !strings.HasPrefix(fields[0], "-") && !strings.Contains(line, "—") {
			rows++
			if fields[5] != "0" {
				t.Errorf("iteration %s: max |diff| = %s, want 0 (bit-identity):\n%s", fields[0], fields[5], out)
			}
		}
	}
	if rows != 3 {
		t.Errorf("found %d data rows, want 3:\n%s", rows, out)
	}
}

// TestDemoTrainerGolden pins the shared demo workload itself: its
// in-process losses at 4 workers. Every cluster bit-identity check
// compares a run against this same workload, so a change to it would
// move reference and runs together and pass unnoticed without this pin.
func TestDemoTrainerGolden(t *testing.T) {
	want := []float64{
		1.9717217881289191, 1.553726153434311, 1.5151010034030827,
		1.6404471091383979, 1.4763438407241503, 1.5169851834518735,
	}
	cfg := DemoTrainerConfig("sidco-e", 0.05, 1)
	cfg.Workers = 4
	tr, err := dist.NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tr.Run(len(want))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("loss[%d] = %.17g, want %.17g (must be bit-identical)", i, got[i], want[i])
		}
	}
}
