package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/simgrad"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Options scales experiments down for tests and benches; zero values take
// the full defaults.
type Options struct {
	// Iters is the number of statistical iterations per run (default 100).
	Iters int
	// SimScale divides gradient dimensionality for statistical streams
	// (default 100).
	SimScale int
	// Seed fixes all random streams.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Iters <= 0 {
		o.Iters = 100
	}
	if o.SimScale <= 0 {
		o.SimScale = 100
	}
	return o
}

// Ratios are the paper's three target compression ratios.
var Ratios = []float64{0.1, 0.01, 0.001}

// sidcoStagesFor estimates the stage count the adaptive controller settles
// at for a target ratio (used by the analytic latency model when no
// statistical run is available).
func sidcoStagesFor(delta float64) int {
	return len(core.StageRatios(delta, 0.25, 99))
}

// estimationQuality runs a compressor over a synthetic stream and returns
// mean achieved ratio with 90% CI.
func estimationQuality(name string, dim int, delta float64, opt Options) (mean, ci float64, stages int, err error) {
	comp, err := NewCompressor(name, opt.Seed)
	if err != nil {
		return 0, 0, 0, err
	}
	gen := simgrad.New(simgrad.Config{
		Dim: dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01,
		OutlierFrac: 5e-6, OutlierScale: 300, Seed: opt.Seed,
	})
	k := compress.TargetK(dim, delta)
	var r stats.Running
	buf := make([]float64, dim)
	var s tensor.Sparse
	for i := 0; i < opt.Iters; i++ {
		gen.Fill(buf)
		if err := comp.CompressInto(&s, buf, delta); err != nil {
			return 0, 0, 0, err
		}
		r.Add(float64(s.NNZ()) / float64(k))
	}
	if sc, ok := comp.(*core.SIDCo); ok {
		stages = sc.Stages()
	}
	return r.Mean(), r.ConfidenceInterval(0.90), stages, nil
}

// Fig1 reproduces Figure 1: compression speed-up over Top-k on GPU (a) and
// CPU (b) for the VGG16-sized gradient at the three ratios, plus the
// threshold-estimation quality (c).
func Fig1(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	vgg, err := dist.WorkloadByName("vgg16-cifar10")
	if err != nil {
		return err
	}
	dim := vgg.Dim
	simDim := dim / opt.SimScale
	names := []string{"dgc", "redsync", "gaussiank", "sidco-e"}

	for _, dev := range []device.Profile{device.GPU(), device.CPU()} {
		tbl := NewTable(fmt.Sprintf("Fig 1 (%s): compression speed-up over Top-k, VGG16 (d=%d)", dev.Name, dim),
			append([]string{"compressor"}, ratioHeaders()...)...)
		for _, name := range names {
			row := []string{name}
			for _, delta := range Ratios {
				topk, err := dev.CompressLatency("topk", dim, delta, 1)
				if err != nil {
					return err
				}
				lat, err := dev.CompressLatency(name, dim, delta, sidcoStagesFor(delta))
				if err != nil {
					return err
				}
				row = append(row, FmtX(topk/lat))
			}
			tbl.AddRow(row...)
		}
		tbl.Render(w)
	}

	tbl := NewTable("Fig 1c: threshold estimation quality (mean k-hat/k, 90% CI)",
		append([]string{"compressor"}, ratioHeaders()...)...)
	for _, name := range names {
		row := []string{name}
		for _, delta := range Ratios {
			mean, ci, _, err := estimationQuality(name, simDim, delta, opt)
			if err != nil {
				return err
			}
			row = append(row, FmtRatio(mean, ci))
		}
		tbl.AddRow(row...)
	}
	tbl.Render(w)
	return nil
}

func ratioHeaders() []string {
	out := make([]string, len(Ratios))
	for i, r := range Ratios {
		out[i] = fmt.Sprintf("delta=%g", r)
	}
	return out
}

// Fig14And15 reproduces Figures 14 (speed-up over Top-k) and 15 (absolute
// latency) for real model sizes on both devices.
func Fig14And15(w io.Writer, opt Options) error {
	models := []struct {
		name string
		dim  int
	}{
		{"resnet20", 269467},
		{"vgg16", 14982987},
		{"resnet50", 25559081},
		{"lstm", 66034000},
	}
	names := []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e", "sidco-gp", "sidco-p"}
	for _, dev := range []device.Profile{device.GPU(), device.CPU()} {
		for _, m := range models {
			tbl := NewTable(fmt.Sprintf("Fig 14/15 (%s, %s d=%d): latency and speed-up over Top-k", dev.Name, m.name, m.dim),
				"compressor", "delta=0.1", "delta=0.01", "delta=0.001", "speedup@0.001")
			var topkLat float64
			for _, name := range names {
				row := []string{name}
				var last float64
				for _, delta := range Ratios {
					lat, err := dev.CompressLatency(name, m.dim, delta, sidcoStagesFor(delta))
					if err != nil {
						return err
					}
					row = append(row, FmtSecs(lat))
					last = lat
				}
				if name == "topk" {
					topkLat = last
				}
				row = append(row, FmtX(topkLat/last))
				tbl.AddRow(row...)
			}
			tbl.Render(w)
		}
	}
	return nil
}

// Fig16And17 reproduces Figures 16/17: latency and speed-up on synthetic
// tensors of 0.26M to 260M elements.
func Fig16And17(w io.Writer, opt Options) error {
	sizes := []int{260_000, 2_600_000, 26_000_000, 260_000_000}
	names := []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e", "sidco-gp", "sidco-p"}
	const delta = 0.001
	for _, dev := range []device.Profile{device.GPU(), device.CPU()} {
		tbl := NewTable(fmt.Sprintf("Fig 16/17 (%s): synthetic tensors, delta=%g", dev.Name, delta),
			"compressor", "0.26M", "2.6M", "26M", "260M", "speedup@26M")
		for _, name := range names {
			row := []string{name}
			var at26 float64
			for _, d := range sizes {
				lat, err := dev.CompressLatency(name, d, delta, sidcoStagesFor(delta))
				if err != nil {
					return err
				}
				if d == 26_000_000 {
					at26 = lat
				}
				row = append(row, FmtSecs(lat))
			}
			topk, err := dev.CompressLatency("topk", 26_000_000, delta, 1)
			if err != nil {
				return err
			}
			row = append(row, FmtX(topk/at26))
			tbl.AddRow(row...)
		}
		tbl.Render(w)
	}
	return nil
}

// GoWallClock measures the *actual Go implementation* wall-clock of each
// compressor on this machine for a given dimension, complementing the
// analytic device model with real numbers (reported alongside Figure 1).
func GoWallClock(w io.Writer, dim int, delta float64, iters int, seed int64) error {
	if iters <= 0 {
		iters = 3
	}
	gen := simgrad.New(simgrad.Config{
		Dim: dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01, Seed: seed,
	})
	g := gen.Next()
	tbl := NewTable(fmt.Sprintf("Go wall-clock (this machine), d=%d, delta=%g", dim, delta),
		"compressor", "mean latency", "speedup vs topk", "k-hat/k")
	var topkTime float64
	k := compress.TargetK(dim, delta)
	for _, name := range CompressorNames {
		comp, err := NewCompressor(name, seed)
		if err != nil {
			return err
		}
		calls, _, nnz, err := timeCompress(comp, g, delta, iters, nil, now)
		if err != nil {
			return err
		}
		elapsed := stats.Mean(calls)
		if name == "topk" {
			topkTime = elapsed
		}
		tbl.AddRow(name, FmtSecs(elapsed), FmtX(topkTime/elapsed),
			fmt.Sprintf("%.3f", float64(nnz)/float64(k)))
	}
	tbl.Render(w)
	return nil
}

// timeCompress is the one compressor timer: after one untimed warm-up
// call it reads clock around n CompressInto calls of comp on g at delta
// and returns each call's seconds plus the last selection's size. A
// non-nil ref runs, and is timed into refs, before every call, so a
// reference pass sees the same cache and co-tenant state as the
// compressor it is compared with. The goroutine stays on one OS thread
// throughout, so clock may be that thread's CPU-time clock.
func timeCompress(comp compress.Compressor, g []float64, delta float64, n int, ref func(), clock func() float64) (calls, refs []float64, nnz int, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var s tensor.Sparse
	if err := comp.CompressInto(&s, g, delta); err != nil {
		return nil, nil, 0, fmt.Errorf("harness: time %s: %w", comp.Name(), err)
	}
	runtime.GC() // no collection of earlier garbage overlaps the timed calls
	for i := 0; i < n; i++ {
		if ref != nil {
			t0 := clock()
			ref()
			refs = append(refs, clock()-t0)
		}
		t0 := clock()
		err := comp.CompressInto(&s, g, delta)
		calls = append(calls, clock()-t0)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("harness: time %s: %w", comp.Name(), err)
		}
	}
	return calls, refs, s.NNZ(), nil
}

// Fig12 reproduces Figure 12: training throughput with the CPU as the
// compression device.
func Fig12(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	return deviceThroughputFigure(w, opt, device.CPU(),
		"Fig 12: training throughput, CPU compression device (samples/s)",
		[]string{"resnet20-cifar10", "vgg16-cifar10", "lstm-ptb"},
		[]string{"topk", "dgc", "sidco-e"})
}

func deviceThroughputFigure(w io.Writer, opt Options, dev device.Profile, title string, workloads, compressors []string) error {
	tbl := NewTable(title, append([]string{"workload"}, headerFor(compressors)...)...)
	for _, wl := range workloads {
		wk, err := dist.WorkloadByName(wl)
		if err != nil {
			return err
		}
		row := []string{wl}
		for _, cName := range compressors {
			for _, delta := range Ratios {
				res, err := dist.SimulateWorkload(dist.SimConfig{
					Workload:      wk,
					Net:           defaultNet(),
					Dev:           dev,
					NewCompressor: Factory(cName, opt.Seed),
					Delta:         delta,
					Iters:         opt.Iters,
					SimScale:      opt.SimScale,
					Seed:          opt.Seed,
				})
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.0f", res.Throughput))
			}
		}
		tbl.AddRow(row...)
	}
	tbl.Render(w)
	return nil
}

func headerFor(compressors []string) []string {
	var out []string
	for _, c := range compressors {
		for _, r := range Ratios {
			out = append(out, fmt.Sprintf("%s@%g", c, r))
		}
	}
	return out
}

// sanity guard referenced by tests.
var _ = math.NaN
