// Command sidco-micro regenerates the paper's micro-benchmarks: the
// compression speed-up and latency figures (1, 12, 14-17) plus a real Go
// wall-clock measurement on this machine.
//
// Usage:
//
//	sidco-micro -fig 1            # Figure 1 (GPU/CPU speedups + quality)
//	sidco-micro -fig 12           # CPU-as-compression-device throughput
//	sidco-micro -fig 14           # per-model latency/speedup (also 15)
//	sidco-micro -fig 16           # synthetic tensor sweep (also 17)
//	sidco-micro -fig wallclock    # real Go timings on this machine
//	sidco-micro -fig all
//
// The wallclock table is informational. The regression gate on
// compressor speed is TestCompressorCost in internal/harness, which
// times every registry compressor in units of a dense reference pass
// on the same machine.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 12, 14, 15, 16, 17, wallclock, all")
	iters := flag.Int("iters", 100, "statistical iterations per run")
	scale := flag.Int("scale", 100, "dimension divisor for statistical streams")
	seed := flag.Int64("seed", 1, "random seed")
	dim := flag.Int("dim", 2_000_000, "dimension for -fig wallclock")
	flag.Parse()

	opt := harness.Options{Iters: *iters, SimScale: *scale, Seed: *seed}
	w := os.Stdout

	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "sidco-micro: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	switch *fig {
	case "1":
		run("fig1", func() error { return harness.Fig1(w, opt) })
	case "12":
		run("fig12", func() error { return harness.Fig12(w, opt) })
	case "14", "15":
		run("fig14/15", func() error { return harness.Fig14And15(w, opt) })
	case "16", "17":
		run("fig16/17", func() error { return harness.Fig16And17(w, opt) })
	case "wallclock":
		run("wallclock", func() error { return harness.GoWallClock(w, *dim, 0.001, 3, *seed) })
	case "all":
		run("fig1", func() error { return harness.Fig1(w, opt) })
		run("fig12", func() error { return harness.Fig12(w, opt) })
		run("fig14/15", func() error { return harness.Fig14And15(w, opt) })
		run("fig16/17", func() error { return harness.Fig16And17(w, opt) })
		run("wallclock", func() error { return harness.GoWallClock(w, *dim, 0.001, 3, *seed) })
	default:
		fmt.Fprintf(os.Stderr, "sidco-micro: unknown -fig %q\n", *fig)
		os.Exit(2)
	}
}
