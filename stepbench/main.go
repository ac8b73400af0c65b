// Command stepbench is the end-to-end training-step benchmark: it runs
// real dist.Trainer steps of one workload in a closed loop for a fixed
// time and prints the end-to-end metrics (or, with --trace 1, the
// per-layer breakdown timed at the program's public seams), checks the
// program's outputs, and ends with one JSON result line. It exits
// non-zero when a check fails. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	o := options{window: defaultWindow, setups: defaultSetups}
	fs := flag.NewFlagSet("stepbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced per-layer run")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where the traced run writes its per-step spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
