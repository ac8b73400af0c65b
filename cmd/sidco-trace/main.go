// Command sidco-trace assembles per-rank telemetry JSONL streams (the
// -telemetry output of cmd/sidco-node, or a single-process engine
// stream) into one merged global timeline and analyzes it.
//
// Sends and receives are paired exactly by per-link sequence number;
// per-rank clocks are aligned from the paired messages themselves
// (midpoint of the feasible offset interval, error bounded by half the
// minimum round-trip); the analysis extracts per-step critical paths,
// attributes waiting time to the ranks being waited on, and rolls up
// per-phase busy time per rank.
//
// Usage:
//
//	sidco-trace trace.jsonl.rank0 trace.jsonl.rank1 ...          # plaintext report
//	sidco-trace -chrome trace.json trace.jsonl.rank*             # + Perfetto/chrome://tracing export
//	sidco-trace -step 3 trace.jsonl.rank*                        # one step only
//	sidco-trace -check -collective allgather -workers 4 -iters 6 trace.jsonl.rank*
//
// -check exits non-zero unless every send pairs with exactly one
// receive (gradient and wire layers both); with -collective/-workers/
// -iters it additionally asserts the paired-message total equals the
// collective's closed-form count — the CI gate over real TCP
// deployments.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/netsim"
	"repro/internal/traceview"
)

func main() {
	var (
		chromePath = flag.String("chrome", "", "write Chrome trace-event JSON (Perfetto-loadable) to this file")
		report     = flag.Bool("report", true, "print the plaintext analysis report")
		step       = flag.Int64("step", -1, "restrict the report's critical path to one training step (-1: per-step sections for all steps)")
		check      = flag.Bool("check", false, "exit non-zero unless every send is paired with exactly one receive")
		collective = flag.String("collective", "", "with -check: assert message counts against this collective's formula (ring, allgather, ps)")
		workers    = flag.Int("workers", 0, "with -check -collective: worker count N of the formula")
		chunks     = flag.Int("chunks", 0, "with -check -collective allgather: chunked-pipeline setting")
		iters      = flag.Int("iters", 1, "with -check -collective: exchanges the run performed")
	)
	flag.Parse()
	if err := run(*chromePath, *report, *step, *check, *collective, *workers, *chunks, *iters, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "sidco-trace: %v\n", err)
		os.Exit(1)
	}
}

func run(chromePath string, report bool, step int64, check bool, collective string, workers, chunks, iters int, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("no trace files; pass one JSONL stream per rank (see -h)")
	}
	streams := make([]*traceview.Stream, 0, len(paths))
	for _, p := range paths {
		s, err := traceview.ReadFile(p)
		if err != nil {
			return err
		}
		streams = append(streams, s)
	}
	tl, err := traceview.Assemble(streams)
	if err != nil {
		return err
	}

	if check {
		if err := traceview.CheckComplete(tl); err != nil {
			return err
		}
		if collective != "" {
			coll, err := netsim.ParseCollective(collective)
			if err != nil {
				return err
			}
			if coll == netsim.CollectiveAuto {
				// auto resolves per exchange; the count needs one formula.
				return fmt.Errorf("-check -collective needs a concrete collective (ring, allgather or ps), got auto")
			}
			if workers < 1 {
				return fmt.Errorf("-check -collective needs -workers")
			}
			if err := traceview.CheckMessageCount(tl, coll, workers, chunks, iters); err != nil {
				return err
			}
		}
		paired, _, _ := tl.PairStats(false)
		wirePaired, _, _ := tl.PairStats(true)
		fmt.Printf("check: %d gradient + %d wire messages, every send paired with exactly one receive\n", paired, wirePaired)
	}

	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := traceview.WriteChromeTrace(f, tl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (load in ui.perfetto.dev or chrome://tracing)\n", chromePath)
	}

	if report {
		if step >= 0 {
			// Narrow the report to one step by filtering the step list.
			tl.Steps = []int64{step}
		}
		if err := traceview.WriteReport(os.Stdout, tl); err != nil {
			return err
		}
	}
	return nil
}
