package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
)

const (
	// defaultWindow is the fixed quality window: loss_final,
	// khat_over_k_factor and wire_bytes_per_step are taken over the
	// first defaultWindow timed steps, so they repeat exactly for a seed
	// however fast the machine runs. The timed loop runs at least this
	// many steps.
	defaultWindow = 500
	// defaultSetups is how many times a run sets the workload up;
	// setup_s is the median.
	defaultSetups = 5
	// warmupSteps are run inside every set-up, before the first timed
	// step (they dial the TCP links and size every scratch buffer).
	warmupSteps = 10
	// residualBound bounds dist.step_self_ms on sidco-inproc: the traced
	// step time minus every layer's self time, as a share of the step.
	residualBound = 0.15
	// blocks splits the timed steps into runs of consecutive steps. The
	// step-time metrics are taken per block and the calmest block is
	// reported: other tenants of the machine only ever add time, so a
	// burst of interference in some blocks does not read as a
	// regression, while a slower program slows every block.
	blocks = 5
)

// endToEnd and perLayer are the metric tables: name and unit, in print
// order. BENCHMARK.json lists the same names and units.
var endToEnd = []struct{ name, unit string }{
	{"samples_per_s", "1/s"},
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"setup_s", "s"},
	{"wire_bytes_per_step", "B"},
	{"khat_over_k_factor", "ratio"},
	{"loss_final", "nats"},
	{"heap_inuse_mb", "MiB"},
}

var perLayer = []struct{ name, unit string }{
	{"data.batch_ms", "ms"},
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.loss_ms", "ms"},
	{"compress.select_ms", "ms"},
	{"compress.ec_ms", "ms"},
	{"compress.nnz_per_step", "count"},
	{"compress.khat_over_k", "ratio"},
	{"dist.exchange_ms", "ms"},
	{"dist.apply_ms", "ms"},
	{"dist.step_self_ms", "ms"},
	{"cluster.send_ms", "ms"},
	{"cluster.recv_wait_ms", "ms"},
	{"cluster.collective_self_ms", "ms"},
	{"cluster.messages_per_step", "count"},
	{"cluster.payload_bytes_per_step", "B"},
	{"cluster.mean_scalar_ms", "ms"},
	{"encoding.encode_ms", "ms"},
	{"encoding.bytes_per_value", "B"},
	{"telemetry.trace_overhead_pct", "%"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	window   int
	setups   int
	traceDir string
}

// report collects a run's human-readable lines, checks and metrics.
type report struct {
	w       io.Writer
	metrics map[string]metric
	checks  int
	failed  []string
}

func (r *report) linef(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks++
	status := "ok"
	if !ok {
		status = "FAILED"
		r.failed = append(r.failed, name)
	}
	r.linef("check %-28s %s: %s", name, status, fmt.Sprintf(format, args...))
}

// set records a metric; its unit comes from the metric tables.
func (r *report) set(name string, v float64) {
	unit := ""
	for _, m := range append(endToEnd, perLayer...) {
		if m.name == name {
			unit = m.unit
		}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.linef("metric %-30s %v %s", name, v, unit)
}

// window is one measured stretch of closed-loop steps on a built
// deployment.
type window struct {
	durs    []time.Duration // per timed step
	losses  []float64       // warm-up and timed steps
	ratios  []float64       // timed steps
	msgs    []int           // cumulative traffic before each timed step, and after the last
	bytes   []int
	elapsed time.Duration
	failed  int
	err     error
	warm    int // warm-up steps at the head of losses
	alloc   uint64
	heap    uint64 // HeapInuse after a collection at the end of the window
}

// setUp builds a deployment and runs its warm-up steps.
func setUp(s spec, seed int64, tr *tracer, w *window) (deployment, error) {
	dep, err := build(s, seed, tr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupSteps; i++ {
		if tr != nil {
			tr.begin()
		}
		out, err := dep.step()
		if err != nil {
			dep.close()
			return nil, fmt.Errorf("warm-up step %d: %w", i, err)
		}
		w.losses = append(w.losses, out.loss)
	}
	w.warm = warmupSteps
	return dep, nil
}

// measure runs timed steps until both minSteps steps and dur have
// passed, stopping at the first failed step.
func measure(dep deployment, w *window, minSteps int, dur time.Duration) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < minSteps || time.Since(start) < dur; i++ {
		msgs, bytes := dep.traffic()
		w.msgs, w.bytes = append(w.msgs, msgs), append(w.bytes, bytes)
		t0 := time.Now()
		out, err := dep.step()
		d := time.Since(t0)
		if err != nil {
			w.failed++
			w.err = err
			break
		}
		w.durs = append(w.durs, d)
		w.losses = append(w.losses, out.loss)
		w.ratios = append(w.ratios, out.ratio)
	}
	w.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	w.alloc = m1.TotalAlloc - m0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&m1)
	w.heap = m1.HeapInuse
	msgs, bytes := dep.traffic()
	w.msgs, w.bytes = append(w.msgs, msgs), append(w.bytes, bytes)
}

func (w *window) attempted() int { return len(w.durs) + w.failed }

// run executes one benchmark run and prints its report; the last line is
// the JSON result. An error means the run could not produce a result.
func run(o options, out io.Writer) (result, error) {
	s, err := specByName(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.seconds <= 0 || o.window < 10 || o.setups < 1 {
		return result{}, fmt.Errorf("need seconds > 0, a quality window of >= 10 steps and >= 1 set-up")
	}
	r := &report{w: out, metrics: map[string]metric{}}
	r.linef("# stepbench workload=%s seed=%d seconds=%v trace=%v", s.name, o.seed, o.seconds, o.trace)
	machine(r, s)
	var attempted, failed int
	if o.trace {
		attempted, failed, err = runTraced(o, s, r)
	} else {
		attempted, failed, err = runUntraced(o, s, r)
	}
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   len(r.failed) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	}
	if len(r.failed) > 0 {
		r.linef("# %d of %d checks failed: %s", len(r.failed), r.checks, strings.Join(r.failed, ", "))
	}
	return res, printResult(out, res)
}

// machine prints the facts every result carries. A run whose compute
// fan-out exceeds the CPUs is flagged: its numbers measure scheduling,
// not the program, and are not to be cited.
func machine(r *report, s spec) {
	ncpu, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	over := s.fanout() > ncpu || s.fanout() > procs
	r.linef("machine num_cpu=%d gomaxprocs=%d go=%s commit=%s fanout=%d oversubscribed=%v",
		ncpu, procs, runtime.Version(), commit(), s.fanout(), over)
	if over {
		r.linef("# WARNING: fan-out %d exceeds the %d CPUs; do not cite these numbers", s.fanout(), ncpu)
	}
}

// commit names the measured source: the VCS revision stamped into the
// binary when it was built inside a repository, else a hash of the
// module's Go sources and go.mod files.
func commit() string {
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
	}
	if rev != "" {
		if dirty {
			rev += "+dirty"
		}
		return rev
	}
	return "tree-sha256:" + treeHash()
}

func treeHash() string {
	root := moduleRoot()
	if root == "" {
		return "unknown"
	}
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// moduleRoot finds the repository root (the directory holding
// internal/dist) from the working directory upward.
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if fi, err := os.Stat(filepath.Join(dir, "internal", "dist")); err == nil && fi.IsDir() {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

func runUntraced(o options, s spec, r *report) (attempted, failed int, err error) {
	var setups []float64
	var dep deployment
	var w window
	for i := 0; i < o.setups; i++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return 0, 0, err
			}
		}
		w = window{}
		t0 := time.Now()
		dep, err = setUp(s, o.seed, nil, &w)
		if err != nil {
			return 0, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	measure(dep, &w, o.window, seconds(o.seconds))
	var disagreements int
	if nd, ok := dep.(*nodesDeployment); ok {
		disagreements = nd.disagreements
	}
	if err := dep.close(); err != nil {
		return 0, 0, err
	}

	steps := len(w.durs)
	r.linef("info timed_steps %d (step_ms_p50/p90 are over these), quality_window %d, elapsed %.3f s",
		steps, o.window, w.elapsed.Seconds())
	if w.err != nil {
		r.linef("info step error: %v", w.err)
	}
	r.linef("info failed_step_share %v (%d of %d steps)", float64(w.failed)/float64(w.attempted()), w.failed, w.attempted())
	r.check("failed_step_share", w.failed == 0, "%d of %d steps failed", w.failed, w.attempted())
	if w.failed > 0 || steps < o.window {
		return w.attempted(), w.failed, nil
	}

	ms := make([]float64, steps)
	for i, d := range w.durs {
		ms[i] = float64(d) / 1e6
	}
	n := o.window
	rate, p50, p90 := calmestBlock(ms, s.workers)
	r.set("samples_per_s", rate)
	r.set("step_ms_p50", p50)
	r.set("step_ms_p90", p90)
	r.set("setup_s", median(setups))
	// SIDCo's per-step k-hat/k is heavy-tailed: 50-step stretches at
	// 10-20x k set the mean, and how many a seed meets spreads the mean
	// by about a quarter across seeds. The gated figures are the
	// per-step medians; the means are printed alongside.
	stepBytes := make([]float64, n)
	for i := range stepBytes {
		stepBytes[i] = float64(w.bytes[i+1] - w.bytes[i])
	}
	r.set("wire_bytes_per_step", median(stepBytes))
	medRatio := median(w.ratios[:n])
	r.set("khat_over_k_factor", math.Max(medRatio, 1/medRatio))
	lossTail := w.losses[w.warm+n-n/10 : w.warm+n]
	r.set("loss_final", stats.Mean(lossTail))
	r.set("heap_inuse_mb", float64(w.heap)/(1<<20))
	r.linef("info alloc_bytes_per_step %v B (mean over the timed steps; not gated, see README.md)", float64(w.alloc)/float64(steps))
	meanRatio := stats.Mean(w.ratios[:n])
	r.linef("info mean k-hat/k %v, khat_over_k_error %v (|mean k-hat/k - 1|), mean wire bytes per step %v, over the quality window",
		meanRatio, math.Abs(meanRatio-1), float64(w.bytes[n]-w.bytes[0])/float64(n))
	r.linef("info setup_s samples %v", setups)

	checkTraffic(r, s, w.msgs[steps]-w.msgs[0], w.bytes[steps]-w.bytes[0], steps)
	checkLosses(r, w.losses)
	if s.compressor == "topk" {
		exact := true
		for _, x := range w.ratios {
			exact = exact && x == 1
		}
		r.check("topk_selects_k", exact, "every timed step selected exactly k = %d per worker", s.targetK())
	}
	if s.deploy == "nodes" {
		r.check("ranks_agree", disagreements == 0, "%d of %d steps with rank losses that differ bitwise", disagreements, len(w.losses))
		// The reference covers the warm-up and the quality window; the
		// rank agreement above covers every step.
		head := w.losses[:w.warm+n]
		ref, err := referenceLosses(s, o.seed, len(head))
		if err != nil {
			return 0, 0, fmt.Errorf("reference trainer: %w", err)
		}
		r.check("matches_reference", bitsEqual(ref, head),
			"the first %d global losses equal the in-process reference trainer bitwise", len(head))
	}
	return w.attempted(), w.failed, nil
}

// checkTraffic compares gradient traffic over steps exchanges against
// the netsim closed forms.
func checkTraffic(r *report, s spec, msgs, bytes, steps int) {
	want := s.expectedMessages() * steps
	r.check("messages_match_netsim", msgs == want, "%d messages over %d steps, netsim formula gives %d", msgs, steps, want)
	if s.deploy == "engine" {
		want := netsim.RingTrafficBytes(s.workers, 8*modelDim) * steps
		r.check("bytes_match_netsim", bytes == want, "%d payload bytes over %d steps, RingTrafficBytes gives %d", bytes, steps, want)
	}
}

func checkLosses(r *report, losses []float64) {
	finite := true
	for _, l := range losses {
		finite = finite && !math.IsNaN(l) && !math.IsInf(l, 0)
	}
	r.check("losses_finite", finite, "%d losses", len(losses))
}

func runTraced(o options, s spec, r *report) (attempted, failed int, err error) {
	// The untraced and the traced deployment run side by side, one step
	// each in turn, so both see the same machine and the overhead
	// compares like with like.
	var plain, traced window
	pd, err := setUp(s, o.seed, nil, &plain)
	if err != nil {
		return 0, 0, err
	}
	defer pd.close()
	tr := &tracer{}
	td, err := setUp(s, o.seed, tr, &traced)
	if err != nil {
		return 0, 0, err
	}
	defer td.close()
	measurePair(pd, td, tr, &plain, &traced, seconds(o.seconds))
	var disagreements int
	if nd, ok := td.(*nodesDeployment); ok {
		disagreements = nd.disagreements
	}
	attempted, failed = plain.attempted()+traced.attempted(), plain.failed+traced.failed
	r.check("failed_step_share", failed == 0, "%d of %d steps failed (untraced and traced)", failed, attempted)
	if failed > 0 {
		return attempted, failed, nil
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", s.name, o.seed))
	if err := tr.write(path, warmupSteps); err != nil {
		return 0, 0, err
	}
	r.linef("info per-step spans written to %s", path)

	steps := len(traced.durs)
	r.check("traced_losses_bitwise_equal", bitsEqual(plain.losses, traced.losses),
		"%d traced losses equal the untraced run's bitwise", len(traced.losses))
	var sum [numSlots]int64
	for _, row := range tr.rows[warmupSteps:] {
		for i, v := range row {
			sum[i] += v
		}
	}
	checkTraffic(r, s, int(sum[sMessages]), int(sum[sBytes]), steps)
	if s.nodeLanes() > 0 {
		m0, b0 := traced.msgs[0], traced.bytes[0]
		m1, b1 := td.traffic()
		r.check("transport_counts_match", int(sum[sMessages]) == m1-m0 && int(sum[sBytes]) == b1-b0,
			"timed transport counts equal the Instrumented totals")
	}
	if s.deploy == "nodes" {
		r.check("ranks_agree", disagreements == 0, "%d steps with rank losses that differ bitwise", disagreements)
	}
	layerMetrics(r, s, sum, steps, plain, traced)
	return attempted, failed, nil
}

// measurePair alternates one untraced and one traced step until dur has
// passed (at least 3 pairs), stopping at the first failed step.
func measurePair(pd, td deployment, tr *tracer, plain, traced *window, dur time.Duration) {
	runtime.GC()
	msgs, bytes := td.traffic()
	traced.msgs, traced.bytes = []int{msgs}, []int{bytes}
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < dur; i++ {
		t0 := time.Now()
		out, err := pd.step()
		if err != nil {
			plain.failed, plain.err = 1, err
			return
		}
		plain.durs = append(plain.durs, time.Since(t0))
		plain.losses = append(plain.losses, out.loss)

		tr.begin()
		t0 = time.Now()
		out, err = td.step()
		d := time.Since(t0)
		tr.add(sStep, d)
		if err != nil {
			traced.failed, traced.err = 1, err
			return
		}
		traced.durs = append(traced.durs, d)
		traced.losses = append(traced.losses, out.loss)
	}
}

// layerMetrics turns the traced step totals into the per-layer metrics.
// Times are per step and per lane: a layer's total time divided by the
// steps and by the goroutines that run it side by side (workers for
// the gradient phase, trainers for the exchange and update, cluster
// nodes for the transport). Counts are per step over all links.
func layerMetrics(r *report, s spec, sum [numSlots]int64, steps int, plain, traced window) {
	wl, tl, nl := s.workers, s.trainerLanes(), s.nodeLanes()
	ms := func(v int64, lanes int) float64 {
		if lanes == 0 {
			return 0
		}
		return float64(v) / 1e6 / float64(steps) / float64(lanes)
	}
	compressTop := sum[sSelect]
	ecSelf := int64(0)
	if s.ec {
		compressTop, ecSelf = sum[sEC], sum[sEC]-sum[sSelect]
	}
	worker := sum[sBatch] + sum[sForward] + sum[sBackward] + sum[sLoss] + compressTop
	stepSelf := ms(sum[sTrainerStep]-sum[sExchange]-sum[sApply], tl) - ms(worker, wl)
	r.set("data.batch_ms", ms(sum[sBatch], wl))
	r.set("nn.forward_ms", ms(sum[sForward], wl))
	r.set("nn.backward_ms", ms(sum[sBackward], wl))
	r.set("nn.loss_ms", ms(sum[sLoss], wl))
	r.set("compress.select_ms", ms(sum[sSelect], wl))
	r.set("compress.ec_ms", ms(ecSelf, wl))
	nnz := float64(sum[sNNZ]) / float64(steps) / float64(wl)
	r.set("compress.nnz_per_step", nnz)
	khat := 1.0 // the trainer's convention for dense training
	if k := s.targetK(); k > 0 {
		khat = nnz / float64(k)
	}
	r.set("compress.khat_over_k", khat)
	r.set("dist.exchange_ms", ms(sum[sExchange], tl))
	r.set("dist.apply_ms", ms(sum[sApply], tl))
	r.set("dist.step_self_ms", stepSelf)
	collSelf := 0.0
	if nl > 0 {
		collSelf = ms(sum[sExchange], tl) - ms(sum[sSend]+sum[sRecv]+sum[sEncode], nl)
	}
	r.set("cluster.send_ms", ms(sum[sSend], nl))
	r.set("cluster.recv_wait_ms", ms(sum[sRecv], nl))
	r.set("cluster.collective_self_ms", collSelf)
	r.set("cluster.messages_per_step", float64(sum[sMessages])/float64(steps))
	r.set("cluster.payload_bytes_per_step", float64(sum[sBytes])/float64(steps))
	scalar := 0.0
	if s.deploy == "nodes" {
		scalar = ms(sum[sMeanScalar], tl)
	}
	r.set("cluster.mean_scalar_ms", scalar)
	r.set("encoding.encode_ms", ms(sum[sEncode], nl))
	perValue := 0.0
	if sum[sEncode] > 0 && sum[sNNZ] > 0 {
		// Each rank's encoded payloads cross n-1 links in the all-gather.
		perValue = float64(sum[sBytes]) / float64(int64(s.workers-1)*sum[sNNZ])
	}
	r.set("encoding.bytes_per_value", perValue)
	overhead := (medianDur(traced.durs)/medianDur(plain.durs) - 1) * 100
	r.set("telemetry.trace_overhead_pct", overhead)

	step := ms(sum[sStep], 1)
	r.linef("info traced_steps %d, traced step %.4f ms (mean), untraced %.4f ms, traced %.4f ms (medians)",
		steps, step, medianDur(plain.durs)/1e6, medianDur(traced.durs)/1e6)
	for _, l := range []struct {
		name string
		v    float64
	}{
		{"data", ms(sum[sBatch], wl)},
		{"nn", ms(sum[sForward]+sum[sBackward]+sum[sLoss], wl)},
		{"compress", ms(compressTop, wl)},
		{"dist.exchange", ms(sum[sExchange], tl)},
		{"dist.apply", ms(sum[sApply], tl)},
		{"dist.step_self", stepSelf},
	} {
		r.linef("share %-16s %6.2f%% of the traced step", l.name, 100*l.v/step)
	}
	if s.name == "sidco-inproc" {
		layers := ms(worker+sum[sExchange]+sum[sApply], 1)
		resid := step - layers
		r.check("layers_add_up", resid >= 0 && resid <= residualBound*step,
			"step %.4f ms = layers %.4f ms + residual %.4f ms (%.2f%%, bound 0..%.0f%%)",
			step, layers, resid, 100*resid/step, 100*residualBound)
	}
}

// calmestBlock splits the per-step times (ms) into blocks and returns
// the highest block throughput (samples per second) and the lowest block
// median and 90th-percentile step times.
func calmestBlock(ms []float64, workers int) (rate, p50, p90 float64) {
	p50, p90 = math.Inf(1), math.Inf(1)
	for b := 0; b < blocks; b++ {
		blk := ms[b*len(ms)/blocks : (b+1)*len(ms)/blocks]
		total := 0.0
		for _, x := range blk {
			total += x
		}
		rate = math.Max(rate, float64(len(blk)*workers)/(total/1e3))
		p50 = math.Min(p50, stats.Quantile(blk, 0.5))
		p90 = math.Min(p90, stats.Quantile(blk, 0.9))
	}
	return rate, p50, p90
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return median(xs)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
