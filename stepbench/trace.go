package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// slot is one per-step accumulator of the traced run: nanoseconds for
// the timed seams, plain counts for the count slots.
type slot int

const (
	sBatch       slot = iota // TrainerConfig.Batch
	sForward                 // nn.Layer.Forward, every layer of the Sequential
	sBackward                // nn.Layer.Backward
	sLoss                    // nn.Loss Forward + Backward
	sSelect                  // the inner compressor's CompressInto
	sEC                      // the error-feedback wrapper's CompressInto, inner included
	sNNZ                     // selected elements (count)
	sExchange                // dist.GradientExchange.Exchange
	sApply                   // nn.Optimizer.StepFlat
	sTrainerStep             // dist.Trainer.Step
	sSend                    // cluster.Transport.Send beneath Instrumented
	sRecv                    // cluster.Transport.Recv/RecvTimeout beneath Instrumented
	sMessages                // gradient messages sent (count)
	sBytes                   // gradient payload bytes sent (count)
	sMeanScalar              // cluster.Node.MeanScalar
	sEncode                  // telemetry.SpanEncode durations
	sStep                    // the whole closed-loop step
	numSlots
)

var slotNames = [numSlots]string{
	"batch_ns", "forward_ns", "backward_ns", "loss_ns", "select_ns", "ec_ns", "nnz",
	"exchange_ns", "apply_ns", "trainer_step_ns", "send_ns", "recv_ns", "messages",
	"payload_bytes", "mean_scalar_ns", "encode_ns", "step_ns",
}

// tracer keeps the traced run's spans in memory, one row of slot totals
// per step. The run loop points cur at a fresh row before each step;
// the wrappers, called from worker, node and rank goroutines during the
// step, add into it atomically. Rows are written out when the run ends.
type tracer struct {
	cur  *[numSlots]int64
	rows []*[numSlots]int64
}

func (t *tracer) begin() {
	t.cur = new([numSlots]int64)
	t.rows = append(t.rows, t.cur)
}

func (t *tracer) add(s slot, d time.Duration) { atomic.AddInt64(&t.cur[s], int64(d)) }

func (t *tracer) count(s slot, n int) { atomic.AddInt64(&t.cur[s], int64(n)) }

// telemetry returns a tracer for the cluster's public Telemetry fields.
// Encode has no public seam, so its time comes from SpanEncode; every
// other event is dropped.
func (t *tracer) telemetry() *telemetry.Tracer { return telemetry.New(encodeSink{t}) }

type encodeSink struct{ t *tracer }

func (s encodeSink) Emit(e telemetry.Event) {
	if e.Type == telemetry.EventSpan && e.Span == telemetry.SpanEncode {
		atomic.AddInt64(&s.t.cur[sEncode], e.DurNanos)
	}
}

// write stores the rows as JSON lines, one object per step.
func (t *tracer) write(path string, from int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, row := range t.rows {
		rec := map[string]int64{"step": int64(i), "timed": 0}
		if i >= from {
			rec["timed"] = 1
		}
		for s, v := range row {
			rec[slotNames[s]] = v
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedLayer times one nn.Layer inside the Sequential.
type timedLayer struct {
	nn.Layer
	tr *tracer
}

func (l *timedLayer) Forward(x *nn.Tensor) *nn.Tensor {
	t0 := time.Now()
	y := l.Layer.Forward(x)
	l.tr.add(sForward, time.Since(t0))
	return y
}

func (l *timedLayer) Backward(g *nn.Tensor) *nn.Tensor {
	t0 := time.Now()
	dx := l.Layer.Backward(g)
	l.tr.add(sBackward, time.Since(t0))
	return dx
}

// timedLoss times the loss.
type timedLoss struct {
	nn.Loss
	tr *tracer
}

func (l *timedLoss) Forward(y *nn.Tensor, targets []int) float64 {
	t0 := time.Now()
	v := l.Loss.Forward(y, targets)
	l.tr.add(sLoss, time.Since(t0))
	return v
}

func (l *timedLoss) Backward() *nn.Tensor {
	t0 := time.Now()
	g := l.Loss.Backward()
	l.tr.add(sLoss, time.Since(t0))
	return g
}

// timedOptimizer times the update the trainer applies (StepFlat).
type timedOptimizer struct {
	nn.Optimizer
	tr *tracer
}

func (o *timedOptimizer) StepFlat(params []*nn.Param, flat []float64) {
	t0 := time.Now()
	o.Optimizer.StepFlat(params, flat)
	o.tr.add(sApply, time.Since(t0))
}

// timedCompressor times a compressor's CompressInto into slot; the inner
// one (sSelect) also counts the selected elements. It forwards
// compress.Parallelizable so SetParallelism reaches the wrapped stack.
type timedCompressor struct {
	inner compress.Compressor
	tr    *tracer
	slot  slot
}

func (c *timedCompressor) Name() string { return c.inner.Name() }

func (c *timedCompressor) Compress(g []float64, delta float64) (*tensor.Sparse, error) {
	return compress.FreshCompress(c, g, delta)
}

func (c *timedCompressor) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	t0 := time.Now()
	err := c.inner.CompressInto(dst, g, delta)
	c.tr.add(c.slot, time.Since(t0))
	if c.slot == sSelect && err == nil {
		c.tr.count(sNNZ, dst.NNZ())
	}
	return err
}

func (c *timedCompressor) SetParallelism(p int) { compress.SetParallelism(c.inner, p) }

// timedExchange times the trainer's gradient exchange.
type timedExchange struct {
	inner dist.GradientExchange
	tr    *tracer
}

func (x *timedExchange) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	t0 := time.Now()
	err := x.inner.Exchange(step, ins, agg)
	x.tr.add(sExchange, time.Since(t0))
	return err
}

// timedTransport times the transport handed to the Engine or Node, which
// sits beneath the cluster's Instrumented wrapper. It forwards
// cluster.TimeoutRecver (the per-step deadline path) and the step tag.
// While scalar is set the owning rank is inside MeanScalar, which rides
// the raw transport; those messages are not gradient traffic, so they
// stay out of the send, receive and count slots (MeanScalar is timed
// whole).
type timedTransport struct {
	inner  cluster.Transport
	tr     *tracer
	scalar atomic.Bool
}

func (t *timedTransport) Nodes() int { return t.inner.Nodes() }

func (t *timedTransport) Send(from, to int, payload []byte) error {
	t0 := time.Now()
	err := t.inner.Send(from, to, payload)
	if !t.scalar.Load() {
		t.tr.add(sSend, time.Since(t0))
		t.tr.count(sMessages, 1)
		t.tr.count(sBytes, len(payload))
	}
	return err
}

func (t *timedTransport) Recv(to, from int) ([]byte, error) {
	t0 := time.Now()
	p, err := t.inner.Recv(to, from)
	if !t.scalar.Load() {
		t.tr.add(sRecv, time.Since(t0))
	}
	return p, err
}

func (t *timedTransport) RecvTimeout(to, from int, timeout time.Duration) ([]byte, error) {
	tr, ok := t.inner.(cluster.TimeoutRecver)
	if !ok {
		return t.Recv(to, from)
	}
	t0 := time.Now()
	p, err := tr.RecvTimeout(to, from, timeout)
	if !t.scalar.Load() {
		t.tr.add(sRecv, time.Since(t0))
	}
	return p, err
}

func (t *timedTransport) SetStep(step int64) {
	if s, ok := t.inner.(interface{ SetStep(int64) }); ok {
		s.SetStep(step)
	}
}

func (t *timedTransport) Close() error { return t.inner.Close() }
