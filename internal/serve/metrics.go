package serve

import (
	"io"

	"srda/internal/obs"
)

// metrics aggregates everything /metrics exposes, built on internal/obs.
// The registry is per-server (not obs.Default()) so tests and multiple
// servers in one process stay isolated.  Registration order here is the
// exposition order and is pinned byte-for-byte by the golden test in
// metrics_test.go — new instruments go at the end.
type metrics struct {
	reg          *obs.Registry
	requests     *obs.CounterVec // endpoint, code
	errors       *obs.CounterVec // endpoint
	latency      *obs.Histogram  // predict seconds, request receipt → reply ready
	batchSize    *obs.Histogram  // samples per inference batch
	samples      *obs.Counter
	batches      *obs.Counter
	reloads      *obs.Counter
	reloadErrors *obs.Counter
	queueRejects *obs.Counter
}

// newMetrics registers the serve instrument set on a fresh registry.
// queueDepth and modelSeq are sampled at exposition time.
func newMetrics(queueDepth, modelSeq func() int64) *metrics {
	reg := obs.NewRegistry()
	mx := &metrics{
		reg: reg,
		requests: reg.NewCounterVec("srdaserve_requests_total",
			"HTTP requests by endpoint and status code.", "endpoint", "code"),
		errors: reg.NewCounterVec("srdaserve_errors_total",
			"Failed requests by endpoint.", "endpoint"),
		latency: reg.NewHistogram("srdaserve_request_duration_seconds",
			"Predict latency from receipt to reply."),
		batchSize: reg.NewHistogram("srdaserve_batch_size",
			"Samples coalesced per inference batch."),
		samples: reg.NewCounter("srdaserve_samples_total",
			"Samples predicted."),
		batches: reg.NewCounter("srdaserve_batches_total",
			"Inference batches dispatched."),
		reloads: reg.NewCounter("srdaserve_model_reloads_total",
			"Successful hot reloads."),
		reloadErrors: reg.NewCounter("srdaserve_model_reload_errors_total",
			"Failed hot-reload attempts."),
		queueRejects: reg.NewCounter("srdaserve_queue_rejects_total",
			"Samples rejected because the queue was full."),
	}
	reg.NewGaugeFunc("srdaserve_queue_depth",
		"Samples currently queued for dispatch.", queueDepth)
	reg.NewGaugeFunc("srdaserve_model_seq",
		"Monotonic sequence number of the live model.", modelSeq)
	// The quantile gauges are views of the duration histogram, within
	// its ≈4.3% relative error.
	reg.NewGaugeFloatFunc("srdaserve_request_latency_p50",
		"Median predict latency in seconds, from srdaserve_request_duration_seconds.",
		func() float64 { return mx.latency.Quantile(0.5) })
	reg.NewGaugeFloatFunc("srdaserve_request_latency_p95",
		"95th-percentile predict latency in seconds, from srdaserve_request_duration_seconds.",
		func() float64 { return mx.latency.Quantile(0.95) })
	reg.NewGaugeFloatFunc("srdaserve_request_latency_p99",
		"99th-percentile predict latency in seconds, from srdaserve_request_duration_seconds.",
		func() float64 { return mx.latency.Quantile(0.99) })
	return mx
}

// writeProm renders the Prometheus text exposition format.
func (mx *metrics) writeProm(w io.Writer) { mx.reg.WritePrometheus(w) }
