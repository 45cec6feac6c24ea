package serve

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestMetricsExpositionGolden pins the /metrics output byte-for-byte.
// This is the compatibility contract for the migration onto internal/obs:
// any change to metric names, help strings, ordering, label rendering, or
// bucket formatting is an exposition regression and fails here.  The
// observed values are dyadic rationals so the %g-rendered sums are exact.
func TestMetricsExpositionGolden(t *testing.T) {
	mx := newMetrics(func() int64 { return 3 }, func() int64 { return 2 })
	mx.requests.With("/v1/predict", "200").Inc()
	mx.requests.With("/v1/predict", "200").Inc()
	mx.requests.With("/v1/predict", "400").Inc()
	mx.requests.With("/healthz", "200").Inc()
	mx.errors.With("/v1/predict").Inc()
	mx.latency.Observe(0.001953125) // 2^-9, exactly on a grid bound: le is inclusive
	mx.latency.Observe(0.00390625)  // 2^-8, one octave (eight buckets) up
	mx.batchSize.Observe(2)
	mx.batchSize.Observe(3)
	mx.samples.Add(7)
	mx.batches.Add(2)
	mx.reloads.Inc()
	mx.queueRejects.Add(4)

	var sb strings.Builder
	mx.writeProm(&sb)
	const golden = `# HELP srdaserve_requests_total HTTP requests by endpoint and status code.
# TYPE srdaserve_requests_total counter
srdaserve_requests_total{endpoint="/healthz",code="200"} 1
srdaserve_requests_total{endpoint="/v1/predict",code="200"} 2
srdaserve_requests_total{endpoint="/v1/predict",code="400"} 1
# HELP srdaserve_errors_total Failed requests by endpoint.
# TYPE srdaserve_errors_total counter
srdaserve_errors_total{endpoint="/v1/predict"} 1
# HELP srdaserve_request_duration_seconds Predict latency from receipt to reply.
# TYPE srdaserve_request_duration_seconds histogram
srdaserve_request_duration_seconds_bucket{le="0.001953125"} 1
srdaserve_request_duration_seconds_bucket{le="0.0021298979153618314"} 1
srdaserve_request_duration_seconds_bucket{le="0.0023226701464896895"} 1
srdaserve_request_duration_seconds_bucket{le="0.002532889755177753"} 1
srdaserve_request_duration_seconds_bucket{le="0.0027621358640099515"} 1
srdaserve_request_duration_seconds_bucket{le="0.0030121305183748843"} 1
srdaserve_request_duration_seconds_bucket{le="0.0032847516220848223"} 1
srdaserve_request_duration_seconds_bucket{le="0.003582047043768247"} 1
srdaserve_request_duration_seconds_bucket{le="0.00390625"} 2
srdaserve_request_duration_seconds_bucket{le="+Inf"} 2
srdaserve_request_duration_seconds_sum 0.005859375
srdaserve_request_duration_seconds_count 2
# HELP srdaserve_batch_size Samples coalesced per inference batch.
# TYPE srdaserve_batch_size histogram
srdaserve_batch_size_bucket{le="2"} 1
srdaserve_batch_size_bucket{le="2.1810154653305154"} 1
srdaserve_batch_size_bucket{le="2.378414230005442"} 1
srdaserve_batch_size_bucket{le="2.5936791093020193"} 1
srdaserve_batch_size_bucket{le="2.8284271247461903"} 1
srdaserve_batch_size_bucket{le="3.0844216508158815"} 2
srdaserve_batch_size_bucket{le="+Inf"} 2
srdaserve_batch_size_sum 5
srdaserve_batch_size_count 2
# HELP srdaserve_samples_total Samples predicted.
# TYPE srdaserve_samples_total counter
srdaserve_samples_total 7
# HELP srdaserve_batches_total Inference batches dispatched.
# TYPE srdaserve_batches_total counter
srdaserve_batches_total 2
# HELP srdaserve_model_reloads_total Successful hot reloads.
# TYPE srdaserve_model_reloads_total counter
srdaserve_model_reloads_total 1
# HELP srdaserve_model_reload_errors_total Failed hot-reload attempts.
# TYPE srdaserve_model_reload_errors_total counter
srdaserve_model_reload_errors_total 0
# HELP srdaserve_queue_rejects_total Samples rejected because the queue was full.
# TYPE srdaserve_queue_rejects_total counter
srdaserve_queue_rejects_total 4
# HELP srdaserve_queue_depth Samples currently queued for dispatch.
# TYPE srdaserve_queue_depth gauge
srdaserve_queue_depth 3
# HELP srdaserve_model_seq Monotonic sequence number of the live model.
# TYPE srdaserve_model_seq gauge
srdaserve_model_seq 2
# HELP srdaserve_request_latency_p50 Median predict latency in seconds, from srdaserve_request_duration_seconds.
# TYPE srdaserve_request_latency_p50 gauge
srdaserve_request_latency_p50 0.0018685652001965052
# HELP srdaserve_request_latency_p95 95th-percentile predict latency in seconds, from srdaserve_request_duration_seconds.
# TYPE srdaserve_request_latency_p95 gauge
srdaserve_request_latency_p95 0.0037371304003930104
# HELP srdaserve_request_latency_p99 99th-percentile predict latency in seconds, from srdaserve_request_duration_seconds.
# TYPE srdaserve_request_latency_p99 gauge
srdaserve_request_latency_p99 0.0037371304003930104
`
	if sb.String() != golden {
		t.Fatalf("exposition regression.\n--- got ---\n%s\n--- want ---\n%s", sb.String(), golden)
	}
}

// TestLatencyP99Allocs: the p99 the router's admission control and the
// flight recorder read is one allocation-free scan of the duration
// histogram, so it can run on every request.
func TestLatencyP99Allocs(t *testing.T) {
	model, _ := trainBlobs(t, 10, 3, 11)
	s, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close(context.Background()) }()
	if p := s.LatencyP99(); p != 0 {
		t.Fatalf("p99 before any request = %v, want 0", p)
	}
	for i := 1; i <= 1000; i++ {
		s.metrics.latency.Observe(float64(i) * 1e-5)
	}
	if p := s.LatencyP99(); math.Abs(p-0.0099)/0.0099 > 0.044 {
		t.Fatalf("p99 = %v, want 0.0099 within the histogram's 4.3%%", p)
	}
	if a := testing.AllocsPerRun(100, func() { s.LatencyP99() }); a != 0 {
		t.Errorf("LatencyP99 allocates %v times per call", a)
	}
}
