package telemetry

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srda/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedWorker builds one fake replica: a registry with the fleet-view
// metrics at fixed values and a latency histogram over a fixed stream.
func fixedWorker(base float64, queue int64, p99 float64) (*obs.Registry, *obs.CounterVec) {
	reg := obs.NewRegistry()
	requests := reg.NewCounterVec("srdaserve_requests_total",
		"HTTP requests by endpoint and status code.", "endpoint", "code")
	reg.NewGaugeFunc("srdaserve_queue_depth",
		"Samples currently queued for dispatch.", func() int64 { return queue })
	reg.NewGaugeFloatFunc("srdaserve_request_latency_p99",
		"99th-percentile predict latency in seconds.", func() float64 { return p99 })
	latency := reg.NewHistogram("srdaserve_request_duration_seconds", "Predict latency from receipt to reply.")
	for i := 1; i <= 1000; i++ {
		latency.Observe(base + float64(i)/1000)
	}
	return reg, requests
}

// buildFederation assembles two healthy fixed replicas plus one target
// that always fails, scrapes twice under a frozen clock, and returns
// the federator.
func buildFederation(t *testing.T) *Federator {
	t.Helper()
	reg0, req0 := fixedWorker(0, 2, 0.2)
	reg1, req1 := fixedWorker(1, 5, 0.9)
	targets := []Target{
		RegistryTarget("w0", reg0),
		RegistryTarget("w1", reg1),
		{Replica: "w2", Fetch: func(context.Context) ([]byte, error) {
			return nil, errors.New("connection refused")
		}},
	}
	now := t0
	f := NewFederator(targets, FederatorOptions{
		Clock:      func() time.Time { return now },
		RateWindow: 30 * time.Second,
	})

	req0.With("/v1/predict", "200").Add(100)
	req1.With("/v1/predict", "200").Add(200)
	req1.With("/v1/predict", "503").Add(10)
	f.Scrape(context.Background(), now)

	req0.With("/v1/predict", "200").Add(30)
	req1.With("/v1/predict", "200").Add(30)
	req1.With("/v1/predict", "503").Add(30)
	now = t0.Add(15 * time.Second)
	f.Scrape(context.Background(), now)
	return f
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestClusterMetricsGolden pins /cluster/metrics byte-for-byte: fixed
// targets scraped at frozen instants must render identically forever —
// the determinism contract dashboards and diff-based tooling rely on.
func TestClusterMetricsGolden(t *testing.T) {
	f := buildFederation(t)
	rec := httptest.NewRecorder()
	f.MetricsHandler()(rec, httptest.NewRequest("GET", "/cluster/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	checkGolden(t, "cluster_metrics.golden", rec.Body.Bytes())

	// Rendering twice yields identical bytes — no map-order leakage.
	rec2 := httptest.NewRecorder()
	f.MetricsHandler()(rec2, httptest.NewRequest("GET", "/cluster/metrics", nil))
	if rec.Body.String() != rec2.Body.String() {
		t.Error("two renders of /cluster/metrics differ")
	}
}

// TestClusterSnapshotGolden pins the /cluster/snapshot JSON document.
func TestClusterSnapshotGolden(t *testing.T) {
	f := buildFederation(t)
	rec := httptest.NewRecorder()
	f.SnapshotHandler()(rec, httptest.NewRequest("GET", "/cluster/snapshot", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	checkGolden(t, "cluster_snapshot.golden", rec.Body.Bytes())

	snap, err := ValidateClusterSnapshot(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Replicas) != 3 {
		t.Fatalf("replicas = %+v", snap.Replicas)
	}
	w1 := snap.Replicas[1]
	// 60 requests (30 ok + 30 errored) over the second 15s interval,
	// rated over the 30s window.
	if w1.Replica != "w1" || !w1.Up || w1.RequestRate != 2 || w1.ErrorRate != 1 {
		t.Errorf("w1 row = %+v", w1)
	}
	if w1.P99Seconds != 0.9 || w1.QueueDepth != 5 {
		t.Errorf("w1 gauges = %+v", w1)
	}
	w2 := snap.Replicas[2]
	if w2.Up || w2.Error == "" {
		t.Errorf("down replica row = %+v", w2)
	}

	// Merged cluster quantiles span both replicas' ranges: w0 observed
	// (0, 1], w1 observed (1, 2] — the cluster p50 sits at the seam and
	// the p99 in w1's tail, which no single replica's histogram holds.
	if len(snap.Quantiles) != 1 {
		t.Fatalf("quantiles = %+v", snap.Quantiles)
	}
	q := snap.Quantiles[0]
	if q.Metric != "srdaserve_request_duration_seconds" || q.Count != 2000 {
		t.Errorf("cluster quantiles = %+v", q)
	}
	if math.Abs(q.P50-1)/1 > 0.0433 {
		t.Errorf("cluster p50 = %v, want 1.0 within 4.3%%", q.P50)
	}
	if math.Abs(q.P99-1.98)/1.98 > 0.0433 {
		t.Errorf("cluster p99 = %v, want 1.98 within 4.3%%", q.P99)
	}
}

// TestReplicaLabelCollision scrapes a registry whose series already
// carry a replica label (the router's srdaroute_* set does) and checks
// the scraped label is renamed exported_replica instead of colliding
// with the federation tag into a duplicate label name.
func TestReplicaLabelCollision(t *testing.T) {
	reg := obs.NewRegistry()
	routed := reg.NewCounterVec("srdaroute_requests_total",
		"Routed predict requests by backend replica and status code.", "replica", "code")
	routed.With("w0", "200").Add(7)
	f := NewFederator([]Target{RegistryTarget("router", reg)}, FederatorOptions{
		Clock: func() time.Time { return t0 },
	})
	f.Scrape(context.Background(), t0)

	var sb strings.Builder
	f.WriteClusterMetrics(&sb)
	want := `srdaroute_requests_total{code="200",exported_replica="w0",replica="router"} 7`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("cluster exposition missing %q:\n%s", want, sb.String())
	}
	// The rendered exposition must stay parseable by the shared grammar
	// (a duplicate label name would make it illegal Prometheus text).
	if _, err := obs.ParsePrometheus([]byte(sb.String())); err != nil {
		t.Fatalf("cluster exposition does not re-parse: %v", err)
	}
}

// TestFederatorSLOIntegration wires an SLO engine to the federated
// store and checks a scrape pass evaluates it over replica-tagged
// series.
func TestFederatorSLOIntegration(t *testing.T) {
	reg0, req0 := fixedWorker(0, 0, 0.1)
	f := NewFederator([]Target{RegistryTarget("w0", reg0)}, FederatorOptions{
		Clock: func() time.Time { return t0 },
	})
	cfg, err := ValidateSLOConfig([]byte(`{
  "schema": "srda-slo/v1",
  "objectives": [
    {"name": "availability", "kind": "availability", "metric": "srdaserve_requests_total",
     "target": 0.99, "pending_for_seconds": 1}
  ],
  "windows": [{"name": "fast", "short_seconds": 60, "long_seconds": 120, "burn": 5}]
}`))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewSLOEngine(cfg, f.Store(), SLOEngineOptions{Clock: func() time.Time { return t0 }})
	f.AttachSLO(eng)

	now := t0
	req0.With("/v1/predict", "200").Add(100)
	f.Scrape(context.Background(), now)
	for sec := 15; sec <= 60; sec += 15 {
		now = t0.Add(time.Duration(sec) * time.Second)
		req0.With("/v1/predict", "503").Add(50)
		f.Scrape(context.Background(), now)
	}
	alerts := eng.Alerts()
	if len(alerts) != 1 || alerts[0].State != StateFiring {
		t.Fatalf("federated SLO alerts = %+v", alerts)
	}
	if alerts[0].Burn < 5 {
		t.Errorf("burn = %v", alerts[0].Burn)
	}
}

// TestClusterQuantilesExactMerge: cluster quantiles and counts summed
// from k replicas' histogram buckets equal, bit for bit, those of one
// histogram fed the union stream — across replicas with overlapping,
// disjoint and empty ranges, after the ranges grow, and after a replica
// restarts with a narrower range (its buckets from the earlier scrape
// no longer count).
func TestClusterQuantilesExactMerge(t *testing.T) {
	const k = 4
	regs := make([]*obs.Registry, k)
	hists := make([]*obs.Histogram, k)
	fresh := func(i int) {
		regs[i] = obs.NewRegistry()
		hists[i] = regs[i].NewHistogram("lat_seconds", "Latency.")
	}
	targets := make([]Target, k)
	for i := range targets {
		fresh(i)
		i := i
		targets[i] = Target{Replica: fmt.Sprintf("w%d", i), Fetch: func(ctx context.Context) ([]byte, error) {
			return RegistryTarget("", regs[i]).Fetch(ctx)
		}}
	}
	f := NewFederator(targets, FederatorOptions{Clock: func() time.Time { return t0 }})
	rng := rand.New(rand.NewSource(7))
	streams := make([][]float64, k)
	feed := func(i, n int, draw func() float64) {
		for j := 0; j < n; j++ {
			v := draw()
			streams[i] = append(streams[i], v)
			hists[i].Observe(v)
		}
	}
	check := func(round int, now time.Time) {
		t.Helper()
		f.Scrape(context.Background(), now)
		var union obs.Histogram
		for _, s := range streams {
			for _, v := range s {
				union.Observe(v)
			}
		}
		snap := f.Snapshot(now)
		if len(snap.Quantiles) != 1 || snap.Quantiles[0].Metric != "lat_seconds" {
			t.Fatalf("round %d: quantiles = %+v", round, snap.Quantiles)
		}
		q := snap.Quantiles[0]
		if int64(q.Count) != union.Count() {
			t.Errorf("round %d: cluster count %d, union %d", round, q.Count, union.Count())
		}
		for _, c := range []struct {
			q   float64
			got float64
		}{{0.5, q.P50}, {0.95, q.P95}, {0.99, q.P99}} {
			if want := union.Quantile(c.q); math.Float64bits(c.got) != math.Float64bits(want) {
				t.Errorf("round %d: cluster p%v = %v, union histogram %v", round, 100*c.q, c.got, want)
			}
		}
	}

	// w0 and w1 overlap, w2 sits far above them, w3 stays empty.
	feed(0, 3000, func() float64 { return math.Exp(rng.NormFloat64() - 6) })
	feed(1, 2000, func() float64 { return math.Exp(rng.NormFloat64() - 5) })
	feed(2, 500, func() float64 { return 2 + rng.ExpFloat64() })
	check(1, t0)
	// Ranges grow: new bucket series appear on the next scrape.
	feed(3, 100, func() float64 { return 1e-7 * (1 + rng.Float64()) })
	feed(2, 500, func() float64 { return 0.3 * (1 + rng.Float64()) })
	check(2, t0.Add(15*time.Second))
	// w2 restarts and sees only values near 2: the low buckets it added
	// last round are still in the store, after buckets it emits again,
	// but belong to an older scrape.
	fresh(2)
	streams[2] = nil
	feed(2, 500, func() float64 { return 2 + rng.Float64()/2 })
	check(3, t0.Add(30*time.Second))
}

// TestClusterQuantilesSingleReplica: federating one replica reproduces
// its own Histogram.Quantile exactly — the text round trip through /metrics
// and the store loses nothing.
func TestClusterQuantilesSingleReplica(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.NewHistogram("lat_seconds", "Latency.")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		h.Observe(rng.ExpFloat64() * 0.02)
	}
	f := NewFederator([]Target{RegistryTarget("w0", reg)}, FederatorOptions{Clock: func() time.Time { return t0 }})
	f.Scrape(context.Background(), t0)
	snap := f.Snapshot(t0)
	if len(snap.Quantiles) != 1 {
		t.Fatalf("quantiles = %+v", snap.Quantiles)
	}
	q := snap.Quantiles[0]
	if q.P50 != h.Quantile(0.5) || q.P95 != h.Quantile(0.95) || q.P99 != h.Quantile(0.99) || int64(q.Count) != h.Count() {
		t.Fatalf("federated %+v, local p50 %v p95 %v p99 %v n %d",
			q, h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Count())
	}
}
