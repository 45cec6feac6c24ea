package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"srda/internal/obs"
	"srda/internal/serve"
)

// clockBackend answers every predict instantly but advances the router's
// frozen clock by a fixed amount per call, so forward latency is exact.
type clockBackend struct {
	name    string
	now     *time.Time
	advance time.Duration
}

func (b *clockBackend) Name() string { return b.name }

func (b *clockBackend) Predict(context.Context, *serve.PredictRequest) (*serve.PredictResponse, error) {
	*b.now = b.now.Add(b.advance)
	return &serve.PredictResponse{Classes: []int{0}}, nil
}

func (b *clockBackend) Health(context.Context) (*serve.Health, error) {
	return &serve.Health{Status: "ok"}, nil
}

// TestTenantLatencyQuantilesFrozenClock: with the injected clock driving
// both quota refill and forward timing, the per-tenant latency gauge
// families expose each tenant's histogram quantile — for a latency on a
// grid bound, that bucket's representative, 2/(1+2^(1/8)) of the bound —
// sorted by tenant, with untouched tenants absent.
func TestTenantLatencyQuantilesFrozenClock(t *testing.T) {
	now := time.Unix(1000, 0)
	// One replica owns the whole ring, so both tenants land on it; its
	// advance is overridden per phase below.
	b := &clockBackend{name: "w0", now: &now}
	r, err := New([]Backend{b}, Options{Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Dyadic latencies render exactly under %g.
	b.advance = 15625 * time.Microsecond // 2^-6 s
	for i := 0; i < 4; i++ {
		if _, err := r.Predict(context.Background(), &serve.PredictRequest{Model: "acme"}); err != nil {
			t.Fatal(err)
		}
	}
	b.advance = 250 * time.Millisecond // 2^-2 s
	for i := 0; i < 4; i++ {
		if _, err := r.Predict(context.Background(), &serve.PredictRequest{Model: "zeta"}); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		`srdaroute_tenant_latency_p50{tenant="acme"} 0.014948521601572042`,
		`srdaroute_tenant_latency_p99{tenant="acme"} 0.014948521601572042`,
		`srdaroute_tenant_latency_p50{tenant="zeta"} 0.23917634562515266`,
		`srdaroute_tenant_latency_p99{tenant="zeta"} 0.23917634562515266`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Tenant order is sorted: acme's p50 line precedes zeta's.
	if strings.Index(text, `p50{tenant="acme"}`) > strings.Index(text, `p50{tenant="zeta"}`) {
		t.Error("tenant gauge family not sorted by tenant")
	}
	if strings.Contains(text, `tenant="default"`) {
		t.Errorf("untouched default tenant appeared in the gauge family:\n%s", text)
	}
}

// TestUnknownModelsKeepNoTenantLatency: predicts naming models no worker
// serves come back 404 and leave no per-tenant latency state or gauge
// line behind, so a client inventing model names cannot grow the
// router's memory or its /metrics; the shared forward histogram still
// counts every forward.
func TestUnknownModelsKeepNoTenantLatency(t *testing.T) {
	r, _, _ := colocated(t, 2, Options{})
	const n = 200
	for i := 0; i < n; i++ {
		_, err := r.Predict(context.Background(), &serve.PredictRequest{
			Model:   fmt.Sprintf("invented-%d", i),
			Samples: []serve.Sample{{Dense: probe(8, 0)}},
		})
		if serve.StatusCode(err) != http.StatusNotFound {
			t.Fatalf("unknown model %d: %v (status %d)", i, err, serve.StatusCode(err))
		}
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	for _, family := range []string{"srdaroute_tenant_latency_p50{", "srdaroute_tenant_latency_p99{"} {
		if strings.Contains(text, family) {
			t.Errorf("failed forwards left %s lines:\n%s", family, text)
		}
	}
	if got := r.mx.forward.Count(); got != n {
		t.Errorf("forward histogram counted %d forwards, want %d", got, n)
	}
}

// TestRouterTracePropagation: an incoming traceparent header continues
// the caller's trace ("route" is a remote child), the "forward" span
// nests under it, and the typed client re-injects the forward span onto
// the outgoing hop.
func TestRouterTracePropagation(t *testing.T) {
	clock := time.Unix(0, 0)
	tracer := obs.NewTracerSeeded(16, 7, func() time.Time {
		clock = clock.Add(time.Millisecond)
		return clock
	})

	// The downstream "worker" just records the traceparent it received.
	var gotHeader string
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		gotHeader = req.Header.Get(obs.TraceparentHeader)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"classes":[0],"model_seq":1}`))
	}))
	defer worker.Close()

	r, err := New([]Backend{&HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(worker.URL)}},
		Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// A remote caller's coordinates: trace 0xabc, parent span 0x17.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"samples":[{"dense":[1]}]}`))
	req.Header.Set(obs.TraceparentHeader, "00-00000000000000000000000000000abc-0000000000000017-01")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body.String())
	}

	spans := tracer.Snapshot()
	byName := map[string]obs.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	route, ok := byName["route"]
	if !ok {
		t.Fatalf("no route span in %v", spans)
	}
	if route.Trace != 0xabc || route.Parent != 0x17 {
		t.Fatalf("route span trace/parent = %x/%x, want abc/17", route.Trace, route.Parent)
	}
	forward, ok := byName["forward"]
	if !ok {
		t.Fatalf("no forward span in %v", spans)
	}
	if forward.Trace != 0xabc || forward.Parent != route.ID {
		t.Fatalf("forward span trace/parent = %x/%x, want abc/%x", forward.Trace, forward.Parent, route.ID)
	}
	// The outgoing hop carried the forward span's coordinates.
	wantHeader := "00-0000000000000000" + "0000000000000abc" + "-"
	if !strings.HasPrefix(gotHeader, wantHeader) {
		t.Fatalf("outgoing traceparent %q does not continue trace abc", gotHeader)
	}
	trace, parent, ok := obs.ExtractTrace(http.Header{obs.TraceparentHeader: []string{gotHeader}})
	if !ok || trace != 0xabc || parent != forward.ID {
		t.Fatalf("outgoing header = %q (trace %x parent %x), want trace abc parent %x",
			gotHeader, trace, parent, forward.ID)
	}
}
