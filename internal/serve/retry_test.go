package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shedServer replies 503 (with Retry-After) until the remaining counter
// drains, then serves a fixed predict reply.
func shedServer(t *testing.T, remaining *atomic.Int32, retryAfter string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if remaining.Add(-1) >= 0 {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(errorReply{Error: "prediction queue full"})
			return
		}
		_ = json.NewEncoder(w).Encode(PredictResponse{Classes: []int{2}, ModelSeq: 1})
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestRetryOn503Deterministic(t *testing.T) {
	var remaining atomic.Int32
	remaining.Store(2) // two sheds, then success
	srv := shedServer(t, &remaining, "")
	var slept []time.Duration
	c := NewClient(srv.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, Seed: 7}
	c.Sleep = func(d time.Duration) { slept = append(slept, d) }
	classes, err := c.Predict(context.Background(), DenseSample([]float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || classes[0] != 2 {
		t.Fatalf("classes = %v", classes)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// Backoff k sleeps in [base·2ᵏ/2, base·2ᵏ).
	for k, d := range slept {
		lo := (50 * time.Millisecond << k) / 2
		hi := 50 * time.Millisecond << k
		if d < lo || d >= hi {
			t.Fatalf("backoff %d = %v, want [%v, %v)", k, d, lo, hi)
		}
	}
	// Same seed, same schedule: the jitter sequence is deterministic.
	remaining.Store(2)
	c2 := NewClient(srv.URL)
	c2.Retry = &RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, Seed: 7}
	var slept2 []time.Duration
	c2.Sleep = func(d time.Duration) { slept2 = append(slept2, d) }
	if _, err := c2.Predict(context.Background(), DenseSample([]float64{1})); err != nil {
		t.Fatal(err)
	}
	for k := range slept {
		if slept[k] != slept2[k] {
			t.Fatalf("schedule diverged at %d: %v vs %v", k, slept[k], slept2[k])
		}
	}
}

func TestRetryExhaustionSurfacesShed(t *testing.T) {
	var remaining atomic.Int32
	remaining.Store(100) // never recovers
	srv := shedServer(t, &remaining, "")
	c := NewClient(srv.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}
	c.Sleep = func(time.Duration) {}
	_, err := c.Predict(context.Background(), DenseSample([]float64{1}))
	if err == nil {
		t.Fatal("exhausted retries returned success")
	}
	if !errors.Is(err, ErrShed) {
		t.Fatalf("exhausted 503 not a shed: %v", err)
	}
	var st *StatusError
	if !errors.As(err, &st) || st.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v", err)
	}
	if st.Message != "prediction queue full" {
		t.Fatalf("server message lost: %q", st.Message)
	}
	if got := 100 - remaining.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestRetryHonorsRetryAfterFloor(t *testing.T) {
	var remaining atomic.Int32
	remaining.Store(1)
	srv := shedServer(t, &remaining, "1") // server asks for 1s
	c := NewClient(srv.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Second, Seed: 3}
	var slept []time.Duration
	c.Sleep = func(d time.Duration) { slept = append(slept, d) }
	if _, err := c.Predict(context.Background(), DenseSample([]float64{1})); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != time.Second {
		t.Fatalf("slept %v, want exactly the 1s Retry-After floor", slept)
	}
	// MaxDelay caps even the server's hint.
	remaining.Store(1)
	c2 := NewClient(srv.URL)
	c2.Retry = &RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond, Seed: 3}
	slept = nil
	c2.Sleep = func(d time.Duration) { slept = append(slept, d) }
	if _, err := c2.Predict(context.Background(), DenseSample([]float64{1})); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 100*time.Millisecond {
		t.Fatalf("slept %v, want the 100ms cap", slept)
	}
}

func TestQuotaShed429NotRetried(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(errorReply{Error: `tenant "a" over its request quota`})
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1}
	c.Sleep = func(time.Duration) { t.Fatal("429 must not back off and retry") }
	_, err := c.Predict(context.Background(), DenseSample([]float64{1}))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("429 not a shed: %v", err)
	}
	var st *StatusError
	if !errors.As(err, &st) || st.Code != http.StatusTooManyRequests || st.RetryAfter != time.Second {
		t.Fatalf("err = %+v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d attempts, want 1", hits.Load())
	}
}

func TestShedVsErrorDistinct(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(errorReply{Error: "no samples"})
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	_, err := c.Predict(context.Background(), DenseSample([]float64{1}))
	if errors.Is(err, ErrShed) {
		t.Fatalf("a 400 must not read as a shed: %v", err)
	}
	var st *StatusError
	if !errors.As(err, &st) || st.Code != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
	if got, want := st.Error(), "serve: http 400: no samples"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

// TestRetryResendsOneBody: a retried predict builds its body once, and
// every attempt sends exactly those bytes — the typed request's
// encoding, or verbatim the bytes a skimmed request was read from.
func TestRetryResendsOneBody(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	var remaining atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
		if remaining.Add(-1) >= 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(PredictResponse{Classes: []int{2, 0}, ModelSeq: 1})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 4, Seed: 3}
	c.Sleep = func(time.Duration) {}

	typed := &PredictRequest{Samples: []Sample{DenseSample([]float64{1, 0.1, -1e-300}), SparseSample(map[int]float64{3: 2, 1: -1})}}
	encoded, err := json.Marshal(typed)
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(`{ "samples":[{"dense":[1.0, 1e-1]}, {"sparse":{"3":2e0}}], "model" : "té" }`)
	skimmed, err := SkimPredict(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  *PredictRequest
		want []byte
	}{{"typed", typed, encoded}, {"skimmed", skimmed, raw}} {
		mu.Lock()
		bodies = nil
		mu.Unlock()
		remaining.Store(2) // two sheds, then success
		if _, err := c.PredictRaw(context.Background(), tc.req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mu.Lock()
		if len(bodies) != 3 {
			t.Fatalf("%s: %d attempts, want 3", tc.name, len(bodies))
		}
		for i, b := range bodies {
			if !bytes.Equal(b, tc.want) {
				t.Fatalf("%s: attempt %d sent %q, want %q", tc.name, i, b, tc.want)
			}
		}
		mu.Unlock()
	}
}
