package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"srda/internal/obs"
)

// ErrShed marks replies shed by quota or admission control (HTTP 429 and
// 503): the request was refused by policy, not failed by a bug.  Test
// with errors.Is(err, ErrShed) to tell load shedding apart from real
// errors; 503s are additionally retried when a RetryPolicy is set.
var ErrShed = errors.New("serve: request shed by quota or admission control")

// StatusError is a non-200 server reply: the status code, the server's
// error message, and any Retry-After hint.  errors.Is(err, ErrShed)
// reports whether the reply was a shed (429/503) rather than a failure.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Message is the server's error string ("" when the body carried
	// none).
	Message string
	// RetryAfter is the parsed Retry-After header (0 when absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("serve: http %d: %s", e.Code, e.Message)
	}
	return fmt.Sprintf("serve: http %d", e.Code)
}

// Is makes errors.Is(err, ErrShed) true for quota (429) and
// overload/drain (503) replies.
func (e *StatusError) Is(target error) bool {
	return target == ErrShed &&
		(e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable)
}

// RetryPolicy retries idempotent predicts on 503 with capped exponential
// backoff plus seeded jitter.  Predictions are idempotent, so retrying a
// shed request is always safe; 429 quota rejections are never retried —
// the tenant is over its budget and backing off immediately is the
// point.  The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (values < 2 disable retries).
	MaxAttempts int
	// BaseDelay seeds the exponential schedule (default 50ms): attempt k
	// backs off in [base·2ᵏ/2, base·2ᵏ), capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps any single backoff, including server Retry-After
	// hints (default 2s).
	MaxDelay time.Duration
	// Seed fixes the jitter sequence, making retry schedules
	// deterministic in tests (same seed, same delays).
	Seed int64
}

// Client is a typed HTTP client for a srdaserve worker or router.  The
// zero value is unusable; construct with NewClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry, when non-nil, retries idempotent predicts on 503 replies,
	// honoring Retry-After up to Retry.MaxDelay.
	Retry *RetryPolicy
	// Sleep is the backoff clock (nil = time.Sleep); tests inject a
	// recorder to pin the schedule without waiting it out.
	Sleep func(time.Duration)

	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: http.DefaultClient}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// DenseSample wraps a dense feature vector as a request sample.
func DenseSample(x []float64) Sample { return Sample{Dense: x} }

// SparseSample wraps index→value features as a request sample.
func SparseSample(features map[int]float64) Sample { return Sample{Sparse: features} }

// Predict classifies the samples and returns one class per sample.
func (c *Client) Predict(ctx context.Context, samples ...Sample) ([]int, error) {
	resp, err := c.do(ctx, &PredictRequest{Samples: samples})
	if err != nil {
		return nil, err
	}
	return resp.Classes, nil
}

// PredictModel classifies the samples against the named registry model.
func (c *Client) PredictModel(ctx context.Context, model string, samples ...Sample) ([]int, error) {
	resp, err := c.do(ctx, &PredictRequest{Samples: samples, Model: model})
	if err != nil {
		return nil, err
	}
	return resp.Classes, nil
}

// PredictEmbed classifies the samples and also returns their
// (c−1)-dimensional embeddings.
func (c *Client) PredictEmbed(ctx context.Context, samples ...Sample) ([]int, [][]float64, error) {
	resp, err := c.do(ctx, &PredictRequest{Samples: samples, Embed: true})
	if err != nil {
		return nil, nil, err
	}
	return resp.Classes, resp.Embeddings, nil
}

// PredictOne classifies a single sample.
func (c *Client) PredictOne(ctx context.Context, s Sample) (int, error) {
	classes, err := c.Predict(ctx, s)
	if err != nil {
		return 0, err
	}
	if len(classes) != 1 {
		return 0, fmt.Errorf("serve: server returned %d classes for one sample", len(classes))
	}
	return classes[0], nil
}

// PredictRaw sends a fully-formed request and returns the raw response —
// the HTTP transport the router's remote backends forward through.  A
// request from SkimPredict goes out as the bytes it was skimmed from.
func (c *Client) PredictRaw(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	return c.do(ctx, req)
}

// do sends req, retrying per c.Retry.  The body is built once and every
// attempt sends the same bytes.
func (c *Client) do(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	body, want := req.body, req.bodySamples
	if body == nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		want = len(req.Samples)
	}
	if want == 0 {
		want = 1 // shorthand single-sample form
	}
	attempts := 1
	if c.Retry != nil && c.Retry.MaxAttempts > 1 {
		attempts = c.Retry.MaxAttempts
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if werr := c.waitBackoff(ctx, attempt-1, err); werr != nil {
				return nil, werr
			}
		}
		var resp *PredictResponse
		resp, err = c.doOnce(ctx, body, want)
		if err == nil {
			return resp, nil
		}
		var st *StatusError
		if !errors.As(err, &st) || st.Code != http.StatusServiceUnavailable {
			return nil, err // non-retryable: 4xx (incl. 429 quota sheds), transport errors
		}
	}
	return nil, err
}

// waitBackoff sleeps for retry k's backoff: base·2ᵏ with half-to-full
// jitter, capped at MaxDelay, floored by any server Retry-After hint.
func (c *Client) waitBackoff(ctx context.Context, k int, cause error) error {
	p := c.Retry
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	d := base << k
	if d > maxd || d <= 0 {
		d = maxd
	}
	c.jitterMu.Lock()
	if c.jitter == nil {
		c.jitter = rand.New(rand.NewSource(p.Seed))
	}
	d = d/2 + time.Duration(c.jitter.Float64()*float64(d/2))
	c.jitterMu.Unlock()
	var st *StatusError
	if errors.As(cause, &st) && st.RetryAfter > d {
		d = st.RetryAfter
	}
	if d > maxd {
		d = maxd
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(d)
	return ctx.Err()
}

// doOnce posts body as one predict attempt and checks that the reply
// answers want samples.
func (c *Client) doOnce(ctx context.Context, body []byte, want int) (*PredictResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	obs.InjectTrace(hreq.Header, obs.SpanFromContext(ctx))
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() { _ = hresp.Body.Close() }() // best-effort; response already read or failed
	if hresp.StatusCode != http.StatusOK {
		return nil, decodeError(hresp)
	}
	var out PredictResponse
	if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding predict response: %w", err)
	}
	if len(out.Classes) != want {
		return nil, fmt.Errorf("serve: server returned %d classes for %d samples", len(out.Classes), want)
	}
	return &out, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() { _ = hresp.Body.Close() }() // best-effort; response already read or failed
	if hresp.StatusCode != http.StatusOK {
		return nil, decodeError(hresp)
	}
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("serve: decoding health response: %w", err)
	}
	return &h, nil
}

// Models fetches /v1/models, the registry listing.
func (c *Client) Models(ctx context.Context) (*ModelList, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/models", nil)
	if err != nil {
		return nil, err
	}
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() { _ = hresp.Body.Close() }() // best-effort; response already read or failed
	if hresp.StatusCode != http.StatusOK {
		return nil, decodeError(hresp)
	}
	var ml ModelList
	if err := json.NewDecoder(hresp.Body).Decode(&ml); err != nil {
		return nil, fmt.Errorf("serve: decoding model list: %w", err)
	}
	return &ml, nil
}

// Metrics fetches the raw /metrics exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return "", err
	}
	defer func() { _ = hresp.Body.Close() }() // best-effort; response already read or failed
	if hresp.StatusCode != http.StatusOK {
		return "", decodeError(hresp)
	}
	b, err := io.ReadAll(hresp.Body)
	return string(b), err
}

// decodeError turns a non-200 reply into a *StatusError carrying the
// server's message and any Retry-After hint.
func decodeError(resp *http.Response) error {
	st := &StatusError{Code: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		st.RetryAfter = time.Duration(secs) * time.Second
	}
	var er errorReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er); err == nil {
		st.Message = er.Error
	}
	return st
}
