package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"srda/internal/registry"
	"srda/internal/serve"
)

// httpTier puts a router over one real worker reached through the typed
// HTTP client, serving tenant-0 (8 features, 3 classes).  It returns the
// router's URL and a recorder of every predict body the worker received.
func httpTier(t *testing.T) (string, func() [][]byte) {
	t.Helper()
	reg := registry.New(registry.Options{})
	if _, err := reg.Publish("tenant-0", trainBlobs(t, 8, 3, 50)); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(nil, serve.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	var mu sync.Mutex
	var bodies [][]byte
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
		req.Body = io.NopCloser(bytes.NewReader(body))
		s.Handler().ServeHTTP(w, req)
	}))
	t.Cleanup(worker.Close)
	r, err := New([]Backend{&HTTPBackend{ReplicaName: "w0", Client: serve.NewClient(worker.URL)}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	return front.URL, func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), bodies...)
	}
}

func postPredict(t *testing.T, url string, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// TestRouterForwardsBodyVerbatim: the router reads only the model and
// sample count, so the worker receives the client's bytes unchanged —
// whitespace, key order, escapes and number spellings included — and the
// reply answers every sample.
func TestRouterForwardsBodyVerbatim(t *testing.T) {
	url, received := httpTier(t)
	body := `{ "SAMPLES" : [ {"dense":[16.0,0,0,0,0,0,0,0]} ,` +
		` {"dense":[0E0,1,2,3,4,5,6,-0]} ], "model":"tenant-0", "extra":[null,{}] }`
	code, reply := postPredict(t, url, strings.NewReader(body))
	if code != http.StatusOK {
		t.Fatalf("http %d: %s", code, reply)
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Classes) != 2 || resp.Classes[0] != 2 || resp.Model != "tenant-0" {
		t.Fatalf("reply %+v", resp)
	}
	got := received()
	if len(got) != 1 || string(got[0]) != body {
		t.Fatalf("worker received %q, client sent %q", got, body)
	}
}

// TestRouterSyntaxAndSchemaErrors: malformed JSON is the router's own 400
// and never reaches a worker; a well-formed body with a schema error is
// forwarded and the worker's 400 relayed.
func TestRouterSyntaxAndSchemaErrors(t *testing.T) {
	url, received := httpTier(t)
	for _, body := range []string{`{"model":"tenant-0","dense":[01]}`, `{"dense":[1]} x`, ``} {
		if code, reply := postPredict(t, url, strings.NewReader(body)); code != http.StatusBadRequest {
			t.Fatalf("body %q: http %d: %s", body, code, reply)
		}
	}
	if n := len(received()); n != 0 {
		t.Fatalf("%d malformed bodies forwarded", n)
	}
	schema := `{"model":"tenant-0","dense":"not a vector"}`
	code, reply := postPredict(t, url, strings.NewReader(schema))
	if code != http.StatusBadRequest || !strings.Contains(string(reply), "cannot decode string") {
		t.Fatalf("schema error: http %d: %s", code, reply)
	}
	if n := len(received()); n != 1 {
		t.Fatalf("schema-error body forwarded %d times, want 1", n)
	}
}

// overCapBody streams a well-formed JSON object one byte past the serve
// default body cap, without holding it in memory.
func overCapBody() io.Reader {
	const head, tail = `{"x":"`, `"}`
	fill := serve.DefaultMaxBodyBytes + 1 - len(head) - len(tail)
	return io.MultiReader(strings.NewReader(head),
		io.LimitReader(repeatByte('a'), int64(fill)), strings.NewReader(tail))
}

type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestRouterBodyCap: a body past the worker's default cap gets the status
// a worker gives it, from the router, and is never forwarded.
func TestRouterBodyCap(t *testing.T) {
	url, received := httpTier(t)
	code, reply := postPredict(t, url, overCapBody())
	if code != http.StatusBadRequest || !strings.Contains(string(reply), "too large") {
		t.Fatalf("over-cap body: http %d: %s", code, reply)
	}
	if n := len(received()); n != 0 {
		t.Fatalf("over-cap body forwarded %d times", n)
	}
	s, err := serve.New(trainBlobs(t, 8, 3, 50), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close(context.Background()) }()
	worker := httptest.NewServer(s.Handler())
	defer worker.Close()
	if wcode, _ := postPredict(t, worker.URL, overCapBody()); wcode != code {
		t.Fatalf("router answered %d, a worker answers %d", code, wcode)
	}
}
