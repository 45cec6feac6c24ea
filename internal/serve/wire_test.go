package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// wireBodies builds predict bodies of the benchmark's three request
// shapes over 800 features — one dense row, eight dense rows, one sparse
// row with 50 nonzeros — encoded the way the typed client encodes them.
func wireBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	const features, nnz = 800, 50
	rng := rand.New(rand.NewSource(1))
	dense := func() Sample {
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		return DenseSample(x)
	}
	sparse := map[int]float64{}
	for _, j := range rng.Perm(features)[:nnz] {
		sparse[j] = rng.NormFloat64()
	}
	reqs := map[string]*PredictRequest{
		"dense1":  {Model: "tenant-1", Samples: []Sample{dense()}},
		"dense8":  {Model: "tenant-2", Samples: []Sample{dense(), dense(), dense(), dense(), dense(), dense(), dense(), dense()}},
		"sparse1": {Model: "tenant-3", Samples: []Sample{SparseSample(sparse)}},
	}
	out := make(map[string][]byte, len(reqs))
	for name, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = body
	}
	return out
}

func BenchmarkDecodePredict(b *testing.B) {
	bodies := wireBodies(b)
	for _, shape := range []string{"dense1", "dense8", "sparse1"} {
		body := bodies[shape]
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := decodePredict(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouterSkim times the router's per-request parse of a dense1
// body: a syntax check that reads the model and sample count.
func BenchmarkRouterSkim(b *testing.B) {
	body := wireBodies(b)["dense1"]
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := SkimPredict(body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeLinearTime decodes 1 MiB bodies made of many short dense
// fields, top level and per sample, and requires the decoder to keep
// within a small multiple of json.Unmarshal's time on the same bytes.  A
// decoder that rescans the rest of the body at each field is quadratic
// and runs hundreds of times slower here.
func TestDecodeLinearTime(t *testing.T) {
	const size = 1 << 20
	repeat := func(head, unit, tail string) []byte {
		var b bytes.Buffer
		b.WriteString(head)
		for b.Len() < size {
			b.WriteString(unit)
			b.WriteByte(',')
		}
		b.Truncate(b.Len() - 1)
		b.WriteString(tail)
		return b.Bytes()
	}
	bodies := map[string][]byte{
		"top-level": repeat("{", `"dense":null`, `}`),
		"samples":   repeat(`{"samples":[`, `{"dense":null}`, `]}`),
		"observe":   repeat(`{"samples":[`, `{"dense":null,"label":1}`, `]}`),
	}
	for name, body := range bodies {
		timed := func(f func() error) time.Duration {
			begin := time.Now()
			if err := f(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return time.Since(begin)
		}
		ref := timed(func() error {
			if name == "observe" {
				return json.Unmarshal(body, new(ObserveRequest))
			}
			return json.Unmarshal(body, new(PredictRequest))
		})
		got := timed(func() error {
			if name == "observe" {
				_, err := decodeObserve(body)
				return err
			}
			_, err := decodePredict(body)
			return err
		})
		if got > 20*ref {
			t.Errorf("%s: decoding %d bytes took %v, json.Unmarshal %v", name, len(body), got, ref)
		}
	}
}

// TestReadBodyDeadlineClosesStalledClient: a client that sends its
// headers and part of its body and then stalls gets a 400 and its
// connection closed once the body read deadline passes, instead of
// holding the connection and a growing buffer indefinitely.
func TestReadBodyDeadlineClosesStalledClient(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := readBodyWithin(w, r, DefaultMaxBodyBytes, timeout); err != nil {
			writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/predict HTTP/1.1\r\nHost: srda\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"samples\":["); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	reply, err := io.ReadAll(conn) // returns once the server closes the connection
	if err != nil {
		t.Fatalf("connection still open %v after the client stalled: %v", time.Since(begin), err)
	}
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 400")) {
		t.Fatalf("stalled client got %q, want a 400", reply)
	}
}

// TestReadBodyClearsDeadline: once the body is complete the deadline no
// longer applies (net/http lifts it at EOF), so a handler that works past
// it keeps its request context.
func TestReadBodyClearsDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := readBodyWithin(w, r, DefaultMaxBodyBytes, timeout); err != nil {
			writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		select {
		case <-r.Context().Done():
			writeErr(w, http.StatusServiceUnavailable, "context ended: %v", r.Context().Err())
		case <-time.After(4 * timeout):
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer ts.Close()
	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(`{"samples":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}
