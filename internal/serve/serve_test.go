package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/sparse"
)

// trainBlobs fits a centroided model on well-separated Gaussian blobs and
// returns it with one held-out sample per class.
func trainBlobs(t *testing.T, n, c int, seed int64) (*core.Model, *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := 60 * c
	x := mat.NewDense(m, n)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = i % c
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += 8 * float64(labels[i])
	}
	model, err := core.FitDense(x, labels, c, core.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SetCentroids(model.TransformDense(x), labels); err != nil {
		t.Fatal(err)
	}
	probes := mat.NewDense(c, n)
	for k := 0; k < c; k++ {
		row := probes.RowView(k)
		for j := range row {
			row[j] = 0.1 * rng.NormFloat64()
		}
		row[0] += 8 * float64(k)
	}
	return model, probes
}

func newTestServer(t *testing.T, model *core.Model, opts Options) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := New(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts, NewClient(ts.URL)
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestNewRejectsBadModels(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
	model, _ := trainBlobs(t, 8, 3, 1)
	model.Centroids = nil
	if _, err := New(model, Options{}); err == nil {
		t.Fatal("centroid-less model accepted")
	}
}

func TestEndToEndPredict(t *testing.T) {
	model, probes := trainBlobs(t, 12, 4, 2)
	_, _, client := newTestServer(t, model, Options{})
	ctx := ctxT(t)

	// Dense, one sample per class.
	for k := 0; k < probes.Rows; k++ {
		got, err := client.PredictOne(ctx, DenseSample(probes.RowView(k)))
		if err != nil {
			t.Fatal(err)
		}
		if want := model.PredictVec(probes.RowView(k)); got != want {
			t.Fatalf("class %d: got %d, model says %d", k, got, want)
		}
	}

	// Multi-sample mixed dense + sparse in one request.
	sp := map[int]float64{}
	for j, v := range probes.RowView(1) {
		if v != 0 {
			sp[j] = v
		}
	}
	classes, embs, err := client.PredictEmbed(ctx, DenseSample(probes.RowView(0)), SparseSample(sp))
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 || len(embs) != 2 {
		t.Fatalf("got %d classes, %d embeddings", len(classes), len(embs))
	}
	if classes[0] != model.PredictVec(probes.RowView(0)) || classes[1] != model.PredictVec(probes.RowView(1)) {
		t.Fatalf("mixed batch misclassified: %v", classes)
	}
	wantEmb := model.TransformVec(probes.RowView(1), nil)
	for d := range wantEmb {
		if diff := embs[1][d] - wantEmb[d]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("embedding differs at dim %d: %g vs %g", d, embs[1][d], wantEmb[d])
		}
	}
}

func TestHealthz(t *testing.T) {
	model, _ := trainBlobs(t, 10, 3, 3)
	_, _, client := newTestServer(t, model, Options{})
	h, err := client.Health(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Features != 10 || h.Classes != 3 || h.Dim != 2 || h.ModelSeq != 1 {
		t.Fatalf("unexpected health: %+v", h)
	}
}

func TestBadRequests(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 4)
	_, ts, _ := newTestServer(t, model, Options{MaxRequestSamples: 2})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"trailing data", `{"sparse":{"0":1}} {}`, http.StatusBadRequest},
		{"out of float64 range", `{"sparse":{"0":1e400}}`, http.StatusBadRequest},
		{"wrong field type", `{"sparse":{"0":1},"embed":"yes"}`, http.StatusBadRequest},
		{"no samples", "{}", http.StatusBadRequest},
		{"wrong dense width", `{"dense":[1,2,3]}`, http.StatusBadRequest},
		{"sparse index out of range", `{"sparse":{"99":1}}`, http.StatusBadRequest},
		{"negative sparse index", `{"sparse":{"-1":1}}`, http.StatusBadRequest},
		{"both dense and sparse", `{"samples":[{"dense":[1,1,1,1,1,1,1,1,1,1],"sparse":{"0":1}}]}`, http.StatusBadRequest},
		{"too many samples", `{"samples":[{"sparse":{"0":1}},{"sparse":{"0":1}},{"sparse":{"0":1}}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Errorf("%s: got http %d, want %d", tc.name, got, tc.want)
		}
	}
	// An empty body is a JSON syntax error, as on /v1/observe.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unexpected end of JSON input") {
		t.Errorf("empty body: http %d %s", resp.StatusCode, msg)
	}
	// Shorthand single-sample form works.
	body, err := json.Marshal(map[string]any{"dense": probes.RowView(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := post(string(body)); got != http.StatusOK {
		t.Fatalf("shorthand form: http %d", got)
	}
	// Wrong methods.
	resp, err = http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: http %d", resp.StatusCode)
	}
}

// newHeldServer builds a server whose inference workers are held (not
// started) until the test calls startWorkers, so requests queued before
// that see every worker busy.
func newHeldServer(t *testing.T, model *core.Model, opts Options) *Server {
	t.Helper()
	s, err := newServer(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// enqueueReq validates req and puts it on the queue as a handler would.
func enqueueReq(t *testing.T, s *Server, req *PredictRequest) (*pending, error) {
	t.Helper()
	p, err := s.buildPending(req)
	if err != nil {
		t.Fatal(err)
	}
	return p, s.enqueue(p)
}

// await waits for a queued request to be answered.
func await(t *testing.T, p *pending) {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		t.Fatal("request never answered")
	}
	if p.err != nil {
		t.Fatal(p.err)
	}
}

// TestMicroBatchCoalescing pins the work-conserving trigger: requests
// that queue while every worker is busy share one batch when a worker
// frees up.  The single worker is held until four one-row requests are
// queued; released, it must answer all four in exactly one batch.
func TestMicroBatchCoalescing(t *testing.T) {
	model, probes := trainBlobs(t, 10, 4, 5)
	s := newHeldServer(t, model, Options{MaxBatch: 4, Workers: 1})
	ps := make([]*pending, 4)
	for k := range ps {
		var err error
		if ps[k], err = enqueueReq(t, s, &PredictRequest{Sample: DenseSample(probes.RowView(k))}); err != nil {
			t.Fatal(err)
		}
	}
	s.startWorkers()
	for k, p := range ps {
		await(t, p)
		if want := model.PredictVec(probes.RowView(k)); p.classes[0] != want {
			t.Fatalf("request %d: got class %d, want %d", k, p.classes[0], want)
		}
	}
	if b := s.metrics.batches.Value(); b != 1 {
		t.Fatalf("expected exactly 1 inference batch, dispatcher ran %d", b)
	}
	if n := s.metrics.samples.Value(); n != 4 {
		t.Fatalf("expected 4 samples predicted, got %d", n)
	}
}

// TestWholeRequestOneSendOneBatch pins request granularity: an 8-row
// request is one queue entry (counted as 8 queued samples) and runs as
// one inference batch.
func TestWholeRequestOneSendOneBatch(t *testing.T) {
	model, _ := trainBlobs(t, 10, 4, 15)
	s := newHeldServer(t, model, Options{Workers: 1})
	x := blobRows(8, 10, 16)
	req := &PredictRequest{}
	for i := 0; i < x.Rows; i++ {
		req.Samples = append(req.Samples, DenseSample(x.RowView(i)))
	}
	p, err := enqueueReq(t, s, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.queue) != 1 || s.queued.Load() != 8 || s.HealthSnapshot().QueueDepth != 8 {
		t.Fatalf("queue holds %d entries, %d samples; want 1 entry, 8 samples", len(s.queue), s.queued.Load())
	}
	s.startWorkers()
	await(t, p)
	if b, n := s.metrics.batches.Value(), s.metrics.samples.Value(); b != 1 || n != 8 {
		t.Fatalf("ran %d batches of %d samples in total, want 1 batch of 8", b, n)
	}
	for i, want := range model.PredictBatch(x) {
		if p.classes[i] != want {
			t.Fatalf("row %d: got class %d, want %d", i, p.classes[i], want)
		}
	}
}

// blobRows draws r seeded rows of n features spread over the blobs
// trainBlobs fits, with about a third of the entries exactly zero so the
// rows also exercise the sparse path.
func blobRows(r, n int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(r, n)
	for i := 0; i < r; i++ {
		row := x.RowView(i)
		for j := range row {
			if rng.Intn(3) > 0 {
				row[j] = rng.NormFloat64()
			}
		}
		row[0] = 8*float64(i%4) + 0.1*rng.NormFloat64()
	}
	return x
}

// TestOversizedRequestMatchesPredictBatch sends a request with more rows
// than MaxBatch, dense and sparse, and requires the classes and
// embeddings to equal Model.PredictBatch / ProjectBatch (and their CSR
// forms) bit for bit, although the rows run in several kernel batches.
func TestOversizedRequestMatchesPredictBatch(t *testing.T) {
	model, _ := trainBlobs(t, 10, 4, 17)
	s, _, _ := newTestServer(t, model, Options{MaxBatch: 4, Workers: 2})
	x := blobRows(10, 10, 18)
	b := sparse.NewBuilder(x.Rows, x.Cols)
	dense := &PredictRequest{Embed: true}
	sparseReq := &PredictRequest{Embed: true}
	for i := 0; i < x.Rows; i++ {
		dense.Samples = append(dense.Samples, DenseSample(x.RowView(i)))
		sp := map[int]float64{}
		for j, v := range x.RowView(i) {
			if v != 0 {
				sp[j] = v
				b.Add(i, j, v)
			}
		}
		sparseReq.Samples = append(sparseReq.Samples, SparseSample(sp))
	}
	csr := b.Build()
	cases := []struct {
		name      string
		req       *PredictRequest
		classes   []int
		embedding *mat.Dense
	}{
		{"dense", dense, model.PredictBatch(x), model.ProjectBatch(x, nil)},
		{"sparse", sparseReq, model.PredictBatchCSR(csr), model.ProjectBatchCSR(csr, nil)},
	}
	for _, tc := range cases {
		before := s.metrics.batches.Value()
		resp, err := s.Predict(ctxT(t), tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := s.metrics.batches.Value() - before; got != 3 {
			t.Errorf("%s: 10 rows at MaxBatch 4 ran in %d batches, want 3", tc.name, got)
		}
		for i := range tc.classes {
			if resp.Classes[i] != tc.classes[i] {
				t.Fatalf("%s row %d: class %d, PredictBatch says %d", tc.name, i, resp.Classes[i], tc.classes[i])
			}
			for d, want := range tc.embedding.RowView(i) {
				if math.Float64bits(resp.Embeddings[i][d]) != math.Float64bits(want) {
					t.Fatalf("%s row %d dim %d: embedding %v, ProjectBatch says %v", tc.name, i, d, resp.Embeddings[i][d], want)
				}
			}
		}
	}
}

// TestCloseWhileWorkersBusy closes the server while its workers drain a
// queue filled before they started, with more requests racing Close.
// Every request queued before Close must be answered; a racing request
// is answered or fails with ErrShuttingDown; Close returns only once
// every worker has exited, and no caller is left waiting.
func TestCloseWhileWorkersBusy(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 14)
	s := newHeldServer(t, model, Options{Workers: 2, MaxBatch: 2})
	queued := make([]*pending, 16)
	for i := range queued {
		var err error
		if queued[i], err = enqueueReq(t, s, &PredictRequest{Sample: DenseSample(probes.RowView(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := ctxT(t)
	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	got := make([]int, racers)
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := s.Predict(ctx, &PredictRequest{Sample: DenseSample(probes.RowView(g % 3))})
			if err == nil {
				got[g] = resp.Classes[0]
			}
			errs[g] = err
		}(g)
	}
	s.startWorkers()
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(cctx); err != nil {
		t.Fatal(err)
	}
	for i, p := range queued {
		select {
		case <-p.done:
		default:
			t.Fatalf("request %d was queued before Close but never answered", i)
		}
		if p.err != nil {
			t.Fatalf("request %d: %v", i, p.err)
		}
		if want := model.PredictVec(probes.RowView(i % 3)); p.classes[0] != want {
			t.Fatalf("request %d: got class %d, want %d", i, p.classes[0], want)
		}
	}
	wg.Wait()
	for g, err := range errs {
		switch {
		case err == nil:
			if want := model.PredictVec(probes.RowView(g % 3)); got[g] != want {
				t.Errorf("racer %d: got class %d, want %d", g, got[g], want)
			}
		case !errors.Is(err, ErrShuttingDown):
			t.Errorf("racer %d: %v, want an answer or ErrShuttingDown", g, err)
		}
	}
}

func TestHotReloadSwapAndWatch(t *testing.T) {
	modelA, probes := trainBlobs(t, 10, 3, 6)
	// Model B: same shapes, but classes relabeled so predictions flip.
	rng := rand.New(rand.NewSource(7))
	m := 180
	x := mat.NewDense(m, 10)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		labels[i] = (i%3 + 1) % 3 // rotated labels relative to blob position
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += 8 * float64(i%3)
	}
	modelB, err := core.FitDense(x, labels, 3, core.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := modelB.SetCentroids(modelB.TransformDense(x), labels); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "model.bin")
	if err := modelA.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s, _, client := newTestServer(t, modelA, Options{})
	ctx := ctxT(t)

	if _, err := s.Swap(nil); err == nil {
		t.Fatal("Swap(nil) accepted")
	}

	// Direct swap.
	seq, err := s.Swap(modelB)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || s.ModelSeq() != 2 {
		t.Fatalf("seq after swap = %d", seq)
	}
	if got, _ := client.PredictOne(ctx, DenseSample(probes.RowView(0))); got != modelB.PredictVec(probes.RowView(0)) {
		t.Fatal("predictions not served from swapped model")
	}

	// File watch: overwrite the model file, expect an automatic reload.
	stopWatch := s.WatchFile(path, 5*time.Millisecond)
	defer stopWatch()
	time.Sleep(20 * time.Millisecond) // ensure a fresh mtime on coarse filesystems
	if err := modelA.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := client.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.ModelSeq >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never reloaded the rewritten model file")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, _ := client.PredictOne(ctx, DenseSample(probes.RowView(1))); got != modelA.PredictVec(probes.RowView(1)) {
		t.Fatal("predictions not served from watched-in model")
	}
	if s.metrics.reloads.Value() < 2 {
		t.Fatalf("reloads counter = %d", s.metrics.reloads.Value())
	}
}

func TestReloadFromFileErrors(t *testing.T) {
	model, _ := trainBlobs(t, 10, 3, 8)
	s, _, _ := newTestServer(t, model, Options{})
	if _, err := s.ReloadFromFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("reload from missing file succeeded")
	}
	if s.metrics.reloadErrors.Value() != 1 {
		t.Fatalf("reloadErrors = %d", s.metrics.reloadErrors.Value())
	}
	if s.ModelSeq() != 1 {
		t.Fatal("failed reload bumped the model seq")
	}
}

// TestQueueFullRejects pins request-granular admission: a request whose
// rows do not all fit in the queue is rejected whole — a 503, every one
// of its samples counted in queue_rejects, nothing of it queued — never
// split into a head that runs and a tail that fails.  The workers are
// held, so the queue state is deterministic.
func TestQueueFullRejects(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 13)
	s := newHeldServer(t, model, Options{QueueDepth: 2})
	one := &PredictRequest{Sample: DenseSample(probes.RowView(0))}
	if _, err := enqueueReq(t, s, one); err != nil {
		t.Fatal(err)
	}
	two := &PredictRequest{Samples: []Sample{DenseSample(probes.RowView(1)), DenseSample(probes.RowView(2))}}
	if _, err := enqueueReq(t, s, two); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	body, err := json.Marshal(two)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(body))))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("http %d (Retry-After %q), want a retryable 503", rec.Code, rec.Header().Get("Retry-After"))
	}
	if got := s.metrics.queueRejects.Value(); got != 4 {
		t.Fatalf("queueRejects = %d, want 4 (both samples of both rejected requests)", got)
	}
	if len(s.queue) != 1 || s.queued.Load() != 1 {
		t.Fatalf("queue holds %d entries, %d samples; want only the first request", len(s.queue), s.queued.Load())
	}
	// The rejected request took nothing with it: a request that fits
	// still gets in.
	if _, err := enqueueReq(t, s, one); err != nil {
		t.Fatalf("fitting request after a reject: %v", err)
	}
}

// TestModelShapeConflict exercises the mid-flight reload guard: a
// request validated against one model must fail cleanly if a swapped
// model has a different feature count by the time its batch runs.
func TestModelShapeConflict(t *testing.T) {
	modelA, _ := trainBlobs(t, 10, 3, 9)
	s, _, _ := newTestServer(t, modelA, Options{})
	modelB, _ := trainBlobs(t, 6, 3, 10) // different feature count
	if _, err := s.Swap(modelB); err != nil {
		t.Fatal(err)
	}
	p := &pending{model: DefaultModelName, rows: []row{{dense: make([]float64, 10)}}, classes: make([]int, 1)}
	s.runBatch(new(worker), []*pending{p})
	if !errors.Is(p.err, ErrModelShape) {
		t.Fatalf("err = %v, want ErrModelShape", p.err)
	}
}

func TestMetricsExposition(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 11)
	_, _, client := newTestServer(t, model, Options{})
	ctx := ctxT(t)
	if _, err := client.Predict(ctx, DenseSample(probes.RowView(0)), DenseSample(probes.RowView(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`srdaserve_requests_total{endpoint="/v1/predict",code="200"} 1`,
		`srdaserve_requests_total{endpoint="/healthz",code="200"} 1`,
		`srdaserve_samples_total 2`,
		`srdaserve_batches_total`,
		`srdaserve_batch_size_bucket{le="2"}`,
		`srdaserve_request_duration_seconds_count 1`,
		`srdaserve_model_seq 1`,
		`srdaserve_queue_depth 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, text)
		}
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	model, probes := trainBlobs(t, 10, 3, 12)
	s, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := ctxT(t)
	if _, err := client.PredictOne(ctx, DenseSample(probes.RowView(0))); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(cctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(cctx); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if _, err := client.PredictOne(ctx, DenseSample(probes.RowView(0))); err == nil {
		t.Fatal("predict after Close succeeded")
	}
}
