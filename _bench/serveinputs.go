package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"srda"
	"srda/internal/mat"
	"srda/internal/serve"
	"srda/internal/sparse"
)

// Serving shapes: tenant models over 800 dense features and 8 classes.
const (
	serveFeatures = 800
	serveClasses  = 8
	serveTenants  = 4
	tenantTrain   = 1600 // training samples per tenant model
	classSpread   = 0.15 // per-feature std of the class means (noise std is 1)
	sparseNNZ     = 50
	observeRows   = 4    // labeled samples per observe request
	poolSize      = 2048 // distinct predict requests, cycled through by the schedule
	tenantZipf    = 1.1
)

// classGen draws samples of one tenant's class-conditional Gaussians.
// The class means come from a fixed seed, like the fit workloads'
// corpora; the seed of a run draws the samples.
type classGen struct{ means [][]float64 }

func newClassGen(tenant int) *classGen {
	rng := rand.New(rand.NewSource(datasetSeed + int64(tenant)))
	g := &classGen{means: make([][]float64, serveClasses)}
	for k := range g.means {
		g.means[k] = make([]float64, serveFeatures)
		for j := range g.means[k] {
			g.means[k][j] = classSpread * rng.NormFloat64()
		}
	}
	return g
}

func (g *classGen) sample(rng *rand.Rand) ([]float64, int) {
	k := rng.Intn(serveClasses)
	x := make([]float64, serveFeatures)
	for j := range x {
		x[j] = g.means[k][j] + rng.NormFloat64()
	}
	return x, k
}

func (g *classGen) dataset(rng *rand.Rand, m int) (*mat.Dense, []int) {
	x := mat.NewDense(m, serveFeatures)
	labels := make([]int, m)
	for i := 0; i < m; i++ {
		row, k := g.sample(rng)
		copy(x.RowView(i), row)
		labels[i] = k
	}
	return x, labels
}

// predictReq is one pre-encoded predict request with what a correct
// reply must contain.
type predictReq struct {
	body   []byte
	tenant int
	shape  string // dense1, dense8 or sparse1
	rows   int
	labels []int // generating classes, for error_pct
	want   []int // classes the local copy of the tenant model predicts
	dense  *mat.Dense
	sparse *sparse.CSR
}

// servingSet is everything a serving workload sends and checks against.
type servingSet struct {
	names    []string
	models   []*srda.Model // as loaded back from the files the worker reads
	dir      string        // models directory (-models-dir) or model file (-model)
	pool     []*predictReq
	gens     []*classGen
	observes [][]byte   // serve-online: observe bodies in stream order
	stream   *mat.Dense // serve-online: every observed sample, in order
	labels   []int      // serve-online: their labels
	// serve-online: every dense row of the pool, probed against the
	// final served model after the window.
	probe       *mat.Dense
	probeLabels []int
	local       map[int]*srda.Model
}

// buildServing generates the tenant models, the predict pool and, for
// serve-online, the observe stream.  online selects one "default"
// tenant served with -model, as the streaming trainer requires.
func buildServing(cfg config, online bool, observeCount int) (*servingSet, error) {
	rng := rand.New(rand.NewSource(cfg.seed + 7))
	ss := &servingSet{local: map[int]*srda.Model{}}
	tenants := serveTenants
	if online {
		tenants = 1
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("models-%v-seed%d", online, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for t := 0; t < tenants; t++ {
		name := fmt.Sprintf("tenant%d", t)
		if online {
			name = serve.DefaultModelName
		}
		g := newClassGen(t)
		x, labels := g.dataset(rng, tenantTrain)
		m, err := srda.Fit(x, labels, serveClasses, srda.Options{Alpha: 1, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, name+".srda")
		if err := srda.SaveModelFile(m, path); err != nil {
			return nil, err
		}
		loaded, err := srda.LoadModelFile(path)
		if err != nil {
			return nil, err
		}
		ss.names = append(ss.names, name)
		ss.models = append(ss.models, loaded)
		ss.gens = append(ss.gens, g)
		ss.dir = dir
		if online {
			ss.dir = path
		}
	}
	zipf := make([]float64, tenants)
	var zsum float64
	for t := range zipf {
		zsum += 1 / math.Pow(float64(t+1), tenantZipf)
		zipf[t] = zsum
	}
	for i := 0; i < poolSize; i++ {
		u := rng.Float64() * zsum
		t := 0
		for zipf[t] < u {
			t++
		}
		r, err := ss.predictRequest(rng, t, online)
		if err != nil {
			return nil, err
		}
		ss.pool = append(ss.pool, r)
	}
	if online {
		var rows [][]float64
		for _, p := range ss.pool {
			for i := 0; p.dense != nil && i < p.rows; i++ {
				rows = append(rows, p.dense.RowView(i))
				ss.probeLabels = append(ss.probeLabels, p.labels[i])
			}
		}
		ss.probe = mat.FromRows(rows)
		m := observeCount * observeRows
		ss.stream, ss.labels = ss.gens[0].dataset(rng, m)
		for j := 0; j < observeCount; j++ {
			var req serve.ObserveRequest
			for i := j * observeRows; i < (j+1)*observeRows; i++ {
				req.Samples = append(req.Samples, serve.LabeledSample{
					Sample: serve.DenseSample(ss.stream.RowView(i)), Label: ss.labels[i]})
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			ss.observes = append(ss.observes, body)
		}
	}
	return ss, nil
}

// predictRequest draws one request of the mix: 70% single-row dense,
// 20% 8-row dense, 10% single-row sparse with about 50 nonzeros.
func (ss *servingSet) predictRequest(rng *rand.Rand, t int, online bool) (*predictReq, error) {
	r := &predictReq{tenant: t}
	req := serve.PredictRequest{}
	if !online {
		req.Model = ss.names[t]
	}
	u := rng.Float64()
	switch {
	case u < 0.7:
		r.shape, r.rows = "dense1", 1
	case u < 0.9:
		r.shape, r.rows = "dense8", 8
	default:
		r.shape, r.rows = "sparse1", 1
	}
	if r.shape == "sparse1" {
		x, k := ss.gens[t].sample(rng)
		b := srda.NewCSRBuilder(1, serveFeatures)
		feats := map[int]float64{}
		for _, j := range rng.Perm(serveFeatures)[:sparseNNZ] {
			b.Add(0, j, x[j])
			feats[j] = x[j]
		}
		r.sparse = b.Build()
		r.labels = []int{k}
		req.Samples = []serve.Sample{serve.SparseSample(feats)}
	} else {
		r.dense = mat.NewDense(r.rows, serveFeatures)
		for i := 0; i < r.rows; i++ {
			x, k := ss.gens[t].sample(rng)
			copy(r.dense.RowView(i), x)
			r.labels = append(r.labels, k)
			req.Samples = append(req.Samples, serve.DenseSample(r.dense.RowView(i)))
		}
	}
	var err error
	if r.body, err = json.Marshal(req); err != nil {
		return nil, err
	}
	r.want = r.predict(ss.models[t])
	return r, nil
}

// predict runs the request's rows through a local model.
func (r *predictReq) predict(m *srda.Model) []int {
	if r.sparse != nil {
		return m.PredictBatchCSR(r.sparse)
	}
	return m.PredictBatch(r.dense)
}

// versionModel returns the local model a served version of the online
// default model must equal: version 1 is the initial model, and version
// 1+k is srda.Fit(SolverPrimal) on the first k·refitSamples observed
// samples — the streaming↔batch contract.
func (ss *servingSet) versionModel(seq uint64, refitSamples int) (*srda.Model, error) {
	if seq == 1 {
		return ss.models[0], nil
	}
	k := int(seq) - 1
	if m, ok := ss.local[k]; ok {
		return m, nil
	}
	rows := k * refitSamples
	if seq < 1 || rows > ss.stream.Rows {
		return nil, fmt.Errorf("model_seq %d needs %d observed samples, the stream has %d", seq, rows, ss.stream.Rows)
	}
	x := ss.stream.Slice(0, rows, 0, serveFeatures).Clone()
	m, err := srda.Fit(x, ss.labels[:rows], serveClasses, srda.Options{
		Alpha: ss.models[0].Alpha, Solver: srda.SolverPrimal, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	ss.local[k] = m
	return m, nil
}
