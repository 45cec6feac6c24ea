package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"srda/internal/decomp"
	"srda/internal/graph"
	"srda/internal/mat"
	"srda/internal/regress"
	"srda/internal/solver"
	"srda/internal/sparse"
)

// graphClassHelper builds a class graph (indirection keeps the import in
// one place for tests that only sometimes need it).
func graphClassHelper(labels []int, c int) (*graph.Graph, error) {
	return graph.ClassGraph(labels, c)
}

func randLabels(rng *rand.Rand, m, c int) []int {
	labels := make([]int, m)
	for i := range labels {
		labels[i] = i % c // every class populated
	}
	rng.Shuffle(m, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	return labels
}

// gaussianBlobs places class k at mean (k*sep, 0, ..., 0) with unit noise.
func gaussianBlobs(rng *rand.Rand, m, n, c int, sep float64) (*mat.Dense, []int) {
	x := mat.NewDense(m, n)
	labels := randLabels(rng, m, c)
	for i := 0; i < m; i++ {
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[0] += sep * float64(labels[i])
		if n > 1 {
			row[1] -= sep * float64(labels[i]*labels[i]) * 0.3
		}
	}
	return x, labels
}

func TestClassStatsValidation(t *testing.T) {
	if _, err := classStats([]int{0, 1}, 1); err == nil {
		t.Fatal("single class accepted")
	}
	if _, err := classStats([]int{0, 2}, 2); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := classStats([]int{0, 0}, 2); err == nil {
		t.Fatal("empty class accepted")
	}
	counts, err := classStats([]int{0, 1, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("counts=%v", counts)
	}
}

func TestResponsesCountAndOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ m, c int }{{10, 2}, {30, 3}, {100, 7}, {68, 68 / 2}} {
		labels := randLabels(rng, tc.m, tc.c)
		rt, err := GenerateResponses(labels, tc.c)
		if err != nil {
			t.Fatalf("m=%d c=%d: %v", tc.m, tc.c, err)
		}
		if rt.NumResponses() != tc.c-1 {
			t.Fatalf("got %d responses want %d", rt.NumResponses(), tc.c-1)
		}
		y := rt.Materialize(labels)
		// columns orthonormal and orthogonal to the ones vector (eq. 16)
		g := mat.MulTA(y, y)
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(g.At(i, j)-want) > 1e-9 {
					t.Fatalf("yᵀy[%d][%d]=%v", i, j, g.At(i, j))
				}
			}
		}
		for j := 0; j < y.Cols; j++ {
			var s float64
			for i := 0; i < y.Rows; i++ {
				s += y.At(i, j)
			}
			if math.Abs(s) > 1e-9 {
				t.Fatalf("response %d not centered: sum=%v", j, s)
			}
		}
	}
}

func TestResponsesMatchNaiveGramSchmidt(t *testing.T) {
	// The O(c³) weighted Gram–Schmidt must agree (up to sign) with running
	// plain Gram–Schmidt on the materialized m×(c+1) candidate matrix.
	rng := rand.New(rand.NewSource(2))
	m, c := 40, 5
	labels := randLabels(rng, m, c)
	rt, err := GenerateResponses(labels, c)
	if err != nil {
		t.Fatal(err)
	}
	got := rt.Materialize(labels)

	naive := mat.NewDense(m, c+1)
	for i := 0; i < m; i++ {
		naive.Set(i, 0, 1)
		naive.Set(i, labels[i]+1, 1)
	}
	kept := decomp.GramSchmidt(naive, 1e-8)
	if kept != c {
		t.Fatalf("naive GS kept %d", kept)
	}
	// collect nonzero columns after the first
	var cols [][]float64
	for j := 1; j < c+1; j++ {
		col := naive.ColCopy(j, nil)
		var nrm float64
		for _, v := range col {
			nrm += v * v
		}
		if nrm > 0.5 {
			cols = append(cols, col)
		}
	}
	if len(cols) != c-1 {
		t.Fatalf("naive GS produced %d responses", len(cols))
	}
	for j := 0; j < c-1; j++ {
		var dotPlus, dotMinus float64
		for i := 0; i < m; i++ {
			dotPlus += math.Abs(got.At(i, j) - cols[j][i])
			dotMinus += math.Abs(got.At(i, j) + cols[j][i])
		}
		if math.Min(dotPlus, dotMinus) > 1e-8 {
			t.Fatalf("response %d disagrees with naive GS (%.3g / %.3g)", j, dotPlus, dotMinus)
		}
	}
}

func TestResponsesConstantWithinClass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := randLabels(rng, 60, 4)
	rt, err := GenerateResponses(labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	y := rt.Materialize(labels)
	for i := 1; i < len(labels); i++ {
		for p := 0; p < i; p++ {
			if labels[i] != labels[p] {
				continue
			}
			for j := 0; j < y.Cols; j++ {
				if y.At(i, j) != y.At(p, j) {
					t.Fatal("same-class samples got different responses")
				}
			}
		}
	}
}

func TestFitDenseSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, labels := gaussianBlobs(rng, 150, 10, 3, 8)
	model, err := FitDense(x, labels, 3, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if model.Dim() != 2 {
		t.Fatalf("Dim=%d want 2", model.Dim())
	}
	emb := model.TransformDense(x)
	// nearest-centroid in embedded space must classify training data well
	cent := mat.NewDense(3, 2)
	counts := make([]float64, 3)
	for i, lab := range labels {
		counts[lab]++
		for j := 0; j < 2; j++ {
			cent.Set(lab, j, cent.At(lab, j)+emb.At(i, j))
		}
	}
	for k := 0; k < 3; k++ {
		for j := 0; j < 2; j++ {
			cent.Set(k, j, cent.At(k, j)/counts[k])
		}
	}
	errors := 0
	for i, lab := range labels {
		best, bestD := -1, math.Inf(1)
		for k := 0; k < 3; k++ {
			var d float64
			for j := 0; j < 2; j++ {
				diff := emb.At(i, j) - cent.At(k, j)
				d += diff * diff
			}
			if d < bestD {
				best, bestD = k, d
			}
		}
		if best != lab {
			errors++
		}
	}
	if frac := float64(errors) / float64(len(labels)); frac > 0.05 {
		t.Fatalf("training error %.2f too high for well-separated blobs", frac)
	}
}

func TestCorollary3SameClassCollapses(t *testing.T) {
	// n > m with independent samples: as α→0 all samples of one class map
	// to (nearly) the same point in the SRDA subspace (paper, discussion
	// after Corollary 3).
	rng := rand.New(rand.NewSource(5))
	m, n, c := 20, 50, 4
	x := mat.NewDense(m, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := randLabels(rng, m, c)
	model, err := FitDense(x, labels, c, Options{Alpha: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	emb := model.TransformDense(x)
	for i := 1; i < m; i++ {
		for p := 0; p < i; p++ {
			if labels[i] != labels[p] {
				continue
			}
			for j := 0; j < emb.Cols; j++ {
				if math.Abs(emb.At(i, j)-emb.At(p, j)) > 1e-5 {
					t.Fatalf("same-class samples %d,%d differ at dim %d: %v vs %v",
						p, i, j, emb.At(p, j), emb.At(i, j))
				}
			}
		}
	}
	// and different classes must not collapse together
	var minGap = math.Inf(1)
	for i := 1; i < m; i++ {
		for p := 0; p < i; p++ {
			if labels[i] == labels[p] {
				continue
			}
			var d float64
			for j := 0; j < emb.Cols; j++ {
				diff := emb.At(i, j) - emb.At(p, j)
				d += diff * diff
			}
			minGap = math.Min(minGap, math.Sqrt(d))
		}
	}
	if minGap < 1e-3 {
		t.Fatalf("distinct classes collapsed: gap=%v", minGap)
	}
}

func TestFitSparseMatchesFitDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, n, c := 80, 40, 3
	d := mat.NewDense(m, n)
	b := sparse.NewBuilder(m, n)
	labels := randLabels(rng, m, c)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.2 {
				v := rng.NormFloat64() + float64(labels[i])
				d.Set(i, j, v)
				b.Add(i, j, v)
			}
		}
	}
	s := b.Build()
	opt := Options{Alpha: 0.5, LSQRIter: 500}
	md, err := FitDense(d, labels, c, Options{Alpha: 0.5, Strategy: regress.IterLSQR, LSQRIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := FitSparse(s, labels, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(md.W, ms.W); diff > 1e-6 {
		t.Fatalf("sparse vs dense W differ by %v", diff)
	}
	// primal closed form agrees too
	mp, err := FitDense(d, labels, c, Options{Alpha: 0.5, Strategy: regress.Primal})
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(mp.W, ms.W); diff > 1e-4 {
		t.Fatalf("primal vs lsqr W differ by %v", diff)
	}
}

func TestTransformSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n, c := 50, 30, 3
	x, labels := gaussianBlobs(rng, m, n, c, 4)
	model, err := FitDense(x, labels, c, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs := sparse.FromDense(x, 0)
	e1 := model.TransformDense(x)
	e2 := model.TransformSparse(xs)
	if diff := mat.MaxAbsDiff(e1, e2); diff > 1e-9 {
		t.Fatalf("transforms differ by %v", diff)
	}
	// single-vector path
	for i := 0; i < 5; i++ {
		v := model.TransformVec(x.RowView(i), nil)
		for j := range v {
			if math.Abs(v[j]-e1.At(i, j)) > 1e-10 {
				t.Fatalf("TransformVec differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, labels := gaussianBlobs(rng, 60, 12, 3, 5)
	model, err := FitDense(x, labels, 3, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(loaded.W, model.W, 0) {
		t.Fatal("W not preserved")
	}
	if loaded.NumClasses != 3 || loaded.Alpha != 1 {
		t.Fatal("metadata not preserved")
	}
	e1 := model.TransformDense(x)
	e2 := loaded.TransformDense(x)
	if !mat.Equalish(e1, e2, 0) {
		t.Fatal("loaded model transforms differently")
	}
}

func TestLoadRejectsCorruptStream(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("corrupt stream accepted")
	}
}

func TestFitValidatesInput(t *testing.T) {
	x := mat.NewDense(4, 2)
	if _, err := FitDense(x, []int{0, 1}, 2, Options{}); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, err := FitDense(x, []int{0, 1, 0, 5}, 2, Options{}); err == nil {
		t.Fatal("bad label accepted")
	}
}

func TestResponsesPropertyAnyLabeling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 2 + rng.Intn(8)
		m := c + rng.Intn(60)
		labels := randLabels(rng, m, c)
		rt, err := GenerateResponses(labels, c)
		if err != nil {
			return false
		}
		y := rt.Materialize(labels)
		g := mat.MulTA(y, y)
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(g.At(i, j)-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAlphaShrinksEmbeddingScale(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, labels := gaussianBlobs(rng, 90, 15, 3, 5)
	var prev = math.Inf(1)
	for _, alpha := range []float64{0.01, 1, 100} {
		model, err := FitDense(x, labels, 3, Options{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		nrm := model.W.Norm()
		if nrm > prev+1e-12 {
			t.Fatalf("‖W‖ did not shrink with alpha: %v then %v", prev, nrm)
		}
		prev = nrm
	}
}

// toSparse converts a dense matrix to CSR for cross-path tests.
func toSparse(x *mat.Dense) *sparse.CSR {
	return sparse.FromDense(x, 0)
}

func TestSetCentroidsAndPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	x, labels := gaussianBlobs(rng, 90, 8, 3, 8)
	model, err := FitDense(x, labels, 3, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SetCentroids(model.TransformDense(x), labels); err != nil {
		t.Fatal(err)
	}
	if model.Centroids.Rows != 3 || model.Centroids.Cols != 2 {
		t.Fatalf("centroids %dx%d", model.Centroids.Rows, model.Centroids.Cols)
	}
	pred := model.PredictDense(x)
	if e := float64(countWrong(pred, labels)) / float64(len(labels)); e > 0.05 {
		t.Fatalf("training error %v", e)
	}
	if got := model.PredictVec(x.RowView(0)); got != pred[0] {
		t.Fatal("PredictVec disagrees with PredictDense")
	}
	xs := toSparse(x)
	sp := model.PredictSparse(xs)
	for i := range pred {
		if sp[i] != pred[i] {
			t.Fatal("PredictSparse disagrees with PredictDense")
		}
	}
	// validation
	if err := model.SetCentroids(model.TransformDense(x), labels[:4]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := model.SetCentroids(mat.NewDense(90, 1), labels); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func countWrong(pred, truth []int) int {
	n := 0
	for i := range pred {
		if pred[i] != truth[i] {
			n++
		}
	}
	return n
}

func TestPredictPanicsWithoutCentroids(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x, labels := gaussianBlobs(rng, 30, 5, 2, 5)
	// The LSQR path returns a centroid-less model (the primal path now
	// carries stats-based centroids by construction).
	model, err := FitDense(x, labels, 2, Options{Alpha: 1, Strategy: regress.IterLSQR, LSQRIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	model.PredictVec(x.RowView(0))
}

func TestFitSROperatorMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	x, labels := gaussianBlobs(rng, 60, 10, 3, 6)
	g, err := graphClassHelper(labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	op, err := FitSROperator(solver.DenseOp{A: x}, g, SROptions{Dim: 2, Alpha: 0.5, Seed: 3, LSQRIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	dn, err := FitSRDense(x, g, SROptions{Dim: 2, Alpha: 0.5, Seed: 3, Strategy: regress.IterLSQR, LSQRIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(op.W, dn.W); d > 1e-8 {
		t.Fatalf("operator SR differs from dense SR by %v", d)
	}
}

// TestLoadRejectsMalformedModels feeds Load gob streams no Fit could
// write.  The first is the 5×0 three-class model with no centroids that
// used to load cleanly and then panic in PredictBatch.
func TestLoadRejectsMalformedModels(t *testing.T) {
	ok := func() modelWire {
		return modelWire{
			Rows: 3, Cols: 2, W: []float64{1, 2, 3, 4, 5, 6}, B: []float64{0, 1},
			NumClasses: 3, Alpha: 1, Centroids: []float64{1, 2, 3, 4, 5, 6},
		}
	}
	cases := map[string]func(*modelWire){
		"zero cols":          func(w *modelWire) { *w = modelWire{Rows: 5, Cols: 0, NumClasses: 3} },
		"zero rows":          func(w *modelWire) { w.Rows, w.W = 0, nil },
		"one class":          func(w *modelWire) { w.NumClasses, w.Centroids = 1, w.Centroids[:2] },
		"NaN weight":         func(w *modelWire) { w.W[4] = math.NaN() },
		"infinite bias":      func(w *modelWire) { w.B[1] = math.Inf(-1) },
		"infinite centroid":  func(w *modelWire) { w.Centroids[0] = math.Inf(1) },
		"centroid shape":     func(w *modelWire) { w.Centroids = w.Centroids[:4] },
		"weights shape":      func(w *modelWire) { w.W = w.W[:5] },
		"overflowing header": func(w *modelWire) { w.Rows, w.Cols, w.W, w.B = 1<<32, 1<<32, nil, nil },
	}
	load := func(w modelWire) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		return err
	}
	if err := load(ok()); err != nil {
		t.Fatalf("well-formed model rejected: %v", err)
	}
	for name, corrupt := range cases {
		w := ok()
		corrupt(&w)
		if err := load(w); err == nil {
			t.Errorf("%s: Load accepted the model", name)
		}
	}
}
