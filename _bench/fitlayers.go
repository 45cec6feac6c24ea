package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"srda"
	"srda/internal/blas"
	"srda/internal/core"
	"srda/internal/decomp"
	"srda/internal/mat"
	"srda/internal/regress"
	"srda/internal/solver"
	"srda/internal/sparse"
)

// timedOp wraps the CSR operator core.FitSparse builds and times every
// product from outside the solver.  LSQR runs one solve per response on
// the worker pool, so products overlap: busy time sums over calls, and
// covered time is the wall time during which at least one ran.
type timedOp struct {
	inner       solver.SparseOp
	applyNs     atomic.Int64
	applyTNs    atomic.Int64
	calls       atomic.Int64
	mu          sync.Mutex
	active      int
	activeSince time.Time
	covered     time.Duration
}

func (o *timedOp) Dims() (int, int) { return o.inner.Dims() }

func (o *timedOp) enter() time.Time {
	now := time.Now()
	o.mu.Lock()
	if o.active == 0 {
		o.activeSince = now
	}
	o.active++
	o.mu.Unlock()
	return now
}

func (o *timedOp) leave(start time.Time) int64 {
	now := time.Now()
	o.mu.Lock()
	o.active--
	if o.active == 0 {
		o.covered += now.Sub(o.activeSince)
	}
	o.mu.Unlock()
	o.calls.Add(1)
	return int64(now.Sub(start))
}

func (o *timedOp) Apply(x, dst []float64) []float64 {
	t := o.enter()
	dst = o.inner.Apply(x, dst)
	o.applyNs.Add(o.leave(t))
	return dst
}

func (o *timedOp) ApplyT(x, dst []float64) []float64 {
	t := o.enter()
	dst = o.inner.ApplyT(x, dst)
	o.applyTNs.Add(o.leave(t))
	return dst
}

// csrBytes is the data one CSR product touches, computed from its
// shape: values and column indices once each, the row pointers, the
// input vector and the output vector.
func csrBytes(a *sparse.CSR) float64 {
	return float64(a.NNZ()*16 + (a.Rows+1)*8 + (a.Rows+a.Cols)*8)
}

// layerTimes holds one replay's measurements, keyed by metric name.
type layerTimes map[string]float64

// medianLayers reduces several replays to per-metric medians.
func medianLayers(runs []layerTimes) layerTimes {
	out := layerTimes{}
	for k := range runs[0] {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r[k])
		}
		out[k] = median(xs)
	}
	return out
}

// replayText repeats fit-text's FitCSR call layer by layer, the steps
// core.FitSparse takes: the responses, regress.FitOperator over the
// timed CSR operator (the intercept augmentation and one LSQR solve per
// response), the model and the centroids.  The model must equal ref bit
// for bit.
func replayText(fs *fitSet, ref *srda.Model, fitMs float64, rep *report) layerTimes {
	x, labels, opt := fs.train.Sparse, fs.train.Labels, fs.opt
	runtime.GC()
	start := time.Now()
	rt, err := core.GenerateResponses(labels, fs.classes)
	if !rep.check(err == nil, "responses: %v", err) {
		return nil
	}
	y := rt.Materialize(labels)
	resp := time.Since(start)

	op := &timedOp{inner: solver.SparseOp{A: x, Workers: opt.Workers}}
	t := time.Now()
	rm, err := regress.FitOperator(op, y, regress.Options{Alpha: opt.Alpha, Intercept: true, LSQRIter: opt.LSQRIter, Workers: opt.Workers})
	if !rep.check(err == nil, "replayed fit: %v", err) {
		return nil
	}
	lsqr := time.Since(t)
	m := &core.Model{W: rm.W, B: rm.B, NumClasses: fs.classes, Alpha: opt.Alpha, Iters: rm.Iters,
		Strategy: rm.Strategy, Workers: opt.Workers, Stats: rm.Stats}
	t = time.Now()
	err = m.SetCentroids(m.TransformSparse(x), labels)
	cent := time.Since(t)
	wall := time.Since(start)
	rep.check(err == nil && sameModel(m, ref), "fit-text replay model is not bitwise FitCSR's")

	apply, applyT := time.Duration(op.applyNs.Load()), time.Duration(op.applyTNs.Load())
	accounted := resp + lsqr + cent
	return layerTimes{
		"core.responses_ms.fit-text":     ms(resp),
		"sparse.apply_ms":                ms(apply),
		"sparse.applyT_ms":               ms(applyT),
		"sparse.calls":                   float64(op.calls.Load()),
		"sparse.gbps_computed":           float64(op.calls.Load()) * csrBytes(x) / (apply + applyT).Seconds() / 1e9,
		"solver.lsqr_iters":              float64(m.Stats.Iters),
		"solver.lsqr_self_ms":            ms(lsqr - op.covered),
		"core.centroids_ms.fit-text":     ms(cent),
		"trace.unaccounted_pct.fit-text": 100 * float64(wall-accounted) / float64(wall),
		"trace.overhead_pct.fit-text":    100 * (ms(wall) - fitMs) / fitMs,
	}
}

// replayDense repeats fit-dense's primal fit step by step through the
// public kernels core.FitDense uses: responses, the Gram of the
// intercept-augmented data (mat.ParGram), the Cholesky factorization
// and solve, and the centroids of the class means.  Steps without a
// metric of their own (augmenting, class sums, X̃ᵀY) make up
// trace.unaccounted_pct.  The model must equal ref bit for bit.
func replayDense(fs *fitSet, ref *srda.Model, fitMs float64, rep *report) layerTimes {
	x, labels, opt := fs.train.Dense, fs.train.Labels, fs.opt
	n, c := x.Cols, fs.classes
	runtime.GC()
	start := time.Now()
	rt, err := core.GenerateResponses(labels, c)
	if !rep.check(err == nil, "responses: %v", err) {
		return nil
	}
	resp := time.Since(start)

	xa := mat.NewDense(x.Rows, n+1)
	for i := 0; i < x.Rows; i++ {
		row := xa.RowView(i)
		copy(row, x.RowView(i))
		row[n] = 1
	}
	t := time.Now()
	gram := mat.ParGram(opt.Workers, xa)
	gramT := time.Since(t)
	classSums := mat.NewDense(c, n+1)
	counts := make([]int, c)
	for i, y := range labels {
		blas.Axpy(1, xa.RowView(i), classSums.RowView(y))
		counts[y]++
	}
	g := gram.Clone()
	for i := 0; i <= n; i++ {
		g.Set(i, i, g.At(i, i)+opt.Alpha)
	}
	t = time.Now()
	ch, err := decomp.NewCholesky(g)
	cholT := time.Since(t)
	if !rep.check(err == nil, "cholesky: %v", err) {
		return nil
	}
	xty := mat.MulTA(classSums, rt.Values)
	t = time.Now()
	wAug := ch.Solve(xty)
	solveT := time.Since(t)
	k := wAug.Cols
	m := &core.Model{W: wAug.Slice(0, n, 0, k).Clone(), B: make([]float64, k), NumClasses: c,
		Alpha: opt.Alpha, Strategy: regress.Primal, Workers: opt.Workers}
	for j := 0; j < k; j++ {
		m.B[j] = wAug.At(n, j)
	}
	t = time.Now()
	m.Centroids = mat.NewDense(c, k)
	mean := make([]float64, n)
	for cl := 0; cl < c; cl++ {
		row, inv := classSums.RowView(cl), 1/float64(counts[cl])
		for j := range mean {
			mean[j] = row[j] * inv
		}
		m.TransformVec(mean, m.Centroids.RowView(cl))
	}
	centT := time.Since(t)
	wall := time.Since(start)
	rep.check(sameModel(m, ref), "fit-dense replay model is not bitwise srda.Fit's")

	flops := float64(x.Rows) * float64(n+1) * float64(n+2)
	accounted := resp + gramT + cholT + solveT + centT
	return layerTimes{
		"core.responses_ms.fit-dense":     ms(resp),
		"mat.gram_ms":                     ms(gramT),
		"mat.gram_gflops_computed":        flops / gramT.Seconds() / 1e9,
		"decomp.chol_ms":                  ms(cholT),
		"decomp.solve_ms":                 ms(solveT),
		"core.centroids_ms.fit-dense":     ms(centT),
		"trace.unaccounted_pct.fit-dense": 100 * float64(wall-accounted) / float64(wall),
		"trace.overhead_pct.fit-dense":    100 * (ms(wall) - fitMs) / fitMs,
	}
}

// fitLayers generates a fit workload's data and alternates untraced
// public fits with layer-by-layer replays, so each replay's overhead is
// taken against the fit just before it and slow drift of the machine
// cancels out of the pair.
func fitLayers(cfg config, workload string, rep *report) (layerTimes, error) {
	const reps = 3
	fs, err := generateFit(cfg, workload)
	if err != nil {
		return nil, err
	}
	defer os.Remove(fs.file)
	if fs.train, err = fs.load(); err != nil {
		return nil, err
	}
	ref, err := fs.fit(fs.opt) // also the warm-up
	if err != nil {
		return nil, err
	}
	var times []float64
	var runs []layerTimes
	for i := 0; i < reps; i++ {
		runtime.GC()
		t := time.Now()
		if _, err := fs.fit(fs.opt); err != nil {
			return nil, err
		}
		fitMs := ms(time.Since(t))
		times = append(times, fitMs)
		var lt layerTimes
		if workload == "fit-text" {
			lt = replayText(fs, ref, fitMs, rep)
		} else {
			lt = replayDense(fs, ref, fitMs, rep)
		}
		if lt == nil {
			return nil, fmt.Errorf("%s replay failed", workload)
		}
		runs = append(runs, lt)
	}
	rep.ops(1+2*reps, 0) // fits and replays; a wrong replay fails its check
	rep.note("%s: untraced fit median %.1f ms over %d fits; layers are medians of %d replays, each paired with a fit", workload, median(times), reps, reps)
	return medianLayers(runs), nil
}
