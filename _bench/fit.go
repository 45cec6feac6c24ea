package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"srda"
	"srda/internal/dataset"
)

// fitSet is one fit workload's inputs: the training split as the
// program reads it back from a libsvm file, and the held-out split.
type fitSet struct {
	name    string
	file    string // training split in libsvm format
	train   *dataset.Dataset
	test    *dataset.Dataset
	classes int
	opt     srda.Options
}

// Workload shapes.  fit-text is the paper's 20Newsgroups setting
// (Table IX, 50% per class, LSQR with 15 iterations); fit-dense is its
// PIE setting with 60 training images per subject, which the default
// solver fits through the primal normal equations because n < m.
//
// As in the paper, the corpus is fixed and each seed draws a random
// train/test split of it; a corpus drawn afresh per seed would make the
// held-out error vary with the corpus's difficulty rather than with the
// program.
const (
	datasetSeed  = 2008
	textSplit    = 0.5
	textLSQRIter = 15
	piePerClass  = 60
	pieFeatures  = 32 * 32
)

func fitOptions(workload string) srda.Options {
	opt := srda.Options{Alpha: 1, Workers: runtime.GOMAXPROCS(0)}
	if workload == "fit-text" {
		opt.LSQRIter = textLSQRIter
	}
	return opt
}

// generateFit builds the workload's data from the seed and writes the
// training split where the program reads it from.
func generateFit(cfg config, workload string) (*fitSet, error) {
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	var d *dataset.Dataset
	var train, test *dataset.Dataset
	var err error
	if workload == "fit-text" {
		d = dataset.NewsLike(dataset.NewsConfig{Seed: datasetSeed})
		train, test, err = d.SplitFraction(rng, textSplit)
	} else {
		d = dataset.PIELike(dataset.PIEConfig{Seed: datasetSeed})
		train, test, err = d.SplitPerClass(rng, piePerClass)
	}
	if err != nil {
		return nil, err
	}
	fs := &fitSet{
		name:    workload,
		file:    filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d.libsvm", workload, cfg.seed)),
		train:   train,
		test:    test,
		classes: d.NumClasses,
		opt:     fitOptions(workload),
	}
	f, err := os.Create(fs.file)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := train.WriteLibSVM(w); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return fs, nil
}

// load reads the training split back the way srdatrain does.
func (fs *fitSet) load() (*dataset.Dataset, error) {
	f, err := os.Open(fs.file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := dataset.ReadLibSVM(bufio.NewReader(f), fs.test.NumFeatures())
	if err != nil {
		return nil, err
	}
	if !fs.test.IsSparse() {
		d = d.ToDense()
	}
	d.NumClasses = fs.classes
	return d, nil
}

// fit runs the workload's public fit call.
func (fs *fitSet) fit(opt srda.Options) (*srda.Model, error) {
	if fs.train.IsSparse() {
		return srda.FitCSR(fs.train.Sparse, fs.train.Labels, fs.classes, opt)
	}
	return srda.Fit(fs.train.Dense, fs.train.Labels, fs.classes, opt)
}

// testErrors counts misclassified held-out samples.
func (fs *fitSet) testErrors(m *srda.Model) int {
	var pred []int
	if fs.test.IsSparse() {
		pred = m.PredictBatchCSR(fs.test.Sparse)
	} else {
		pred = m.PredictBatch(fs.test.Dense)
	}
	wrong := 0
	for i, y := range pred {
		if y != fs.test.Labels[i] {
			wrong++
		}
	}
	return wrong
}

// setupRepeats is how many times set-up is repeated; its median is
// reported so a single slow read does not move setup_s.
const setupRepeats = 5

// runFit measures a fit workload end to end.
func runFit(cfg config, rep *report) error {
	fs, err := generateFit(cfg, cfg.workload)
	if err != nil {
		return err
	}
	defer os.Remove(fs.file)
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t := time.Now()
		d, err := fs.load()
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
		fs.train = d
	}

	// The sequential twin (Workers=1) is the bitwise reference every
	// timed fit must reproduce.
	twinOpt := fs.opt
	twinOpt.Workers = 1
	twin, err := fs.fit(twinOpt)
	if err != nil {
		return fmt.Errorf("reference fit: %w", err)
	}
	refWrong := fs.testErrors(twin)
	want, haveRef, err := referenceErrors(cfg, fs.name)
	if err != nil {
		return err
	}
	if !haveRef {
		want = refWrong
	}
	if _, err := fs.fit(fs.opt); err != nil { // warm-up: pool start, page faults
		return err
	}

	var times, allocs []float64
	var cpu time.Duration
	var failed int
	var iters int
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(times) < 3 || time.Now().Before(deadline) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c0 := cpuTime()
		t := time.Now()
		m, err := fs.fit(fs.opt)
		el := time.Since(t)
		cpu += cpuTime() - c0
		runtime.ReadMemStats(&after)
		if err != nil {
			failed++
			rep.check(false, "fit: %v", err)
			continue
		}
		ok := rep.check(sameModel(m, twin), "fit %d differs from the sequential twin", len(times))
		wrong := fs.testErrors(m)
		ok = rep.check(wrong == want, "fit %d: %d test errors, expected %d (twin %d; reference.json has the seed: %v)",
			len(times), wrong, want, refWrong, haveRef) && ok
		if !ok {
			failed++
		}
		times = append(times, ms(el))
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		iters = m.Iters
	}
	n := len(times)
	rep.ops(n, failed)
	errPct := 100 * float64(refWrong) / float64(fs.test.NumSamples())
	tl, tlabel := tail(times)
	rep.note("%s: %d train x %d features, %d classes, %d held out", fs.name,
		fs.train.NumSamples(), fs.train.NumFeatures(), fs.classes, fs.test.NumSamples())
	rep.metric("setup_s", median(setup), "s", fmt.Sprintf("median of %d libsvm reads", len(setup)))
	rep.metric("op_p50_ms", median(times), "ms", fmt.Sprintf("fit_s: median of %d fits", n))
	rep.info("fit_tail_ms", tl, "ms", tlabel)
	rep.metric("cpu_ms_per_op", ms(cpu)/float64(n), "ms", "process CPU per fit")
	rep.metric("alloc_mb_per_op", median(allocs), "MB", "fit_alloc_mb: TotalAlloc per fit")
	rep.metric("error_pct", errPct, "%", fmt.Sprintf("test_error_pct: %d of %d held out", refWrong, fs.test.NumSamples()))
	rep.metric("ok_pct", 100*float64(n-failed)/float64(n), "%", "100 - failed_pct")
	rep.info("failed_pct", 100*float64(failed)/float64(n), "%", "")
	if iters > 0 {
		rep.info("solver.lsqr_iters", float64(iters), "count", "per fit")
	}
	rep.fingerprint["fit"] = fmt.Sprintf("alpha=%g lsqr_iter=%d workers=%d", fs.opt.Alpha, fs.opt.LSQRIter, fs.opt.Workers)
	return nil
}

// sameModel reports whether two models are bitwise identical in W, B
// and centroids.
func sameModel(a, b *srda.Model) bool {
	if !sameBits(a.W.Data, b.W.Data) || !sameBits(a.B, b.B) {
		return false
	}
	if (a.Centroids == nil) != (b.Centroids == nil) {
		return false
	}
	return a.Centroids == nil || sameBits(a.Centroids.Data, b.Centroids.Data)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceErrors looks up the recorded held-out error count for a
// workload and seed on this architecture in reference.json.  Seeds
// without an entry are checked against the sequential twin only.
func referenceErrors(cfg config, workload string) (int, bool, error) {
	data, err := os.ReadFile(filepath.Join(cfg.root, "_bench", "reference.json"))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	var ref map[string]map[string]map[string]int // GOARCH -> workload -> seed -> errors
	if err := json.Unmarshal(data, &ref); err != nil {
		return 0, false, fmt.Errorf("reference.json: %w", err)
	}
	n, ok := ref[runtime.GOARCH][workload][fmt.Sprint(cfg.seed)]
	return n, ok, nil
}
