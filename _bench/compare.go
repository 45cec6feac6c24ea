package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads back: the
// declared metrics, so a run can refuse to report anything else, and
// the bounds the compare step judges by.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// checkDeclared verifies a result reports exactly the declared metrics
// of its kind, each with its declared unit.
func checkDeclared(spec *benchSpec, trace bool, got map[string]metric) error {
	want := map[string]string{}
	if trace {
		for _, m := range spec.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range spec.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("declared metric %s was not reported", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s reported in %s, declared in %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// loadSaved reads the end-to-end results saved in dir.  A run that
// failed a correctness check is returned apart, so it never feeds a
// median.
func loadSaved(dir string) (ok, failed []saved, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var s saved
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		switch {
		case s.Trace:
		case !s.Result.Correct || s.Result.Failed > 0:
			failed = append(failed, s)
		default:
			ok = append(ok, s)
		}
	}
	if len(ok)+len(failed) == 0 {
		return nil, nil, fmt.Errorf("%s holds no end-to-end results", dir)
	}
	return ok, failed, nil
}

// compareMain compares the end-to-end results saved in two directories
// (A the base, B the change) workload by workload against the bounds
// in BENCHMARK.json.  Exit status: 0 no regression, 1 regression,
// 2 no verdict (bad input or results from different machines).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: srdaperf compare DIR_A DIR_B   (run from the repository root)")
		return 2
	}
	spec, err := loadSpec(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "srdaperf compare:", err)
		return 2
	}
	a, failedA, err := loadSaved(args[0])
	if err == nil {
		var b, failedB []saved
		if b, failedB, err = loadSaved(args[1]); err == nil {
			return compareSets(spec, a, b, failedA, failedB)
		}
	}
	fmt.Fprintln(os.Stderr, "srdaperf compare:", err)
	return 2
}

// differingKey returns the first fingerprint key, other than the seed,
// on which two results differ (the machine, the toolchain, the fit
// options or the srdaserve flags and offered load), or "" if none.
func differingKey(x, y map[string]string) string {
	keys := map[string]bool{}
	for k := range x {
		keys[k] = true
	}
	for k := range y {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if k != "seed" && x[k] != y[k] {
			return k
		}
	}
	return ""
}

func compareSets(spec *benchSpec, a, b, failedA, failedB []saved) int {
	// Results of one workload must come from the same machine and
	// settings; only the seed may differ.
	all := append(append(append(append([]saved(nil), a...), b...), failedA...), failedB...)
	first := map[string]saved{}
	for _, s := range all {
		ref, seen := first[s.Workload]
		if !seen {
			first[s.Workload] = s
			continue
		}
		if k := differingKey(ref.Fingerprint, s.Fingerprint); k != "" {
			fmt.Printf("no verdict: %s fingerprint %s differs (%q vs %q)\n", s.Workload, k, ref.Fingerprint[k], s.Fingerprint[k])
			return 2
		}
	}
	if len(failedA) > 0 {
		fmt.Printf("no verdict: %d base run(s) failed their correctness checks, first %s seed %d\n",
			len(failedA), failedA[0].Workload, failedA[0].Seed)
		return 2
	}
	status := 0
	for _, s := range failedB {
		fmt.Printf("FAILED: %s seed %d failed its correctness checks (%d of %d operations)\n",
			s.Workload, s.Seed, s.Result.Failed, s.Result.Attempted)
		status = 1
	}
	values := func(set []saved, wl, name string) []float64 {
		var xs []float64
		for _, s := range set {
			if m, ok := s.Result.Metrics[name]; ok && s.Workload == wl {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	workloadsSeen := map[string]bool{}
	for _, s := range b {
		workloadsSeen[s.Workload] = true
	}
	var wls []string
	for wl := range workloadsSeen {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	fmt.Printf("%-14s %-16s %12s %12s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "worse", "bound", "verdict")
	for _, wl := range wls {
		for _, m := range spec.EndToEnd {
			xa, xb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := (quantile(xa, 0.75) - quantile(xa, 0.25)) / ma
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				status = 1
			case spread > m.Bound:
				verdict = "unresolved (spread of A exceeds the bound)"
			}
			fmt.Printf("%-14s %-16s %12.6g %12.6g %+7.1f%% %7.0f%%  %s\n", wl, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return status
}
