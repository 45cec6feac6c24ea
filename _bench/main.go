// Command srdaperf is the repository benchmark.  It runs one named
// workload for a fixed time and prints every metric by name, with its
// unit, followed by one JSON result line:
//
//	bash _bench/run.sh --workload fit-text --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	fit-text       srda.FitCSR on a 20News-shaped corpus (LSQR over CSR)
//	fit-dense      srda.Fit on a PIE-shaped set (Gram + Cholesky)
//	serve-predict  open-loop predicts through real router and worker processes
//	serve-online   the same topology with observes and refits beside predicts
//
// --trace 0 measures the end-to-end metrics of the named workload.
// --trace 1 replays every layer from outside the program and reports
// the per-layer metrics of all four workloads.
//
// `srdaperf compare DIR_A DIR_B` compares two directories of saved
// results and refuses a verdict when their machine fingerprints differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []string{"fit-text", "fit-dense", "serve-predict", "serve-online"}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout the benchmark runs from
	bin      string // directory holding the srdaserve binary
	work     string // scratch directory for generated inputs
	results  string // directory the result file is written to
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory with the srdaserve binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for generated inputs")
	flag.StringVar(&cfg.results, "results", ".bench_build/results", "directory result files are saved to")
	flag.Parse()
	cfg.trace = trace == 1
	if !contains(workloads, cfg.workload) || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, p := range []*string{&cfg.bin, &cfg.work, &cfg.results} {
		if !filepath.IsAbs(*p) {
			*p = filepath.Join(cfg.root, *p)
		}
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}

	rep := newReport(cfg)
	steal0, total0, tickOK := cpuTicks()
	var err error
	if cfg.trace {
		err = runTraced(cfg, rep)
	} else {
		switch cfg.workload {
		case "fit-text", "fit-dense":
			err = runFit(cfg, rep)
		default:
			err = runServe(cfg, rep)
		}
	}
	if err != nil {
		fatal(err)
	}
	if steal1, total1, ok := cpuTicks(); ok && tickOK && total1 > total0 {
		rep.info("machine.steal_pct", 100*(steal1-steal0)/(total1-total0), "%",
			"CPU time the hypervisor gave to other guests during the run")
	}
	if err := rep.finish(); err != nil {
		fatal(err)
	}
	killAll()
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "srdaperf:", err)
	os.Exit(1)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// metric is one reported value, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// saved is the result file: the result plus everything needed to judge
// whether two results may be compared at all.
type saved struct {
	Fingerprint map[string]string `json:"fingerprint"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Lines       []string          `json:"lines"`
	Result      result            `json:"result"`
}

// report accumulates a run's metrics, informational lines and failed
// correctness checks.
type report struct {
	cfg         config
	res         result
	lines       []string
	checks      []string
	fingerprint map[string]string
}

func newReport(cfg config) *report {
	return &report{
		cfg: cfg,
		res: result{Correct: true, Metrics: map[string]metric{}},
		fingerprint: map[string]string{
			"go":         runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
			"nproc":      fmt.Sprint(runtime.NumCPU()),
			"cpu":        cpuModel(),
		},
	}
}

// metric records a value that goes into the result line.
func (r *report) metric(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.info(name, v, unit, note)
}

// info records a value that is printed but is not a declared metric.
func (r *report) info(name string, v float64, unit, note string) {
	line := fmt.Sprintf("%-34s %14.6g %-8s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, "# "+fmt.Sprintf(format, args...))
}

// ops counts operations attempted and failed (errors, refusals and
// failed correctness checks alike).
func (r *report) ops(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// check records a failed correctness check; the run then reports
// correct=false and exits nonzero.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *report) correct() bool { return len(r.checks) == 0 }

func (r *report) finish() error {
	r.fingerprint["seed"] = fmt.Sprint(r.cfg.seed)
	keys := make([]string, 0, len(r.fingerprint))
	for k := range r.fingerprint {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# workload %s seed %d seconds %g trace %v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	for _, k := range keys {
		fmt.Printf("# fingerprint %s=%s\n", k, r.fingerprint[k])
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	const shownChecks = 20 // a broken build can fail every request
	for i, c := range r.checks {
		if i == shownChecks {
			fmt.Printf("# CHECK FAILED: ... and %d more\n", len(r.checks)-shownChecks)
			break
		}
		fmt.Println("# CHECK FAILED:", c)
	}
	r.res.Correct = r.correct()
	if r.res.Attempted < 1 {
		r.res.Attempted = 1
		r.res.Failed = 1
		r.res.Correct = false
	}
	for name, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	spec, err := loadSpec(r.cfg.root)
	if err != nil {
		return err
	}
	if err := checkDeclared(spec, r.cfg.trace, r.res.Metrics); err != nil {
		return err
	}
	if err := r.save(); err != nil {
		fmt.Fprintln(os.Stderr, "srdaperf: saving result:", err)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (r *report) save() error {
	if err := os.MkdirAll(r.cfg.results, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.cfg.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.cfg.workload, r.cfg.seed, trace, time.Now().UnixNano())
	data, err := json.MarshalIndent(saved{
		Fingerprint: r.fingerprint, Workload: r.cfg.workload, Seed: r.cfg.seed,
		Trace: r.cfg.trace, Lines: r.lines, Result: r.res,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.cfg.results, name), data, 0o644)
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
