package telemetry

// Federation: the router role scrapes every replica's /metrics through
// the shared text grammar, tags each sample with a replica label,
// ingests the result into one cluster store, and sums the replicas'
// histogram buckets into cluster-level quantiles.  The merged view
// is re-exposed two ways: /cluster/metrics (deterministic Prometheus
// text — families sorted by name, samples by canonical key) and
// /cluster/snapshot (the JSON document srdareport top renders).

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"srda/internal/obs"
)

// Fleet-view metric contract: the worker series the replica table in
// /cluster/snapshot is computed from.  A worker that renames these
// still federates fine — the table just loses the derived columns.
const (
	fleetRequestsMetric = "srdaserve_requests_total"
	fleetP99Metric      = "srdaserve_request_latency_p99"
	fleetQueueMetric    = "srdaserve_queue_depth"
	// ReplicaLabel tags every federated sample with its source replica.
	ReplicaLabel = "replica"
)

// Target is one scrape target: a replica's exposition.
type Target struct {
	// Replica names the target; it becomes the replica label value.
	Replica string
	// Fetch returns the /metrics exposition bytes.
	Fetch func(ctx context.Context) ([]byte, error)
}

// RegistryTarget adapts in-process registries (the co-located "all"
// role): Fetch renders them directly, no HTTP round trip.
func RegistryTarget(replica string, regs ...*obs.Registry) Target {
	return Target{
		Replica: replica,
		Fetch: func(context.Context) ([]byte, error) {
			var sb strings.Builder
			for _, reg := range regs {
				if reg != nil {
					reg.WritePrometheus(&sb)
				}
			}
			return []byte(sb.String()), nil
		},
	}
}

// MetricsClient fetches a /metrics exposition; *serve.Client satisfies
// it.
type MetricsClient interface {
	Metrics(ctx context.Context) (string, error)
}

// ClientTarget adapts a typed worker client (serve.Client or anything
// implementing MetricsClient) into a scrape target.
func ClientTarget(replica string, mc MetricsClient) Target {
	return Target{
		Replica: replica,
		Fetch: func(ctx context.Context) ([]byte, error) {
			text, err := mc.Metrics(ctx)
			return []byte(text), err
		},
	}
}

// replicaScrape is the per-target scrape status.
type replicaScrape struct {
	up         bool
	lastScrape time.Time
	lastErr    string
}

// FederatorOptions configures a Federator.
type FederatorOptions struct {
	// Clock stamps scrapes and snapshot documents; obs.SystemClock()
	// when nil.  Tests inject a frozen clock for byte-determinism.
	Clock obs.Clock
	// PointsPerSeries sizes the cluster store's rings
	// (DefaultPointsPerSeries when 0).
	PointsPerSeries int
	// RateWindow is the trailing window the replica table's request and
	// error rates are computed over (default 60s).
	RateWindow time.Duration
	// Logger receives scrape failures.  Nil disables.
	Logger *obs.Logger
}

// Federator scrapes a fixed target set into one cluster store.
type Federator struct {
	opts  FederatorOptions
	clock obs.Clock
	store *Store

	mu      sync.Mutex
	targets []Target
	status  map[string]*replicaScrape
	scrapes int64
	errs    int64
	slo     *SLOEngine
}

// NewFederator builds a federator over the given targets.
func NewFederator(targets []Target, opts FederatorOptions) *Federator {
	clock := opts.Clock
	if clock == nil {
		clock = obs.SystemClock()
	}
	if opts.RateWindow <= 0 {
		opts.RateWindow = time.Minute
	}
	f := &Federator{
		opts:    opts,
		clock:   clock,
		store:   NewStore(opts.PointsPerSeries),
		targets: append([]Target(nil), targets...),
		status:  make(map[string]*replicaScrape, len(targets)),
	}
	for _, t := range targets {
		f.status[t.Replica] = &replicaScrape{}
	}
	return f
}

// Store returns the cluster store the federator ingests into — the SLO
// engine in the router role evaluates against it.
func (f *Federator) Store() *Store { return f.store }

// AttachSLO links an engine so /cluster/snapshot includes its alerts
// and Scrape evaluates it after each ingest pass.
func (f *Federator) AttachSLO(e *SLOEngine) {
	f.mu.Lock()
	f.slo = e
	f.mu.Unlock()
}

// Scrape pulls every target once at now: fetch, parse, tag with the
// replica label, ingest; then (with an attached SLO engine) evaluate
// alerts against the updated store.  A failing target marks its replica
// down and keeps its stale series — gaps, not zeros.
func (f *Federator) Scrape(ctx context.Context, now time.Time) {
	f.mu.Lock()
	targets := append([]Target(nil), f.targets...)
	f.scrapes++
	slo := f.slo
	f.mu.Unlock()

	for _, t := range targets {
		err := f.scrapeOne(ctx, t, now)
		f.mu.Lock()
		st := f.status[t.Replica]
		st.lastScrape = now
		if err != nil {
			st.up = false
			st.lastErr = err.Error()
			f.errs++
		} else {
			st.up = true
			st.lastErr = ""
		}
		f.mu.Unlock()
		if err != nil {
			f.opts.Logger.Warn("federation scrape failed", "replica", t.Replica, "err", err.Error())
		}
	}
	slo.Evaluate(now)
}

func (f *Federator) scrapeOne(ctx context.Context, t Target, now time.Time) error {
	data, err := t.Fetch(ctx)
	if err != nil {
		return fmt.Errorf("fetching metrics: %w", err)
	}
	fams, err := obs.ParsePrometheus(data)
	if err != nil {
		return fmt.Errorf("parsing metrics: %w", err)
	}
	tagged := make([]obs.PromFamily, len(fams))
	for i, fam := range fams {
		tagged[i] = obs.PromFamily{Name: fam.Name, Help: fam.Help, Type: fam.Type}
		tagged[i].Samples = make([]obs.PromSample, len(fam.Samples))
		for j, smp := range fam.Samples {
			labels := make([]obs.PromLabel, 0, len(smp.Labels)+1)
			for _, l := range smp.Labels {
				// A scraped series may already carry a replica label (the
				// router's own srdaroute_* set does); rename it the way
				// Prometheus federation does so the target tag never
				// collides into a duplicate label name.
				if l.Name == ReplicaLabel {
					l.Name = "exported_" + ReplicaLabel
				}
				labels = append(labels, l)
			}
			labels = append(labels, obs.PromLabel{Name: ReplicaLabel, Value: t.Replica})
			tagged[i].Samples[j] = obs.PromSample{Name: smp.Name, Labels: labels, Value: smp.Value}
		}
	}
	f.store.Ingest(now, tagged)
	return nil
}

// clusterQuantiles computes the cluster quantiles of every federated
// histogram family from the latest series view: per family it sums the
// sources' cumulative bucket counts per le, a source being one series
// label set (one replica, for this tier's histograms) at its most recent
// scrape.  All replicas bucket on obs's shared grid, and a source adds 0
// below its emitted range and its top count above it, so the sums are
// the buckets of one histogram fed the union stream and the quantiles
// equal its quantiles bit for bit.
func clusterQuantiles(latest []SeriesInfo) []ClusterQuantile {
	type source struct {
		at      time.Time
		buckets []obs.Bucket
	}
	families := make(map[string]map[string]*source) // family -> source key -> buckets
	for _, si := range latest {
		family, ok := strings.CutSuffix(si.Name, "_bucket")
		if !ok || si.Type != "histogram" {
			continue
		}
		le, rest := math.NaN(), make([]obs.PromLabel, 0, len(si.Labels))
		for _, l := range si.Labels {
			if l.Name != "le" {
				rest = append(rest, l)
			} else if v, err := strconv.ParseFloat(l.Value, 64); err == nil {
				le = v
			}
		}
		if math.IsNaN(le) {
			continue
		}
		if families[family] == nil {
			families[family] = make(map[string]*source)
		}
		key := obs.CanonicalSeriesKey(family, rest)
		src, p := families[family][key], si.Points[0]
		switch {
		case src == nil:
			src = &source{at: p.T}
			families[family][key] = src
		case p.T.After(src.at): // a newer scrape supersedes older buckets
			src.at, src.buckets = p.T, src.buckets[:0]
		case p.T.Before(src.at): // a bucket the latest scrape no longer emits
			continue
		}
		src.buckets = append(src.buckets, obs.Bucket{LE: le, Count: p.V})
	}
	var out []ClusterQuantile
	for _, family := range sortedKeys(families) {
		sources := families[family]
		var les []float64
		for _, key := range sortedKeys(sources) {
			bs := sources[key].buckets
			sort.Slice(bs, func(i, j int) bool { return bs[i].LE < bs[j].LE })
			for _, b := range bs {
				les = append(les, b.LE)
			}
		}
		sort.Float64s(les)
		merged := make([]obs.Bucket, 0, len(les))
		for _, le := range les {
			if len(merged) == 0 || le > merged[len(merged)-1].LE {
				merged = append(merged, obs.Bucket{LE: le})
			}
		}
		for _, key := range sortedKeys(sources) {
			bs, j := sources[key].buckets, -1
			for i := range merged {
				for j+1 < len(bs) && bs[j+1].LE <= merged[i].LE {
					j++
				}
				if j >= 0 {
					merged[i].Count += bs[j].Count
				}
			}
		}
		total := merged[len(merged)-1].Count
		if !(total > 0) {
			continue
		}
		out = append(out, ClusterQuantile{
			Metric: family,
			Count:  int(total),
			P50:    obs.BucketQuantile(0.5, merged),
			P95:    obs.BucketQuantile(0.95, merged),
			P99:    obs.BucketQuantile(0.99, merged),
		})
	}
	return out
}

// WriteClusterMetrics renders the deterministic cluster exposition:
// federation meta-series, merged cluster quantiles, then the latest
// value of every federated series — families sorted by name, samples
// by canonical key, so two routers scraping the same fleet at the same
// frozen instant produce identical bytes (the golden test's contract).
func (f *Federator) WriteClusterMetrics(w io.Writer) {
	f.mu.Lock()
	replicas := sortedKeys(f.status)
	scrapes, errs := f.scrapes, f.errs
	type repStatus struct {
		name string
		up   bool
	}
	ups := make([]repStatus, 0, len(replicas))
	for _, name := range replicas {
		ups = append(ups, repStatus{name: name, up: f.status[name].up})
	}
	f.mu.Unlock()

	fmt.Fprintf(w, "# HELP srdafed_replicas Replicas in the federation target set.\n# TYPE srdafed_replicas gauge\nsrdafed_replicas %d\n", len(ups))
	fmt.Fprintf(w, "# HELP srdafed_scrapes_total Federation scrape passes.\n# TYPE srdafed_scrapes_total counter\nsrdafed_scrapes_total %d\n", scrapes)
	fmt.Fprintf(w, "# HELP srdafed_scrape_errors_total Failed target scrapes.\n# TYPE srdafed_scrape_errors_total counter\nsrdafed_scrape_errors_total %d\n", errs)
	fmt.Fprintf(w, "# HELP srdafed_replica_up Whether the last scrape of the replica succeeded.\n# TYPE srdafed_replica_up gauge\n")
	for _, r := range ups {
		up := 0
		if r.up {
			up = 1
		}
		fmt.Fprintf(w, "srdafed_replica_up{%s=\"%s\"} %d\n", ReplicaLabel, obs.EscapeLabelValue(r.name), up)
	}

	latest := f.store.Latest()
	quants := clusterQuantiles(latest)
	if len(quants) > 0 {
		fmt.Fprintf(w, "# HELP srdacluster_quantile Cluster-level quantiles from per-replica histogram buckets summed per le.\n# TYPE srdacluster_quantile gauge\n")
		for _, q := range quants {
			for _, pq := range []struct {
				q string
				v float64
			}{{"0.5", q.P50}, {"0.95", q.P95}, {"0.99", q.P99}} {
				fmt.Fprintf(w, "srdacluster_quantile{metric=\"%s\",quantile=\"%s\"} %s\n",
					obs.EscapeLabelValue(q.Metric), pq.q, formatValue(pq.v))
			}
		}
		fmt.Fprintf(w, "# HELP srdacluster_quantile_count Observations behind each cluster histogram.\n# TYPE srdacluster_quantile_count gauge\n")
		for _, q := range quants {
			fmt.Fprintf(w, "srdacluster_quantile_count{metric=\"%s\"} %d\n", obs.EscapeLabelValue(q.Metric), q.Count)
		}
	}

	// Federated series: latest value per series, grouped by family.
	type famOut struct {
		typ   string
		lines []string
	}
	fams := make(map[string]*famOut)
	for _, si := range latest {
		fo, ok := fams[si.Name]
		if !ok {
			fo = &famOut{typ: si.Type}
			fams[si.Name] = fo
		}
		fo.lines = append(fo.lines, si.Key+" "+formatValue(si.Points[0].V))
	}
	for _, name := range sortedKeys(fams) {
		fo := fams[name]
		fmt.Fprintf(w, "# TYPE %s %s\n", name, fo.typ)
		sort.Strings(fo.lines)
		for _, line := range fo.lines {
			fmt.Fprintln(w, line)
		}
	}
}

// MetricsHandler serves /cluster/metrics.
func (f *Federator) MetricsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		f.WriteClusterMetrics(w)
	}
}

// formatValue renders a sample value deterministically; integral
// values drop the fraction the way obs's own writer does.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
