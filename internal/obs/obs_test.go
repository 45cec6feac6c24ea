package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "A counter.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.NewGauge("g", "A gauge.")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	r.NewGaugeFunc("gf", "A sampled gauge.", func() int64 { return 42 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := "# HELP c_total A counter.\n# TYPE c_total counter\nc_total 5\n" +
		"# HELP g A gauge.\n# TYPE g gauge\ng 5\n" +
		"# HELP gf A sampled gauge.\n# TYPE gf gauge\ngf 42\n"
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	r.NewGauge("dup", "second")
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("req_total", "Requests.", "endpoint", "code")
	v.With("/b", "200").Inc()
	v.With("/a", "500").Add(2)
	v.With("/a", "200").Inc()
	if got := v.Value("/a", "500"); got != 2 {
		t.Fatalf("Value(/a,500) = %d, want 2", got)
	}
	if got := v.Value("/missing", "0"); got != 0 {
		t.Fatalf("absent label value = %d, want 0", got)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	// Entries render sorted by label tuple regardless of creation order.
	want := "# HELP req_total Requests.\n# TYPE req_total counter\n" +
		`req_total{endpoint="/a",code="200"} 1` + "\n" +
		`req_total{endpoint="/a",code="500"} 2` + "\n" +
		`req_total{endpoint="/b",code="200"} 1` + "\n"
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestCounterVecArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("v_total", "help", "one")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("a", "b")
}

// TestHistogramBuckets pins the bucket-assignment and cumulative-le
// semantics on the shared grid: a value exactly on a bound lands in
// that bound's bucket (le is inclusive), rendered buckets are
// cumulative, and the exposition runs from the lowest through the
// highest non-empty bucket (empty ones between included) plus +Inf.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "Latency.")
	for _, v := range []float64{1, 1.0625, 2, 2} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 6.0625 {
		t.Fatalf("sum = %g, want 6.0625", h.Sum())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := "# HELP lat Latency.\n# TYPE lat histogram\n" +
		`lat_bucket{le="1"} 1` + "\n" + // exactly 2^0
		`lat_bucket{le="1.0905077326652577"} 2` + "\n" + // 2^(1/8) holds 1.0625
		`lat_bucket{le="1.189207115002721"} 2` + "\n" +
		`lat_bucket{le="1.2968395546510096"} 2` + "\n" +
		`lat_bucket{le="1.4142135623730951"} 2` + "\n" +
		`lat_bucket{le="1.5422108254079407"} 2` + "\n" +
		`lat_bucket{le="1.681792830507429"} 2` + "\n" +
		`lat_bucket{le="1.8340080864093424"} 2` + "\n" +
		`lat_bucket{le="2"} 4` + "\n" +
		`lat_bucket{le="+Inf"} 4` + "\n" +
		"lat_sum 6.0625\nlat_count 4\n"
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n got %q\nwant %q", sb.String(), want)
	}

	// An empty histogram renders only the +Inf bucket.
	var empty Histogram
	empty.name = "idle"
	sb.Reset()
	empty.writeProm(&sb)
	if !strings.Contains(sb.String(), "idle_bucket{le=\"+Inf\"} 0\nidle_sum 0\nidle_count 0\n") ||
		strings.Count(sb.String(), "_bucket") != 1 {
		t.Fatalf("empty histogram exposition:\n%s", sb.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile is not NaN")
	}
	// Ten observations of 1.5 share the bucket (2^(4/8), 2^(5/8)]; every
	// quantile reads its representative, within (γ−1)/(γ+1) of 1.5.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	got := h.Quantile(0.5)
	if want := 1.5422108254079407 * representative; got != want {
		t.Fatalf("median = %v, want the bucket representative %v", got, want)
	}
	if math.Abs(got-1.5)/1.5 > relErrBound {
		t.Fatalf("median %v is more than %.4f from 1.5", got, relErrBound)
	}
	// Zero and negative values read as 0; values past the grid report
	// its largest bound.
	var zero Histogram
	zero.Observe(0)
	zero.Observe(-3)
	if got := zero.Quantile(0.99); got != 0 {
		t.Fatalf("underflow quantile = %v, want 0", got)
	}
	var over Histogram
	over.Observe(1e300)
	if got := over.Quantile(0.99); got != math.Ldexp(1, 30) {
		t.Fatalf("overflow quantile = %v, want 2^30", got)
	}
}

// TestConcurrentObserve hammers one histogram and one counter vec from
// many goroutines; run under -race this checks the lock discipline, and
// the final counts check that no observation is lost.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("conc", "help")
	v := r.NewCounterVec("conc_total", "help", "worker")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w))
			for i := 0; i < per; i++ {
				h.Observe(float64(i%3) + 0.25)
				v.With(label).Inc()
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	total := int64(0)
	for w := 0; w < workers; w++ {
		total += v.Value(string(rune('a' + w)))
	}
	if total != workers*per {
		t.Fatalf("vec total = %d, want %d", total, workers*per)
	}
}
