package obs

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// relErrBound is the grid's relative-error bound (γ−1)/(γ+1), γ = 2^(1/8).
var relErrBound = (2*octave[1] - 1) / (2*octave[1] + 1)

// TestGridBounds checks the compile-time grid: consecutive bounds differ
// by γ, a value on a bound lands in that bound's bucket and the next
// float above it in the next one, and every bound survives the
// shortest-round-trip formatting the exposition uses.
func TestGridBounds(t *testing.T) {
	if math.Abs(relErrBound-0.0433) > 1e-4 {
		t.Fatalf("relative-error bound %v, want ≈0.0433", relErrBound)
	}
	for i, b := range gridBounds {
		if key := gridMinKey + i; key%8 == 0 && b != math.Ldexp(1, key/8) {
			t.Fatalf("bound %d = %v, want 2^%d", i, b, key/8)
		}
		if i > 0 && math.Abs(b/gridBounds[i-1]-2*octave[1]) > 1e-15 {
			t.Fatalf("bounds %d and %d are not a grid step apart", i-1, i)
		}
		if got := bucketOf(b); got != i {
			t.Fatalf("bucketOf(%v) = %d, want %d", b, got, i)
		}
		if got := bucketOf(math.Nextafter(b, math.Inf(1))); got != i+1 {
			t.Fatalf("bucketOf(next above %v) = %d, want %d", b, got, i+1)
		}
		if back, err := strconv.ParseFloat(strconv.FormatFloat(b, 'g', -1, 64), 64); err != nil || back != b {
			t.Fatalf("bound %v does not round-trip its le rendering", b)
		}
	}
	for _, v := range []float64{0, -1, math.Inf(-1), math.NaN()} {
		if bucketOf(v) != 0 {
			t.Fatalf("bucketOf(%v) = %d, want the underflow bucket", v, bucketOf(v))
		}
	}
	if bucketOf(math.Inf(1)) != numBuckets-1 {
		t.Fatal("+Inf is not in the overflow bucket")
	}
}

// TestHistogramQuantileAccuracy drives seeded streams through a
// histogram and checks p50/p95/p99/p999 against the exact order
// statistic at rank ⌈q·n⌉ within the grid's relative-error bound.  The
// dyadic stream puts every value exactly on a bound, where the estimate
// sits at the bound's full distance.
func TestHistogramQuantileAccuracy(t *testing.T) {
	const n = 20000
	streams := map[string]func(*rand.Rand) float64{
		"uniform":     func(r *rand.Rand) float64 { return r.Float64() + 1e-6 },
		"lognormal":   func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64() - 6) },
		"exponential": func(r *rand.Rand) float64 { return r.ExpFloat64() * 0.01 },
		"pareto":      func(r *rand.Rand) float64 { return 1e-3 / math.Pow(1-r.Float64(), 1/1.1) },
		"dyadic":      func(r *rand.Rand) float64 { return math.Ldexp(1, r.Intn(30)-20) },
	}
	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			var h Histogram
			vals := make([]float64, n)
			for j := range vals {
				vals[j] = streams[name](rng)
				h.Observe(vals[j])
			}
			sort.Float64s(vals)
			for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
				exact := vals[int(math.Ceil(q*n))-1]
				got := h.Quantile(q)
				if rel := math.Abs(got-exact) / exact; rel > relErrBound*(1+1e-12) {
					t.Errorf("q=%v: got %v, exact %v, relative error %.5f > %.5f", q, got, exact, rel, relErrBound)
				}
			}
		})
	}
}

// TestBucketQuantileIgnoresEmptyBuckets: the estimate depends only on
// the bucket the rank falls in, so dropping buckets that add no count —
// what a merge of replicas with disjoint ranges produces — changes
// nothing, bit for bit.
func TestBucketQuantileIgnoresEmptyBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1e-4, 2e-4, 0.5, 0.5, 3} {
		h.Observe(v)
	}
	full := h.Buckets(nil)
	var sparse []Bucket
	for i, b := range full {
		if i == 0 || b.Count != full[i-1].Count {
			sparse = append(sparse, b)
		}
	}
	if len(sparse) >= len(full) {
		t.Fatalf("fixture has no empty buckets: %d buckets", len(full))
	}
	for _, q := range []float64{0, 0.2, 0.5, 0.7, 0.95, 1} {
		if a, b := BucketQuantile(q, full), BucketQuantile(q, sparse); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("q=%v: full %v, sparse %v", q, a, b)
		}
	}
	if !math.IsNaN(BucketQuantile(0.5, nil)) || !math.IsNaN(BucketQuantile(0.5, []Bucket{{LE: math.Inf(1)}})) {
		t.Error("quantile of no observations is not NaN")
	}
}

// TestHistogramAllocs: observing and reading a quantile allocate
// nothing, so both can sit on the per-request path.
func TestHistogramAllocs(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-4)
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(0.0123) }); a != 0 {
		t.Errorf("Observe allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { h.Quantile(0.99) }); a != 0 {
		t.Errorf("Quantile allocates %v times per call", a)
	}
}
