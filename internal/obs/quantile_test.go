package obs

// The quantile read of a Histogram is the project's latency sketch: a
// DDSketch on the shared 2^(k/8) grid.  These tests pin its small-count
// behaviour, its concurrency contract and the exact cross-replica merge
// the federation layer relies on.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mergeBuckets sums cumulative grid buckets from several histograms the
// way the federation layer does: at every bound any source reports, each
// source contributes its cumulative count at the largest bound it
// reports at or below that one.
func mergeBuckets(srcs ...[]Bucket) []Bucket {
	seen := map[float64]bool{}
	var les []float64
	for _, s := range srcs {
		for _, b := range s {
			if !seen[b.LE] {
				seen[b.LE] = true
				les = append(les, b.LE)
			}
		}
	}
	sort.Float64s(les)
	merged := make([]Bucket, 0, len(les))
	for _, le := range les {
		m := Bucket{LE: le}
		for _, s := range srcs {
			c := 0.0
			for _, b := range s {
				if b.LE > le {
					break
				}
				c = b.Count
			}
			m.Count += c
		}
		merged = append(merged, m)
	}
	return merged
}

func TestQuantileSketchEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("Quantile on empty histogram = %v, want NaN", got)
	}
	if h.Count() != 0 {
		t.Fatalf("Count = %d, want 0", h.Count())
	}
	bs := h.Buckets(nil)
	if len(bs) != 1 || !math.IsInf(bs[0].LE, 1) || bs[0].Count != 0 {
		t.Fatalf("empty histogram buckets = %v, want only +Inf with count 0", bs)
	}
}

// TestQuantileSketchTwoValues pins the exact behaviour the serving
// /metrics golden depends on: the two dyadic latencies the golden test
// feeds sit on grid bounds, so p50 reads the first value's bucket
// representative and p95 = p99 the second's.
func TestQuantileSketchTwoValues(t *testing.T) {
	var h Histogram
	h.Observe(0.001953125)
	h.Observe(0.25)
	if got, want := h.Quantile(0.5), 0.001953125*representative; got != want {
		t.Errorf("Quantile(0.5) = %v, want %v", got, want)
	}
	for _, q := range []float64{0.95, 0.99} {
		if got, want := h.Quantile(q), 0.25*representative; got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	for q, v := range map[float64]float64{0.5: 0.001953125, 0.99: 0.25} {
		if got := h.Quantile(q); math.Abs(got-v)/v > relErrBound*(1+1e-12) {
			t.Errorf("Quantile(%v) = %v is more than %.4f from %v", q, got, relErrBound, v)
		}
	}
}

// TestQuantileSketchConcurrent reads quantiles and buckets while another
// goroutine observes: under -race this checks that a read needs no lock,
// and every snapshot must be a valid cumulative histogram whose total
// never goes backwards.
func TestQuantileSketchConcurrent(t *testing.T) {
	var h Histogram
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 5000; i++ {
			h.Observe(r.Float64())
		}
	}()
	var buf []Bucket
	last := 0.0
	for i := 0; i < 100; i++ {
		h.Quantile(0.5)
		buf = h.Buckets(buf[:0])
		for j := 1; j < len(buf); j++ {
			if buf[j].Count < buf[j-1].Count || !(buf[j].LE > buf[j-1].LE) {
				t.Fatalf("snapshot %d is not cumulative at bucket %d: %v", i, j, buf)
			}
		}
		total := buf[len(buf)-1].Count
		if total < last {
			t.Fatalf("snapshot %d total %v went back from %v", i, total, last)
		}
		last = total
	}
	<-done
	if h.Count() != 5000 {
		t.Fatalf("Count = %d, want 5000", h.Count())
	}
}

// TestMergeSketchesRankError is the cross-replica accuracy contract:
// K replicas each observe a disjoint shard of one latency stream; the
// summed buckets must answer p50/p95/p99 exactly as one histogram fed
// the union would, and so within the grid's relative-error bound of the
// exact order statistic over the union.
func TestMergeSketchesRankError(t *testing.T) {
	const (
		replicas = 4
		perRep   = 20000
	)
	rng := rand.New(rand.NewSource(42))
	union := make([]float64, 0, replicas*perRep)
	var all Histogram
	srcs := make([][]Bucket, 0, replicas)
	for r := 0; r < replicas; r++ {
		var h Histogram
		for i := 0; i < perRep; i++ {
			// Log-normal-ish latency shape with a heavy tail; each
			// replica sees a slightly shifted distribution so the
			// merge has to reconcile different ranges.
			v := math.Exp(rng.NormFloat64()*0.6) * (1 + 0.1*float64(r))
			h.Observe(v)
			all.Observe(v)
			union = append(union, v)
		}
		srcs = append(srcs, h.Buckets(nil))
	}
	sort.Float64s(union)
	n := len(union)

	merged := mergeBuckets(srcs...)
	if got := merged[len(merged)-1].Count; got != float64(n) {
		t.Fatalf("merged total = %v, want %d", got, n)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := BucketQuantile(q, merged)
		if want := all.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("q=%v: merged %v, union histogram %v", q, got, want)
		}
		exact := union[int(math.Ceil(q*float64(n)))-1]
		if rel := math.Abs(got-exact) / exact; rel > relErrBound*(1+1e-12) {
			t.Errorf("q=%v: merged %v, exact %v, relative error %.5f > %.5f", q, got, exact, rel, relErrBound)
		}
	}
}

// TestMergeSketchesDegenerate covers empty, single-source and
// disjoint-range merges.
func TestMergeSketchesDegenerate(t *testing.T) {
	if empty := mergeBuckets(); !math.IsNaN(BucketQuantile(0.5, empty)) {
		t.Errorf("empty merge quantile = %v, want NaN", BucketQuantile(0.5, empty))
	}

	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	qs := []float64{0, 0.5, 0.95, 0.99, 1}
	one := mergeBuckets(h.Buckets(nil))
	for _, q := range qs {
		if got, want := BucketQuantile(q, one), h.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("single-source q=%v: %v, want %v", q, got, want)
		}
	}
	if p50 := BucketQuantile(0.5, one); math.Abs(p50-500)/500 > relErrBound*(1+1e-12) {
		t.Errorf("single-source p50 = %v, want within %.4f of 500", p50, relErrBound)
	}

	// A merge of an empty replica with a real one is just the real one.
	var none Histogram
	both := mergeBuckets(none.Buckets(nil), h.Buckets(nil))
	if both[len(both)-1].Count != 1000 {
		t.Errorf("empty+real merge total = %v, want 1000", both[len(both)-1].Count)
	}
	for _, q := range qs {
		if got, want := BucketQuantile(q, both), h.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("empty+real q=%v: %v, want %v", q, got, want)
		}
	}

	// Replicas with disjoint ranges merge to the union histogram.
	var lo, hi, all Histogram
	for i := 0; i < 300; i++ {
		lo.Observe(1e-3 * (1 + float64(i%7)/10))
		all.Observe(1e-3 * (1 + float64(i%7)/10))
	}
	for i := 0; i < 700; i++ {
		hi.Observe(10 * (1 + float64(i%5)/10))
		all.Observe(10 * (1 + float64(i%5)/10))
	}
	disjoint := mergeBuckets(lo.Buckets(nil), hi.Buckets(nil))
	for _, q := range []float64{0.1, 0.3, 0.31, 0.5, 0.99} {
		if got, want := BucketQuantile(q, disjoint), all.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("disjoint q=%v: %v, want %v", q, got, want)
		}
	}
}
