package obs

// One latency representation: every Histogram buckets on the same
// compile-time log grid, upper bounds 2^(k/8) — the bounds of a
// Prometheus native histogram at schema 3 and of a DDSketch with
// γ = 2^(1/8) (Masson, Rim, Lee, "DDSketch", VLDB 2019).  Because the
// grid is shared, histograms from different processes merge exactly by
// adding bucket counts, which is how the federation layer computes
// cluster quantiles from ordinary _bucket series, and a quantile read
// is one allocation-free scan with a relative-error bound of
// (γ−1)/(γ+1) ≈ 4.3%.

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
)

const (
	// gridMinKey and gridMaxKey bound the grid: 2^-30 s (about 1 ns)
	// through 2^30 (about 1.07e9), wide enough for every latency,
	// queue wait and batch size the serving tier records.
	gridMinKey = -240
	gridMaxKey = 240
	// numBuckets counts the underflow bucket (le = 2^(gridMinKey/8),
	// zero and negative values included), one bucket per grid step, and
	// the overflow bucket (le = +Inf).
	numBuckets = gridMaxKey - gridMinKey + 2
)

// octave holds the grid bounds inside [0.5, 1): 2^((m−8)/8), correctly
// rounded, for m = 0..7.  math.Frexp maps a value onto this table, so
// bucket selection needs no logarithm and agrees bit for bit with the
// bounds the exposition prints.
var octave = [8]float64{
	0.5, 0.5452538663326288, 0.5946035575013605, 0.6484197773255048,
	0.7071067811865476, 0.7711054127039704, 0.8408964152537145, 0.9170040432046712,
}

// gridBounds[i] is the upper bound of bucket i; the overflow bucket has
// none.
var gridBounds = func() (b [numBuckets - 1]float64) {
	for i := range b {
		key := gridMinKey + i
		m, e := key%8, key/8
		if m < 0 {
			m, e = m+8, e-1
		}
		b[i] = math.Ldexp(octave[m], e+1)
	}
	return b
}()

// representative is the value a quantile read returns for a value in
// (hi/γ, hi]: 2·hi/(1+γ), the point whose relative distance to either
// end of the bucket is (γ−1)/(γ+1).
var representative = 2 / (1 + 2*octave[1])

// bucketOf returns the index of the bucket holding v.
func bucketOf(v float64) int {
	if !(v > gridBounds[0]) { // zero, negatives and NaN land in underflow
		return 0
	}
	if v > gridBounds[numBuckets-2] {
		return numBuckets - 1
	}
	frac, exp := math.Frexp(v)
	m := 0
	for m < 8 && octave[m] < frac {
		m++
	}
	return (exp-1)*8 + m - gridMinKey
}

// Bucket is one cumulative histogram bucket: Count observations were at
// most LE.
type Bucket struct {
	LE    float64
	Count float64
}

// BucketQuantile estimates the q-quantile (0 ≤ q ≤ 1) from cumulative
// grid buckets in ascending LE order, the last one +Inf: the value at
// rank ⌈q·n⌉ lies in the first bucket whose count reaches q·n, and the
// estimate is that bucket's representative, within ≈4.3% of the true
// value.  The underflow bucket reads as 0 and the overflow bucket as the
// largest grid bound.  The answer depends only on the bucket found, so
// buckets that add no count may be absent: the merged buckets of several
// replicas give the same answer, bit for bit, as one histogram fed their
// union stream.  NaN when the buckets hold no observation.
func BucketQuantile(q float64, buckets []Bucket) float64 {
	if len(buckets) == 0 || !(buckets[len(buckets)-1].Count > 0) {
		return math.NaN()
	}
	rank := q * buckets[len(buckets)-1].Count
	for _, b := range buckets {
		if b.Count > 0 && b.Count >= rank {
			switch {
			case b.LE <= gridBounds[0]:
				return 0
			case b.LE > gridBounds[numBuckets-2]:
				return gridBounds[numBuckets-2]
			}
			return b.LE * representative
		}
	}
	return gridBounds[numBuckets-2]
}

// Histogram is a cumulative histogram on the shared log grid with
// wait-free observation, rendered as Prometheus le-labeled cumulative
// buckets plus _sum and _count.  The zero value is an empty,
// unregistered histogram ready for use.
type Histogram struct {
	name, help string
	counts     [numBuckets]atomic.Int64
	sumBits    atomic.Uint64
	exemplars  *ExemplarStore // set once via AttachExemplars before use
}

// NewHistogram registers and returns a histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketOf(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Buckets appends to dst the cumulative buckets the exposition renders:
// every bucket from the lowest through the highest non-empty one, then
// +Inf, whose count is the total.  Each bucket is read once, so the
// result is consistent even under concurrent observation.
func (h *Histogram) Buckets(dst []Bucket) []Bucket {
	var cum int64
	last := -1 // the last bucket appended
	for i := range gridBounds {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		for j := last + 1; last >= 0 && j < i; j++ {
			dst = append(dst, Bucket{LE: gridBounds[j], Count: float64(cum)})
		}
		cum += c
		dst = append(dst, Bucket{LE: gridBounds[i], Count: float64(cum)})
		last = i
	}
	cum += h.counts[numBuckets-1].Load()
	return append(dst, Bucket{LE: math.Inf(1), Count: float64(cum)})
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile with BucketQuantile over the
// histogram's own buckets, without allocating.  NaN when nothing has
// been observed.
func (h *Histogram) Quantile(q float64) float64 {
	var buf [numBuckets]Bucket
	return BucketQuantile(q, h.Buckets(buf[:0]))
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) writeProm(w io.Writer) {
	promHeader(w, h.name, h.help, "histogram")
	var buf [numBuckets]Bucket
	bs := h.Buckets(buf[:0])
	for _, b := range bs[:len(bs)-1] {
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.name, strconv.FormatFloat(b.LE, 'g', -1, 64), int64(b.Count))
	}
	total := int64(bs[len(bs)-1].Count)
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, total)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", h.name, total)
}
