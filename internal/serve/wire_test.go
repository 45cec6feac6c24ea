package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"
)

// wireBodies builds predict bodies of the benchmark's three request
// shapes over 800 features — one dense row, eight dense rows, one sparse
// row with 50 nonzeros — encoded the way the typed client encodes them.
func wireBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	const features, nnz = 800, 50
	rng := rand.New(rand.NewSource(1))
	dense := func() Sample {
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		return DenseSample(x)
	}
	sparse := map[int]float64{}
	for _, j := range rng.Perm(features)[:nnz] {
		sparse[j] = rng.NormFloat64()
	}
	reqs := map[string]*PredictRequest{
		"dense1":  {Model: "tenant-1", Samples: []Sample{dense()}},
		"dense8":  {Model: "tenant-2", Samples: []Sample{dense(), dense(), dense(), dense(), dense(), dense(), dense(), dense()}},
		"sparse1": {Model: "tenant-3", Samples: []Sample{SparseSample(sparse)}},
	}
	out := make(map[string][]byte, len(reqs))
	for name, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = body
	}
	return out
}

func BenchmarkDecodePredict(b *testing.B) {
	bodies := wireBodies(b)
	for _, shape := range []string{"dense1", "dense8", "sparse1"} {
		body := bodies[shape]
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := decodePredict(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouterSkim times the router's per-request parse of a dense1
// body: a syntax check that reads the model and sample count.
func BenchmarkRouterSkim(b *testing.B) {
	body := wireBodies(b)["dense1"]
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := SkimPredict(body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeLinearTime decodes 1 MiB bodies made of many short dense
// fields, top level and per sample, and requires the decoder to keep
// within a small multiple of json.Unmarshal's time on the same bytes.  A
// decoder that rescans the rest of the body at each field is quadratic
// and runs hundreds of times slower here.
func TestDecodeLinearTime(t *testing.T) {
	const size = 1 << 20
	repeat := func(head, unit, tail string) []byte {
		var b bytes.Buffer
		b.WriteString(head)
		for b.Len() < size {
			b.WriteString(unit)
			b.WriteByte(',')
		}
		b.Truncate(b.Len() - 1)
		b.WriteString(tail)
		return b.Bytes()
	}
	bodies := map[string][]byte{
		"top-level": repeat("{", `"dense":null`, `}`),
		"samples":   repeat(`{"samples":[`, `{"dense":null}`, `]}`),
		"observe":   repeat(`{"samples":[`, `{"dense":null,"label":1}`, `]}`),
	}
	for name, body := range bodies {
		timed := func(f func() error) time.Duration {
			begin := time.Now()
			if err := f(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return time.Since(begin)
		}
		ref := timed(func() error {
			if name == "observe" {
				return json.Unmarshal(body, new(ObserveRequest))
			}
			return json.Unmarshal(body, new(PredictRequest))
		})
		got := timed(func() error {
			if name == "observe" {
				_, err := decodeObserve(body)
				return err
			}
			_, err := decodePredict(body)
			return err
		})
		if got > 20*ref {
			t.Errorf("%s: decoding %d bytes took %v, json.Unmarshal %v", name, len(body), got, ref)
		}
	}
}
