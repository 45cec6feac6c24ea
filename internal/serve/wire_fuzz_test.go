package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// The wire decoder's contract is differential: for every body it must
// accept exactly when encoding/json accepts and decode the same values,
// floats compared by bit pattern.  The checked-in corpora under
// testdata/fuzz seed each target with the benchmark's request shapes
// (dense1, dense8, sparse1), the shorthand form, nulls, duplicate and
// case-folded keys, escaped model names, out-of-range numbers, bad
// number grammar and trailing garbage; `go test` replays them and
// `make fuzz` explores further.

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSample(a, b Sample) bool {
	if !sameFloats(a.Dense, b.Dense) || (a.Sparse == nil) != (b.Sparse == nil) || len(a.Sparse) != len(b.Sparse) {
		return false
	}
	for j, v := range a.Sparse {
		w, ok := b.Sparse[j]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func samePredict(a, b *PredictRequest) bool {
	if a.Model != b.Model || a.Embed != b.Embed || !sameSample(a.Sample, b.Sample) ||
		(a.Samples == nil) != (b.Samples == nil) || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if !sameSample(a.Samples[i], b.Samples[i]) {
			return false
		}
	}
	return true
}

func sameObserve(a, b *ObserveRequest) bool {
	if (a.Samples == nil) != (b.Samples == nil) || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label || !sameSample(a.Samples[i].Sample, b.Samples[i].Sample) {
			return false
		}
	}
	return true
}

// FuzzDecodePredict holds decodePredict to json.Unmarshal.
func FuzzDecodePredict(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var want PredictRequest
		wantErr := json.Unmarshal(body, &want)
		got, err := decodePredict(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decodePredict err %v, encoding/json err %v", body, err, wantErr)
		}
		if err == nil && !samePredict(&got, &want) {
			t.Fatalf("body %q: decoded %+v, encoding/json %+v", body, got, want)
		}
	})
}

// FuzzDecodeObserve holds decodeObserve to json.Unmarshal.
func FuzzDecodeObserve(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var want ObserveRequest
		wantErr := json.Unmarshal(body, &want)
		got, err := decodeObserve(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decodeObserve err %v, encoding/json err %v", body, err, wantErr)
		}
		if err == nil && !sameObserve(&got, &want) {
			t.Fatalf("body %q: decoded %+v, encoding/json %+v", body, got, want)
		}
	})
}

// FuzzSkimPredict holds the router's skim to json.Valid, and its model
// and sample count to what json.Unmarshal decodes whenever that
// succeeds.  The skimmed request must carry the body unchanged.
func FuzzSkimPredict(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := SkimPredict(body)
		if (err == nil) != json.Valid(body) {
			t.Fatalf("body %q: SkimPredict err %v, json.Valid %v", body, err, json.Valid(body))
		}
		if err != nil {
			return
		}
		if !bytes.Equal(req.body, body) {
			t.Fatalf("body %q: skimmed request carries %q", body, req.body)
		}
		var want PredictRequest
		if json.Unmarshal(body, &want) != nil {
			return
		}
		if req.Model != want.Model || req.bodySamples != len(want.Samples) {
			t.Fatalf("body %q: skim model %q samples %d, encoding/json model %q samples %d",
				body, req.Model, req.bodySamples, want.Model, len(want.Samples))
		}
	})
}
