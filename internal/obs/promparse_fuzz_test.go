package obs

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// renderFamilies writes parsed families back out the way WritePrometheus
// does: a HELP and a TYPE line per family, then its samples with labels
// in their parsed order and values in shortest round-trip form
// (timestamps are not kept by the parser, so none are written).
func renderFamilies(fams []PromFamily) string {
	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, s := range f.Samples {
			sb.WriteString(sampleLine(s))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func sampleLine(s PromSample) string {
	var sb strings.Builder
	sb.WriteString(s.Name)
	if len(s.Labels) > 0 {
		sb.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeLabelPair(&sb, l.Name, l.Value)
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatFloat(s.Value, 'g', -1, 64))
	return sb.String()
}

// sortedSampleLines lists every sample of fams, whatever family holds it.
func sortedSampleLines(fams []PromFamily) []string {
	var out []string
	for _, f := range fams {
		for _, s := range f.Samples {
			out = append(out, sampleLine(s))
		}
	}
	slices.Sort(out)
	return out
}

// FuzzParsePrometheus holds the exposition parser — the only way replica
// latency reaches the cluster quantiles, fed text that crosses a trust
// boundary — to three properties: it never panics; what it accepts
// re-renders into text it accepts again with every sample intact; and
// one parse/re-render pass reaches a fixed point.  (The first pass may
// regroup samples of a document that interleaves families, since
// attribution follows declaration order.)  Seeds in
// testdata/fuzz/FuzzParsePrometheus include worker, router and cluster
// expositions captured from a running tier.
func FuzzParsePrometheus(f *testing.F) {
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3 1700000000000\nh_sum NaN\nh_count 3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParsePrometheus(data)
		if err != nil {
			return
		}
		text := renderFamilies(fams)
		again, err := ParsePrometheus([]byte(text))
		if err != nil {
			t.Fatalf("re-rendered exposition does not parse: %v\n%s", err, text)
		}
		if got, want := sortedSampleLines(again), sortedSampleLines(fams); !slices.Equal(got, want) {
			t.Fatalf("round trip changed the samples:\n got %q\nwant %q", got, want)
		}
		stable := renderFamilies(again)
		third, err := ParsePrometheus([]byte(stable))
		if err != nil {
			t.Fatalf("second re-render does not parse: %v\n%s", err, stable)
		}
		if final := renderFamilies(third); final != stable {
			t.Fatalf("re-rendering is not stable:\n--- once ---\n%s--- twice ---\n%s", stable, final)
		}
	})
}

// TestParsePrometheusLinearTime parses 1 MiB adversarial bodies — one
// line with a huge label set, one label value made of escapes, one huge
// metric name, a flood of distinct histogram families — and requires
// each to stay within a small multiple of the time a 1 MiB body of
// ordinary sample lines takes.  A parser that rescans the rest of a line
// or the family list per item is quadratic and runs hundreds of times
// slower here.
func TestParsePrometheusLinearTime(t *testing.T) {
	const size = 1 << 20
	repeat := func(head, unit, tail string) []byte {
		var b bytes.Buffer
		b.WriteString(head)
		for b.Len() < size {
			b.WriteString(unit)
		}
		b.WriteString(tail)
		return b.Bytes()
	}
	var families bytes.Buffer
	for i := 0; families.Len() < size; i++ {
		fmt.Fprintf(&families, "# TYPE m%d histogram\nm%d_bucket{le=\"+Inf\"} 1\n", i, i)
	}
	timed := func(name string, body []byte) time.Duration {
		begin := time.Now()
		if _, err := ParsePrometheus(body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return time.Since(begin)
	}
	ref := timed("ordinary", repeat("", "srdaserve_requests_total{endpoint=\"/v1/predict\",code=\"200\"} 12\n", ""))
	for name, body := range map[string][]byte{
		"labels":   repeat("m{", `a="b",`, "z=\"y\"} 1\n"),
		"escapes":  repeat(`m{a="`, `\\\"\n`, "\"} 1\n"),
		"name":     repeat("m", "x", " 1\n"),
		"families": families.Bytes(),
	} {
		if got := timed(name, body); got > 20*ref+50*time.Millisecond {
			t.Errorf("%s: parsing 1 MiB took %v, ordinary lines %v", name, got, ref)
		}
	}
}
