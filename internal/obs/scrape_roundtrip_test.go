package obs

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// rtExemplarTrace is the trace ID stamped on the roundtrip histogram's
// 0.5s bucket, so every parse in this file runs over a live exemplar suffix.
const rtExemplarTrace = "4bf92f3577b34da6a3ce929d0e0e4736"

// buildExpositionRegistry populates a registry exercising every instrument
// kind the package can render: plain counters/gauges, one-label vecs
// (including a label value needing escaping), and histograms with samples
// below the smallest finite bucket, inside the range, and in the +Inf
// overflow bucket — the exponential histogram's Below/Above counts.
func buildExpositionRegistry() *Registry {
	r := NewRegistry()
	r.RegisterCounter("entitlement_test_rt_total", "roundtrip counter").Add(42)
	r.RegisterGauge("entitlement_test_rt_gauge", "roundtrip gauge").Set(-2.5)
	cv := r.RegisterCounterVec("entitlement_test_rt_requests_total", "roundtrip counter vec", "method")
	cv.With("get").Add(3)
	cv.With(`quo"ted`).Inc()
	gv := r.RegisterGaugeVec("entitlement_test_rt_stale_seconds", "roundtrip gauge vec", "host")
	gv.With("h0").Set(1.5)
	gv.With("h1").Set(0)
	h := r.RegisterHistogram("entitlement_test_rt_seconds", "roundtrip histogram")
	h.Observe(math.Ldexp(1, histMinExp-5)) // below range: lands in bucket 0
	h.Observe(0.001)
	h.ObserveExemplar(0.5, rtExemplarTrace) // bucket line grows an exemplar suffix
	h.Observe(1e9)                          // above range: lands in the +Inf overflow bucket
	hv := r.RegisterHistogramVec("entitlement_test_rt_vec_seconds", "roundtrip histogram vec", "kind")
	hv.With("read").Observe(0.25)
	return r
}

// TestScrapeRoundtrip is the exposition↔scrape contract: everything
// WritePrometheus renders must come back out of ParseText with the same
// identity and value, including vec children, +Inf buckets, and the
// below/above-range overflow counts.
func TestScrapeRoundtrip(t *testing.T) {
	r := buildExpositionRegistry()
	var b bytes.Buffer
	r.WritePrometheus(&b)
	s, err := ParseText(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("ParseText on own exposition: %v\n%s", err, b.String())
	}

	want := map[string]float64{
		"entitlement_test_rt_total":                             42,
		"entitlement_test_rt_gauge":                             -2.5,
		`entitlement_test_rt_requests_total{method="get"}`:      3,
		`entitlement_test_rt_requests_total{method="quo\"ted"}`: 1,
		`entitlement_test_rt_stale_seconds{host="h0"}`:          1.5,
		`entitlement_test_rt_stale_seconds{host="h1"}`:          0,
		"entitlement_test_rt_seconds_count":                     4,
		`entitlement_test_rt_seconds_bucket{le="+Inf"}`:         4,
		"entitlement_test_rt_vec_seconds_count{kind=\"read\"}":  1,
	}
	for key, v := range want {
		if _, ok := s[key]; !ok {
			t.Errorf("scrape is missing %q\n%s", key, b.String())
			continue
		}
		if got := s.Value(key); got != v {
			t.Errorf("%s = %g, want %g", key, got, v)
		}
	}

	// The below-range sample must be visible in the first finite bucket
	// (cumulative, so every le includes it) and the above-range sample only
	// in +Inf: +Inf minus the largest finite bound equals the Above count.
	first := fmt.Sprintf("entitlement_test_rt_seconds_bucket{le=%q}", formatFloat(upperBound(0)))
	if got := s.Value(first); got != 1 {
		t.Errorf("below-range overflow: bucket %s = %g, want 1", first, got)
	}
	last := fmt.Sprintf("entitlement_test_rt_seconds_bucket{le=%q}", formatFloat(upperBound(histNumFinite-1)))
	above := s.Value(`entitlement_test_rt_seconds_bucket{le="+Inf"}`) - s.Value(last)
	if above != 1 {
		t.Errorf("above-range overflow: +Inf − le=%s = %g, want 1", formatFloat(upperBound(histNumFinite-1)), above)
	}
	if sum := s.Value("entitlement_test_rt_seconds_sum"); math.Abs(sum-(math.Ldexp(1, histMinExp-5)+0.001+0.5+1e9)) > 1 {
		t.Errorf("histogram sum did not survive the roundtrip: %g", sum)
	}
}

// TestExemplarExposition pins the exemplar wire format end to end: the
// bucket line carries the exact OpenMetrics suffix, plain ParseText
// tolerates it without corrupting the sample, and ParseTextWithExemplars
// surfaces the trace ID and value keyed by the sample it rode on.
func TestExemplarExposition(t *testing.T) {
	r := buildExpositionRegistry()
	var b bytes.Buffer
	r.WritePrometheus(&b)

	bucketKey := fmt.Sprintf("entitlement_test_rt_seconds_bucket{le=%q}", formatFloat(upperBound(bucketIndex(0.5))))
	wantLine := fmt.Sprintf("%s 3 # {trace_id=%q} 0.5", bucketKey, rtExemplarTrace)
	if !strings.Contains(b.String(), wantLine+"\n") {
		t.Fatalf("exposition is missing the exemplar line %q\n%s", wantLine, b.String())
	}

	s, exs, err := ParseTextWithExemplars(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("ParseTextWithExemplars: %v", err)
	}
	if got := s.Value(bucketKey); got != 3 {
		t.Errorf("exemplar suffix corrupted the sample value: %s = %g, want 3", bucketKey, got)
	}
	ex, ok := exs[bucketKey]
	if !ok {
		t.Fatalf("no exemplar surfaced for %s (got %v)", bucketKey, exs)
	}
	if ex.TraceID != rtExemplarTrace || ex.Value != 0.5 {
		t.Errorf("exemplar = %+v, want {TraceID:%s Value:0.5}", ex, rtExemplarTrace)
	}
	if len(exs) != 1 {
		t.Errorf("expected exactly one exemplar in the exposition, got %d: %v", len(exs), exs)
	}

	// Plain ParseText must agree with the exemplar-aware parse sample for
	// sample — tolerance means ignoring the suffix, nothing else.
	s2, err := ParseText(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("ParseText on exemplar exposition: %v", err)
	}
	if len(s2) != len(s) {
		t.Fatalf("ParseText and ParseTextWithExemplars disagree on sample count: %d vs %d", len(s2), len(s))
	}
	for k, v := range s {
		if s2[k] != v {
			t.Errorf("sample %q: ParseText=%g ParseTextWithExemplars=%g", k, s2[k], v)
		}
	}
}

// FuzzParseText hardens the scraper: arbitrary input must parse or error —
// never panic — and a successful parse must be idempotent (re-rendering the
// parsed samples and re-parsing yields the same map).
func FuzzParseText(f *testing.F) {
	var seed bytes.Buffer
	buildExpositionRegistry().WritePrometheus(&seed)
	f.Add(seed.String())
	f.Add("# HELP x y\nname 1\n")
	f.Add(`m{l="a b"} +Inf` + "\n")
	f.Add("m NaN\nn -Inf\n")
	f.Add("broken\n")
	f.Add(`m_bucket{le="0.5"} 3 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.41` + "\n")
	f.Add("m_bucket{le=\"+Inf\"} 7 # {trace_id=\"\"} 0\nm 1 # {trace_id=\"x\"} nope\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseText(strings.NewReader(input))
		if err != nil {
			return
		}
		var out bytes.Buffer
		for k, v := range s {
			fmt.Fprintf(&out, "%s %s\n", k, strconv.FormatFloat(v, 'g', -1, 64))
		}
		s2, err := ParseText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of rendered scrape failed: %v\n%s", err, out.String())
		}
		if len(s2) != len(s) {
			t.Fatalf("roundtrip changed sample count: %d -> %d", len(s), len(s2))
		}
		for k, v := range s {
			v2, ok := s2[k]
			if !ok {
				t.Fatalf("sample %q lost in roundtrip", k)
			}
			if v2 != v && !(math.IsNaN(v) && math.IsNaN(v2)) {
				t.Fatalf("sample %q changed value: %g -> %g", k, v, v2)
			}
		}
	})
}
