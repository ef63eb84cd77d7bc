package slo

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSLORecord measures the flight-recorder record path, which sits
// inside every enforcement cycle. Design budget: <100ns/op, 1 alloc (the
// published sample copy) — the enforcement loop assumes recording is free.
// The number is recorded in BENCH.txt; it is below the bench-regress gate's
// 1µs noise floor, so nothing asserts it.
func BenchmarkSLORecord(b *testing.B) {
	rec := NewRecorder(1024)
	s := rec.Series(Key{Contract: "Coldstorage", Segment: "TEST/cold-000", Class: "c4_low"})
	sm := Sample{At: time.Unix(1700000000, 0), Granted: 1e12, Used: 9e11, Throttled: 0, Overage: 1e11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(sm)
	}
}

// BenchmarkSLORecordViaRecorder includes the sync.Map key lookup cold
// callers pay; hot callers cache the Series handle (see BenchmarkSLORecord).
func BenchmarkSLORecordViaRecorder(b *testing.B) {
	rec := NewRecorder(1024)
	k := Key{Contract: "Coldstorage", Segment: "TEST/cold-000", Class: "c4_low"}
	rec.Series(k)
	sm := Sample{At: time.Unix(1700000000, 0), Granted: 1e12, Used: 9e11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(k, sm)
	}
}

// BenchmarkBlackboxAppend measures the armed-path span append the black box
// takes on every enforcement cycle while an incident is in flight: one mutex
// round-trip plus one struct copy into the buffered batch. Design budget:
// <200ns/op, 0 allocs amortized — the enforcement loop treats incident
// capture as free. Recorded in BENCH.txt, below the gate's noise floor, not
// gated.
func BenchmarkBlackboxAppend(b *testing.B) {
	bb, err := NewBlackbox(BlackboxOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	bb.mu.Lock()
	bb.armed = true
	bb.spans = make([]CycleSpan, 0, maxArmedSpans)
	bb.mu.Unlock()
	sp := CycleSpan{
		At: time.Unix(1700000000, 0), Host: "cold-000", Contract: "Coldstorage",
		TraceID: "cold-000-c42", Enforced: 1e12,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%maxArmedSpans == 0 {
			// Drain the batch outside the timer, as a flush would.
			b.StopTimer()
			bb.mu.Lock()
			bb.spans = bb.spans[:0]
			bb.mu.Unlock()
			b.StartTimer()
		}
		bb.RecordSpan(sp)
	}
}

// BenchmarkBlackboxAppendDisarmed covers the quiescent path every cycle pays
// when no incident is armed: a fixed-ring write, no growth ever.
func BenchmarkBlackboxAppendDisarmed(b *testing.B) {
	bb, err := NewBlackbox(BlackboxOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	sp := CycleSpan{
		At: time.Unix(1700000000, 0), Host: "cold-000", Contract: "Coldstorage",
		TraceID: "cold-000-c42", Enforced: 1e12,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.RecordSpan(sp)
	}
}

// BenchmarkSLOEvaluate covers the evaluation side at a realistic fan-in:
// 41 series (40 agents + ground truth) × one fresh sample per pass.
func BenchmarkSLOEvaluate(b *testing.B) {
	rec := NewRecorder(1024)
	e := NewEngine(rec, Options{})
	e.SetObjective("Coldstorage", 0.999)
	series := make([]*Series, 41)
	for i := range series {
		series[i] = rec.Series(Key{Contract: "Coldstorage", Segment: fmt.Sprintf("TEST/cold-%03d", i), Class: "c4_low"})
	}
	base := time.Unix(1700000000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		for _, s := range series {
			s.Record(Sample{At: at, Granted: 1e12, Used: 9e11})
		}
		e.Evaluate(at)
	}
}

// BenchmarkIncidentReplay measures reading one closed incident capture back
// from disk and re-driving it through the engine — what `sloctl replay` pays.
// A replay that is not byte-identical fails the benchmark.
func BenchmarkIncidentReplay(b *testing.B) {
	dir := b.TempDir()
	newIncidentRig(b, dir, BlackboxOptions{}).runIncident(b, 10, 5, 300)
	caps, err := ListCaptures(dir)
	if err != nil || len(caps) != 1 {
		b.Fatalf("ListCaptures = %v, %v", caps, err)
	}
	var res *ReplayResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := ReadCapture(caps[0])
		if err != nil {
			b.Fatal(err)
		}
		if res, err = c.Replay(); err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatalf("replay diverged: %s", res.Divergence)
		}
	}
	b.ReportMetric(float64(res.Samples), "samples/op")
	b.ReportMetric(float64(res.Evals), "evals/op")
}
