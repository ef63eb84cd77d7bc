package slo

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"entitlement/internal/recordlog"
)

// TestEnvelopeRoundtrip pins the envelope's wire stability: encode → decode →
// encode must be byte-identical with every field populated, zero-time fields
// included. /slo/incidents consumers and the sibling .json file both parse
// this shape; a lossy or order-unstable encoding would break the capture's
// replay comparison too (the envelope rides in the capture as a record).
func TestEnvelopeRoundtrip(t *testing.T) {
	at := time.Date(2026, 3, 4, 5, 6, 7, 890000000, time.UTC)
	env := &Envelope{
		Version:    captureVersion,
		Generation: 42,
		ArmedAt:    at,
		ClosedAt:   at.Add(45 * time.Minute),
		Trigger: []Transition{
			{Contract: "Coldstorage", Alert: "fast_burn", Active: true, At: at},
			{Contract: "Coldstorage", Alert: "slow_burn", Active: true, At: at.Add(time.Minute)},
		},
		Contracts: []EnvelopeContract{
			{
				Contract: "Coldstorage", SLO: 0.999, HasSLO: true, Breached: true,
				BudgetRemaining: -57.25, Availability: 0.94171,
				Segments: []SegmentVerdict{
					{Segment: "TEST/net", Class: "c4_low", Verdict: "network", Availability: 0.94171, BadIntervals: 20, OverIntervals: 182},
					{Segment: "TEST/cold-000", Class: "c4_low", Verdict: "service", Availability: 1, OverIntervals: 12},
				},
				NetworkThrottledRate: 1.25e11, ServiceOverageRate: 3.5e10,
			},
			{Contract: "Warmstorage", Availability: 1, BudgetRemaining: 1,
				Segments: []SegmentVerdict{{Segment: "TEST/net", Verdict: "clean", Availability: 1}}},
		},
		Network: NetworkAttribution{
			Changed: []LinkChange{
				{ID: 0, Name: "TEST->REMOTE", SRLG: 7, Disabled: false},
				{ID: 4, Name: "TEST->LOCAL", SRLG: -1, Disabled: true},
			},
		},
		Agents: []AgentIncident{
			{
				Host: "cold-000", Contract: "Coldstorage", Cycles: 180,
				DegradedCycles: 2, FailOpenCycles: 8,
				FirstDegraded: at.Add(2 * time.Second), FirstFailOpen: at.Add(6 * time.Second),
				FailOpenTraceID: "cold-000-c34", MaxStaleFor: 19 * time.Second,
			},
			// Zero-value times must survive the trip too.
			{Host: "cold-004", Contract: "Coldstorage", Cycles: 180},
		},
		Capture: CaptureStats{
			File: "incident-0000000000000042.cap", Records: 913, Bytes: 803225,
			DroppedRecords: 3, DroppedSamples: 17, DroppedSpans: 1,
			TruncatedHistory: true, WriteFailed: true,
		},
	}
	first, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var back Envelope
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encode→decode→encode not byte-identical:\nfirst  %s\nsecond %s", first, second)
	}
	// The same roundtrip must hold through the capture record framing, which
	// is how the envelope — and the link records its network half is folded
	// from — travel inside the .cap file.
	link := &LinkEvent{At: at, ID: 4, Name: "TEST->LOCAL", SRLG: -1, Down: true}
	var enc recordlog.Encoder
	var buf []byte
	for _, rec := range []captureRecord{{T: "link", Link: link}, {T: "env", Env: env}} {
		b, err := enc.Encode(&rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
	}
	recs, valid, truncated := decodeCaptureStream(bytes.NewReader(buf))
	if truncated || valid != int64(len(buf)) || len(recs) != 2 {
		t.Fatalf("framed roundtrip: %d records, valid=%d/%d, truncated=%v", len(recs), valid, len(buf), truncated)
	}
	if !jsonEqual(recs[0].Link, link) {
		t.Fatalf("framed link record = %+v, want %+v", recs[0].Link, link)
	}
	third, err := json.Marshal(recs[1].Env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, third) {
		t.Fatalf("framed roundtrip not byte-identical:\nfirst %s\nthird %s", first, third)
	}
}
