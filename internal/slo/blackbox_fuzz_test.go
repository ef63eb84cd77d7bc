package slo

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"entitlement/internal/recordlog"
)

// captureTestRecords builds one of each record type with representative
// payloads — the clean-stream seed the fuzzer mutates.
func captureTestRecords() []captureRecord {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	meta := &CaptureMeta{
		Version: captureVersion, Generation: 1, ArmedAt: at,
		Windows:  Windows{Fast: 5 * time.Minute, FastLong: time.Hour, Slow: 6 * time.Hour, SlowLong: 72 * time.Hour},
		FastBurn: 14.4, SlowBurn: 1, ClearRatio: 0.5, ClearAfter: 3,
		LossTolerance: 0.01, RingCapacity: 1024,
		Objectives: map[string]float64{"C": 0.999},
		Alerts:     map[string]ContractSeed{"C": {Fast: AlertSeed{Active: true}}},
		Trigger:    []Transition{{Contract: "C", Alert: "fast_burn", Active: true, At: at}},
	}
	samp := &SampBatch{
		Key:     Key{Contract: "C", Segment: "A/net", Class: "c4_low"},
		Samples: []Sample{{At: at, Granted: 1e9, Used: 5e8, Throttled: 5e8, Overage: 2e8}},
	}
	span := &CycleSpan{At: at, Host: "h1", Contract: "C", TraceID: "h1-c9", FailedOpen: true, StaleFor: 4 * time.Second}
	eval := &EvalRecord{At: at, Contracts: []ContractEval{{
		Contract: "C", Availability: [4]float64{0.5, 0.9, 0.99, 0.999},
		Burn: [4]float64{500, 100, 10, 1}, HasSLO: true, FastActive: true,
	}}}
	link := &LinkEvent{At: at, ID: 0, Name: "A->B", SRLG: 3, Down: true}
	rep := &Report{At: at, Contracts: []ContractVerdict{{Contract: "C", SLO: 0.999, HasSLO: true}}}
	env := &Envelope{Version: captureVersion, Generation: 1, ArmedAt: at, ClosedAt: at.Add(time.Hour)}
	return []captureRecord{
		{T: "meta", Meta: meta},
		{T: "link", Link: link},
		{T: "samp", Samp: samp},
		{T: "span", Span: span},
		{T: "eval", Eval: eval},
		{T: "rep", Rep: rep},
		{T: "env", Env: env},
	}
}

// FuzzBlackboxDecode throws arbitrary bytes at the capture decoder. Mirror of
// FuzzJournalReplay: the decoder must never panic, must never claim more
// valid bytes than the input holds, and the prefix it reports valid must
// re-decode to the same records with no truncation — corruption always lands
// on a clean record boundary.
func FuzzBlackboxDecode(f *testing.F) {
	recs := captureTestRecords()
	var clean bytes.Buffer
	for i := range recs {
		b, err := new(recordlog.Encoder).Encode(&recs[i])
		if err != nil {
			f.Fatal(err)
		}
		clean.Write(b)
	}
	f.Add(clean.Bytes())                 // well-formed stream
	f.Add(clean.Bytes()[:clean.Len()-3]) // torn tail
	f.Add([]byte{})                      // empty capture
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})
	corrupt := append([]byte(nil), clean.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40 // bit flip mid-stream
	f.Add(corrupt)
	garbage := append([]byte(nil), clean.Bytes()...)
	f.Add(append(garbage, []byte("trailing garbage past the last record")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, valid, truncated := decodeCaptureStream(bytes.NewReader(data))
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		if !truncated && valid != int64(len(data)) {
			t.Fatalf("clean decode but valid = %d of %d bytes", valid, len(data))
		}
		again, validAgain, truncAgain := decodeCaptureStream(bytes.NewReader(data[:valid]))
		if truncAgain {
			t.Fatalf("valid prefix (%d bytes) reported truncated on replay", valid)
		}
		if validAgain != valid || len(again) != len(got) {
			t.Fatalf("prefix replay: %d records valid=%d, want %d records valid=%d",
				len(again), validAgain, len(got), valid)
		}
		gj, _ := json.Marshal(got)
		aj, _ := json.Marshal(again)
		if !bytes.Equal(gj, aj) {
			t.Fatalf("prefix replay diverged:\nfirst  %s\nsecond %s", gj, aj)
		}
		// Indexing and replaying decoded records must tolerate arbitrary
		// field values (shape-checked, not value-checked).
		if len(got) > 0 && got[0].T == "meta" {
			c := &Capture{Meta: got[0].Meta, ValidBytes: valid, Truncated: truncated, records: got}
			c.Index()
			if c.Meta.RingCapacity >= 0 && c.Meta.RingCapacity <= 1<<16 {
				c.Replay()
			}
		}
	})
}
