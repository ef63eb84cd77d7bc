package slo

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"
)

// Capture is one incident's decoded record file.
type Capture struct {
	Path string
	// Meta is the opening record; never nil for a usable capture.
	Meta *CaptureMeta
	// ValidBytes is the byte offset of the last good record boundary.
	ValidBytes int64
	// Truncated reports a torn or corrupt tail was dropped during decode.
	Truncated bool

	records []captureRecord
}

// ReadCapture decodes one capture file, keeping the valid prefix of a torn
// file rather than failing (the capture was probably cut by the very crash
// it documents).
func ReadCapture(path string) (*Capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, valid, truncated := decodeCaptureStream(bufio.NewReader(f))
	c := &Capture{Path: path, ValidBytes: valid, Truncated: truncated, records: recs}
	if len(recs) == 0 || recs[0].T != "meta" {
		return nil, fmt.Errorf("slo: %s: no capture metadata (valid prefix %d bytes)", path, valid)
	}
	c.Meta = recs[0].Meta
	return c, nil
}

// ListCaptures returns the capture files in dir, oldest generation first.
func ListCaptures(dir string) ([]string, error) {
	gens, err := capNames.List(dir)
	out := make([]string, len(gens))
	for i, gen := range gens {
		out[i] = capNames.Path(dir, gen)
	}
	return out, err
}

// CaptureIndex summarizes a capture's contents — the `sloctl inspect` view.
type CaptureIndex struct {
	Path       string    `json:"path"`
	Generation uint64    `json:"generation"`
	ArmedAt    time.Time `json:"armed_at"`
	ValidBytes int64     `json:"valid_bytes"`
	Truncated  bool      `json:"truncated,omitempty"`

	Records map[string]int `json:"records"`
	Samples int            `json:"samples"`
	Dropped uint64         `json:"dropped_samples,omitempty"`
	Series  int            `json:"series"`
	Spans   int            `json:"spans"`
	Evals   int            `json:"evals"`

	FirstEval time.Time `json:"first_eval"`
	LastEval  time.Time `json:"last_eval"`

	Contracts   []string `json:"contracts,omitempty"`
	HasReport   bool     `json:"has_report"`
	HasEnvelope bool     `json:"has_envelope"`
}

// Index walks the capture and tallies it.
func (c *Capture) Index() CaptureIndex {
	idx := CaptureIndex{
		Path:       c.Path,
		ValidBytes: c.ValidBytes,
		Truncated:  c.Truncated,
		Records:    make(map[string]int),
	}
	if c.Meta != nil {
		idx.Generation = c.Meta.Generation
		idx.ArmedAt = c.Meta.ArmedAt
		for name := range c.Meta.Objectives {
			idx.Contracts = append(idx.Contracts, name)
		}
		sort.Strings(idx.Contracts)
	}
	series := make(map[Key]bool)
	for _, r := range c.records {
		idx.Records[r.T]++
		switch r.T {
		case "samp":
			idx.Samples += len(r.Samp.Samples)
			idx.Dropped += r.Samp.Dropped
			series[r.Samp.Key] = true
		case "span":
			idx.Spans++
		case "eval":
			idx.Evals++
			if idx.FirstEval.IsZero() {
				idx.FirstEval = r.Eval.At
			}
			idx.LastEval = r.Eval.At
		case "rep":
			idx.HasReport = true
		case "env":
			idx.HasEnvelope = true
		}
	}
	idx.Series = len(series)
	return idx
}

// Spans returns the capture's recorded enforcement-cycle spans in record
// order — the agent-side evidence `sloctl trace` and `sloctl replay` render
// as causal paths.
func (c *Capture) Spans() []CycleSpan {
	var out []CycleSpan
	for _, r := range c.records {
		if r.T == "span" {
			out = append(out, *r.Span)
		}
	}
	return out
}

// Envelope returns the capture's closing attribution envelope, or nil when
// the incident never closed (crash mid-capture, torn tail).
func (c *Capture) Envelope() *Envelope {
	for i := len(c.records) - 1; i >= 0; i-- {
		if c.records[i].T == "env" {
			return c.records[i].Env
		}
	}
	return nil
}

// ReplayResult is the outcome of re-driving a capture through a fresh
// engine.
type ReplayResult struct {
	Evals       int `json:"evals"`
	Samples     int `json:"samples"`
	Spans       int `json:"spans"`
	Transitions int `json:"transitions"`
	// Identical reports every recorded evaluation and the closing report
	// were reproduced byte-identically — the determinism contract held.
	Identical bool `json:"identical"`
	// Divergence describes the first mismatch, empty when Identical.
	Divergence string `json:"divergence,omitempty"`
	// TruncatedHistory reports the capture itself admits pre-arm samples
	// were lost, so byte-identity was never achievable.
	TruncatedHistory bool `json:"truncated_history,omitempty"`
	// Report is the REPLAYED closing conformance report (nil when the
	// capture carries no report record).
	Report *Report `json:"report,omitempty"`
	// Alerts is the replayed alert transition sequence, in order.
	Alerts []Transition `json:"alerts,omitempty"`
	// Envelope is the attribution envelope recomputed from the capture's
	// records (nil when the capture carries no env record). Its Capture
	// stats are the recording's: they count records the file never
	// received. Not part of the JSON summary.
	Envelope *Envelope `json:"-"`
}

// Replay re-drives the capture through a real Engine on a virtual clock:
// samples are fed back into a fresh flight recorder, each recorded
// evaluation is re-run at its recorded timestamp, and the recomputed output
// is compared byte-for-byte (via canonical JSON) against what the live run
// wrote; so is the attribution envelope, rebuilt by the same fold the live
// box used. Determinism holds because evaluation is a pure function of
// (folded samples, clock) given the engine's sorted fold order; divergence
// means the capture is damaged or the engine's math changed since.
func (c *Capture) Replay() (*ReplayResult, error) {
	if c.Meta == nil {
		return nil, errors.New("slo: capture has no metadata")
	}
	if c.Meta.Version != captureVersion {
		return nil, fmt.Errorf("slo: capture version %d, want %d", c.Meta.Version, captureVersion)
	}
	rec := NewRecorder(c.Meta.RingCapacity)
	e := NewEngine(rec, Options{
		Windows:       c.Meta.Windows,
		FastBurn:      c.Meta.FastBurn,
		SlowBurn:      c.Meta.SlowBurn,
		ClearRatio:    c.Meta.ClearRatio,
		ClearAfter:    c.Meta.ClearAfter,
		LossTolerance: c.Meta.LossTolerance,
	})
	for name, slo := range c.Meta.Objectives {
		e.SetObjective(name, slo)
	}
	e.seedAlerts(c.Meta.Alerts)

	res := &ReplayResult{Identical: true}
	diverge := func(format string, args ...interface{}) {
		if res.Identical {
			res.Identical = false
			res.Divergence = fmt.Sprintf(format, args...)
		}
	}
	// Records the live box withheld (byte budget, write failure) were folded
	// live but never reached the file: say so before whatever they make
	// diverge downstream.
	if env := c.Envelope(); env != nil && env.Capture.DroppedRecords > 0 {
		diverge("capture withheld %d records (byte budget or write failure)", env.Capture.DroppedRecords)
	}
	fold := newVerdictFold(c.Meta.LossTolerance)
	for _, r := range c.records {
		switch r.T {
		case "samp":
			s := rec.Series(r.Samp.Key)
			for _, sm := range r.Samp.Samples {
				s.Record(sm)
				res.Samples++
			}
			fold.samples(r.Samp.Key, r.Samp.Samples)
			if r.Samp.Pre && r.Samp.Dropped > 0 {
				res.TruncatedHistory = true
				diverge("pre-arm history truncated: %d samples of %v lost before capture", r.Samp.Dropped, r.Samp.Key)
			}
		case "span":
			res.Spans++
			fold.span(*r.Span)
		case "link":
			fold.link(*r.Link)
		case "eval":
			e.mu.Lock()
			trans := e.evaluateLocked(r.Eval.At)
			got := e.evalRecordLocked(r.Eval.At, trans)
			e.mu.Unlock()
			res.Evals++
			res.Transitions += len(trans)
			res.Alerts = append(res.Alerts, trans...)
			if !jsonEqual(got, *r.Eval) {
				diverge("evaluation at %s diverged", r.Eval.At.Format(time.RFC3339Nano))
			}
		case "rep":
			e.mu.Lock()
			got := e.reportLocked(r.Rep.At)
			e.mu.Unlock()
			res.Report = got
			if !jsonEqual(got, r.Rep) {
				diverge("closing report at %s diverged", r.Rep.At.Format(time.RFC3339Nano))
			}
		case "env":
			env := fold.envelope(c.Meta, res.Report)
			env.Capture = r.Env.Capture
			if len(fold.links) == 0 {
				// Captures written before link records existed keep their
				// recorded network half (DESIGN §12).
				env.Network = r.Env.Network
			}
			res.Envelope = env
			if !jsonEqual(env, r.Env) {
				diverge("envelope diverged")
			}
		}
	}
	if c.Truncated {
		diverge("capture tail truncated at byte %d", c.ValidBytes)
	}
	return res, nil
}

// jsonEqual compares two values through their canonical JSON encodings —
// the same encoder the capture writer used, so float formatting and field
// order match exactly.
func jsonEqual(a, b interface{}) bool {
	ab, errA := json.Marshal(a)
	bb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ab, bb)
}
