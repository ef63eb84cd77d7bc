package slo

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"entitlement/internal/recordlog"
)

// The incident black box persists the conformance plane's evidence while an
// SLO incident is in flight. It is armed automatically by the first
// burn-rate alert fire, spills the flight-recorder rings and trace-stamped
// cycle spans to disk while any alert stays active, and closes — emitting a
// structured attribution envelope — once hysteresis has cleared every alert.
//
// A capture file (incident-%016d.cap) is a sequence of recordlog frames, one
// JSON-encoded captureRecord each (framing and the valid-prefix rule a torn
// or corrupt file is read by: package recordlog, DESIGN.md §11). Captures are
// written once and never rotated.
//
// A capture opens with a "meta" record (engine configuration, objectives,
// pre-arm alert seeds, trigger transitions), then carries interleaved "link"
// (link state changes, the lookback window's first), "samp" (flight-recorder
// batches), "span" (agent cycle spans) and "eval" (per-evaluation engine
// output) records, and closes with a "rep" (final conformance report) and an
// "env" (attribution envelope) record. "link" was added within version 1:
// captures written before it simply have none.

// captureVersion stamps the capture format; replay refuses versions it does
// not understand rather than silently misreading evidence.
const captureVersion = 1

// CaptureMeta is the opening record of a capture: everything a replay needs
// to rebuild an equivalent engine — configuration, objectives, and the alert
// state machines as they stood BEFORE the arming evaluation ran, so
// re-running that evaluation reproduces the arming transitions.
type CaptureMeta struct {
	Version    int       `json:"version"`
	Generation uint64    `json:"generation"`
	ArmedAt    time.Time `json:"armed_at"`

	Windows       Windows `json:"windows"`
	FastBurn      float64 `json:"fast_burn"`
	SlowBurn      float64 `json:"slow_burn"`
	ClearRatio    float64 `json:"clear_ratio"`
	ClearAfter    int     `json:"clear_after"`
	LossTolerance float64 `json:"loss_tolerance"`
	RingCapacity  int     `json:"ring_capacity"`

	Objectives map[string]float64      `json:"objectives,omitempty"`
	Alerts     map[string]ContractSeed `json:"alerts,omitempty"`
	Trigger    []Transition            `json:"trigger,omitempty"`
}

// SampBatch is one series' newly-captured samples, in record order. Pre
// marks the arm-time flush of the ring's retained history (pre-incident
// context); Dropped counts samples the ring overwrote before the capture
// could read them — honest accounting, never silently absorbed.
type SampBatch struct {
	Key     Key      `json:"key"`
	Samples []Sample `json:"samples,omitempty"`
	Dropped uint64   `json:"dropped,omitempty"`
	Pre     bool     `json:"pre,omitempty"`
}

// captureRecord is the envelope every capture payload decodes into; exactly
// one of the pointers is set, matching T.
type captureRecord struct {
	T    string       `json:"t"`
	Meta *CaptureMeta `json:"meta,omitempty"`
	Samp *SampBatch   `json:"samp,omitempty"`
	Span *CycleSpan   `json:"span,omitempty"`
	Eval *EvalRecord  `json:"eval,omitempty"`
	Link *LinkEvent   `json:"link,omitempty"`
	Rep  *Report      `json:"rep,omitempty"`
	Env  *Envelope    `json:"env,omitempty"`
}

// shapeOK checks the type/payload pairing a decoded record must satisfy;
// anything else poisons the stream from that point on.
func (r *captureRecord) shapeOK() bool {
	switch r.T {
	case "meta":
		return r.Meta != nil && r.Meta.Version == captureVersion
	case "samp":
		return r.Samp != nil && (len(r.Samp.Samples) > 0 || r.Samp.Dropped > 0)
	case "span":
		return r.Span != nil
	case "eval":
		return r.Eval != nil
	case "link":
		return r.Link != nil
	case "rep":
		return r.Rep != nil
	case "env":
		return r.Env != nil
	}
	return false
}

// decodeCaptureStream collects the records of r's valid prefix (recordlog.Scan;
// a record of the wrong shape ends it). It never fails on arbitrary bytes —
// the property FuzzBlackboxDecode pins.
func decodeCaptureStream(r io.Reader) (recs []captureRecord, valid int64, truncated bool) {
	valid, truncated = recordlog.Scan(r, func(payload []byte) bool {
		var rec captureRecord
		if err := json.Unmarshal(payload, &rec); err != nil || !rec.shapeOK() {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	return recs, valid, truncated
}

// capNames and envNames name one incident generation's capture and envelope
// files.
var (
	capNames = recordlog.Names{Prefix: "incident-", Suffix: ".cap"}
	envNames = recordlog.Names{Prefix: "incident-", Suffix: ".json"}
)

// BlackboxOptions configure a Blackbox. Dir is required; everything else
// has workable defaults.
type BlackboxOptions struct {
	// Dir is the capture directory. Created if absent.
	Dir string
	// MaxBytes bounds the directory's total capture footprint; the oldest
	// incidents are pruned at arm time to keep a fresh incident's budget
	// free. Default 32MiB.
	MaxBytes int64
	// MaxIncidentBytes bounds one capture file. Once exhausted, further
	// records are dropped (counted, surfaced in the envelope) rather than
	// growing without bound. Default MaxBytes/4.
	MaxIncidentBytes int64
	// Logger receives arm/close/degrade events. Nil disables logging.
	Logger *slog.Logger
}

func (o BlackboxOptions) withDefaults() BlackboxOptions {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 32 << 20
	}
	if o.MaxIncidentBytes <= 0 {
		o.MaxIncidentBytes = o.MaxBytes / 4
	}
	return o
}

// leadUpSpans is how many pre-incident cycle spans are retained while
// disarmed, to give the capture lead-up context; keptEnvelopes is how many
// closed-incident envelopes are kept in memory for /slo/incidents.
const (
	leadUpSpans   = 256
	keptEnvelopes = 16
)

// maxArmedSpans bounds the spans buffered between evaluations while armed;
// beyond it spans are dropped (counted), protecting memory if Evaluate
// stalls while agents keep reporting.
const maxArmedSpans = 32768

// Blackbox is the incident flight-data recorder. Attach one to an Engine
// via AttachCapture; it observes every evaluation and manages the
// arm → capture → close lifecycle by itself. RecordSpan is safe from any
// goroutine and cheap enough for per-cycle use (see BenchmarkBlackboxAppend);
// RecordLink is safe from any goroutine too.
type Blackbox struct {
	opts BlackboxOptions

	mu sync.Mutex
	// disarmed state: pre-incident context rings.
	spanRing []CycleSpan
	spanPos  uint64
	links    []LinkEvent // pruned to one fast-long window before the last evaluation
	// armed state.
	armed     bool
	failed    bool // a write error degraded this capture; lifecycle continues
	gen       uint64
	f         *os.File
	enc       recordlog.Encoder
	meta      *CaptureMeta
	bytes     int64
	records   int
	cursors   map[*Series]uint64
	spans     []CycleSpan
	fold      *verdictFold
	sampDrops uint64
	spanDrops uint64
	recDrops  uint64
	truncated bool
	// directory state.
	nextGen    uint64
	gens       []uint64
	genBytes   map[uint64]int64
	totalBytes int64
	envs       []*Envelope
}

// NewBlackbox opens (creating if needed) a capture directory and scans it
// for prior incidents: their envelopes are reloaded for /slo/incidents and
// their sizes count against the disk budget.
func NewBlackbox(opts BlackboxOptions) (*Blackbox, error) {
	if opts.Dir == "" {
		return nil, errors.New("slo: blackbox requires a directory")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("slo: blackbox dir: %w", err)
	}
	bb := &Blackbox{
		opts:     opts,
		spanRing: make([]CycleSpan, leadUpSpans),
		genBytes: make(map[uint64]int64),
		nextGen:  1,
	}
	for _, names := range []recordlog.Names{capNames, envNames} {
		gens, err := names.List(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("slo: blackbox scan: %w", err)
		}
		for _, gen := range gens {
			if info, err := os.Stat(names.Path(opts.Dir, gen)); err == nil {
				bb.genBytes[gen] += info.Size()
				bb.totalBytes += info.Size()
			}
			bb.gens = append(bb.gens, gen)
		}
	}
	slices.Sort(bb.gens)
	bb.gens = slices.Compact(bb.gens) // a closed incident has both files
	if n := len(bb.gens); n > 0 {
		bb.nextGen = bb.gens[n-1] + 1
	}
	// Reload the most recent envelopes, oldest first.
	start := 0
	if len(bb.gens) > keptEnvelopes {
		start = len(bb.gens) - keptEnvelopes
	}
	for _, gen := range bb.gens[start:] {
		if env := loadEnvelope(opts.Dir, gen); env != nil {
			bb.envs = append(bb.envs, env)
		}
	}
	return bb, nil
}

// loadEnvelope reads one generation's envelope from its .json sidecar, or —
// when that is missing or torn — from the capture's own env record: the
// capture syncs its env record before the sidecar is written, so a crash in
// between leaves only the capture holding it. Nil when the incident never
// closed (crash mid-incident).
func loadEnvelope(dir string, gen uint64) *Envelope {
	if data, err := os.ReadFile(envNames.Path(dir, gen)); err == nil {
		var env Envelope
		if json.Unmarshal(data, &env) == nil {
			return &env
		}
	}
	if c, err := ReadCapture(capNames.Path(dir, gen)); err == nil {
		return c.Envelope()
	}
	return nil
}

// RecordSpan feeds one enforcement-cycle span into the box. While disarmed
// it lands in a fixed ring (pre-incident context); while armed it is
// buffered for the next evaluation's flush. The fast path is one mutex
// round-trip and one struct copy — cheap enough to call every agent cycle.
func (bb *Blackbox) RecordSpan(sp CycleSpan) {
	bb.mu.Lock()
	if bb.armed {
		if len(bb.spans) < maxArmedSpans {
			bb.spans = append(bb.spans, sp)
		} else {
			bb.spanDrops++
			mBBDrops.Inc()
		}
	} else {
		bb.spanRing[bb.spanPos%uint64(len(bb.spanRing))] = sp
		bb.spanPos++
	}
	bb.mu.Unlock()
}

// RecordLink feeds one link state change into the box. While disarmed it is
// held for the lookback window (the root-cause change precedes the alert by
// the burn-rate detection delay); while armed it is written at once. Link
// records are never withheld by the byte budget: they are the envelope's
// only network evidence.
func (bb *Blackbox) RecordLink(ev LinkEvent) {
	bb.mu.Lock()
	defer bb.mu.Unlock()
	if !bb.armed {
		bb.links = append(bb.links, ev)
		return
	}
	bb.writeLinkLocked(ev)
}

func (bb *Blackbox) writeLinkLocked(ev LinkEvent) {
	bb.writeLocked(&captureRecord{T: "link", Link: &ev})
	bb.fold.link(ev)
}

// Armed reports whether an incident capture is in flight.
func (bb *Blackbox) Armed() bool {
	bb.mu.Lock()
	defer bb.mu.Unlock()
	return bb.armed
}

// Envelopes returns the closed-incident envelopes on record, oldest first.
func (bb *Blackbox) Envelopes() []*Envelope {
	bb.mu.Lock()
	defer bb.mu.Unlock()
	return append([]*Envelope(nil), bb.envs...)
}

// IncidentsHandler serves the closed-incident envelopes (oldest first) plus
// the live armed flag as JSON — the /slo/incidents endpoint.
func (bb *Blackbox) IncidentsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := struct {
			Armed     bool        `json:"armed"`
			Incidents []*Envelope `json:"incidents"`
		}{bb.Armed(), bb.Envelopes()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
}

// observe is the engine's per-evaluation callback, invoked under the engine
// lock with the PRE-judge alert seeds and the transitions the evaluation
// produced. It drives the whole lifecycle: arm on fire, flush while armed,
// close on all-clear.
func (bb *Blackbox) observe(e *Engine, now time.Time, pre map[string]ContractSeed, trans []Transition) {
	bb.mu.Lock()
	defer bb.mu.Unlock()
	if !bb.armed {
		cutoff := now.Add(-e.opts.Windows.FastLong)
		bb.links = slices.DeleteFunc(bb.links, func(ev LinkEvent) bool { return ev.At.Before(cutoff) })
		fired := false
		for _, t := range trans {
			if t.Active {
				fired = true
				break
			}
		}
		if !fired {
			return
		}
		bb.armLocked(e, now, pre, trans)
		return
	}
	bb.flushLocked(e, false)
	ev := e.evalRecordLocked(now, trans)
	bb.writeLocked(&captureRecord{T: "eval", Eval: &ev})
	bb.syncLocked()
	if !anyAlertActiveLocked(e) {
		bb.closeIncidentLocked(e, now)
	}
}

func anyAlertActiveLocked(e *Engine) bool {
	for _, name := range e.order {
		cs := e.contracts[name]
		if cs.fast.active || cs.slow.active {
			return true
		}
	}
	return false
}

// armLocked opens a new capture generation and writes the arm-time state:
// meta, the lookback window's link changes, the pre-incident span ring, the
// full retained flight-recorder history, and the arming evaluation's output.
func (bb *Blackbox) armLocked(e *Engine, now time.Time, pre map[string]ContractSeed, trans []Transition) {
	bb.armed = true
	bb.failed = false
	bb.gen = bb.nextGen
	bb.nextGen++
	bb.bytes = 0
	bb.records = 0
	bb.sampDrops = 0
	bb.spanDrops = 0
	bb.recDrops = 0
	bb.truncated = false
	bb.cursors = make(map[*Series]uint64)
	bb.fold = newVerdictFold(e.opts.LossTolerance)
	bb.spans = bb.spans[:0]
	bb.pruneLocked()

	f, err := os.OpenFile(capNames.Path(bb.opts.Dir, bb.gen), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		bb.failed = true
		mBBErrors.Inc()
		if bb.opts.Logger != nil {
			bb.opts.Logger.Error("slo.blackbox arm failed", slog.Any("err", err))
		}
	}
	bb.f = f

	bb.meta = &CaptureMeta{
		Version:       captureVersion,
		Generation:    bb.gen,
		ArmedAt:       now,
		Windows:       e.opts.Windows,
		FastBurn:      e.opts.FastBurn,
		SlowBurn:      e.opts.SlowBurn,
		ClearRatio:    e.opts.ClearRatio,
		ClearAfter:    e.opts.ClearAfter,
		LossTolerance: e.opts.LossTolerance,
		RingCapacity:  e.rec.Capacity(),
		Objectives:    e.objectivesLocked(),
		Alerts:        pre,
		Trigger:       trans,
	}
	bb.writeLocked(&captureRecord{T: "meta", Meta: bb.meta})
	for _, ev := range bb.links {
		bb.writeLinkLocked(ev)
	}
	bb.links = bb.links[:0]

	// Pre-incident spans from the disarmed ring, oldest first.
	n, capn := bb.spanPos, uint64(len(bb.spanRing))
	start := uint64(0)
	if n > capn {
		start = n - capn
	}
	for i := start; i < n; i++ {
		sp := bb.spanRing[i%capn]
		bb.writeLocked(&captureRecord{T: "span", Span: &sp})
		bb.fold.span(sp)
	}

	bb.flushLocked(e, true)
	ev := e.evalRecordLocked(now, trans)
	bb.writeLocked(&captureRecord{T: "eval", Eval: &ev})
	bb.syncLocked()

	mBBCaptures.Inc()
	mBBArmed.Set(1)
	if bb.opts.Logger != nil {
		bb.opts.Logger.Warn("slo.blackbox armed",
			slog.Uint64("generation", bb.gen), slog.Time("at", now),
			slog.Int("trigger_transitions", len(trans)))
	}
}

// flushLocked drains every series up to the ENGINE's evaluation cursor (not
// the live writer position): the capture must hold exactly the samples this
// evaluation folded, so replay folds them at the same evaluation. Series are
// visited in sorted key order for deterministic record layout.
func (bb *Blackbox) flushLocked(e *Engine, pre bool) {
	var list []*Series
	e.rec.Each(func(s *Series) { list = append(list, s) })
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i].Key(), list[j].Key()
		if a.Contract != b.Contract {
			return a.Contract < b.Contract
		}
		if a.Segment != b.Segment {
			return a.Segment < b.Segment
		}
		return a.Class < b.Class
	})
	for _, s := range list {
		bound := e.cursors[s]
		from := bb.cursors[s]
		if from >= bound {
			continue
		}
		batch := SampBatch{Key: s.Key(), Pre: pre}
		next, dropped := s.drainRange(from, bound, func(sm Sample) {
			batch.Samples = append(batch.Samples, sm)
		})
		bb.fold.samples(batch.Key, batch.Samples)
		bb.cursors[s] = next
		if dropped > 0 {
			batch.Dropped = dropped
			bb.sampDrops += dropped
			mBBDrops.Add(int64(dropped))
			if pre {
				// The ring was lapped before arming: the engine folded
				// samples the capture can never recover, so replay cannot be
				// byte-identical. Flagged, never hidden.
				bb.truncated = true
			}
		}
		if len(batch.Samples) > 0 || dropped > 0 {
			bb.writeLocked(&captureRecord{T: "samp", Samp: &batch})
		}
	}
	for i := range bb.spans {
		bb.writeLocked(&captureRecord{T: "span", Span: &bb.spans[i]})
		bb.fold.span(bb.spans[i])
	}
	bb.spans = bb.spans[:0]
}

// writeLocked frames and appends one record, enforcing the per-incident
// byte budget on the bulky record types. Failures degrade the capture (the
// lifecycle continues, metrics and logs tell the operator) — the black box
// must never take down the SLO plane it is documenting.
func (bb *Blackbox) writeLocked(rec *captureRecord) {
	if bb.failed || bb.f == nil {
		bb.recDrops++
		return
	}
	if bb.bytes >= bb.opts.MaxIncidentBytes && (rec.T == "samp" || rec.T == "span" || rec.T == "eval") {
		bb.recDrops++
		mBBDrops.Inc()
		return
	}
	buf, err := bb.enc.Encode(rec)
	if err == nil {
		_, err = bb.f.Write(buf)
	}
	if err != nil {
		bb.failed = true
		mBBErrors.Inc()
		if bb.opts.Logger != nil {
			bb.opts.Logger.Error("slo.blackbox write failed",
				slog.Uint64("generation", bb.gen), slog.Any("err", err))
		}
		return
	}
	bb.bytes += int64(len(buf))
	bb.records++
	bb.totalBytes += int64(len(buf))
	bb.genBytes[bb.gen] += int64(len(buf))
	mBBRecords.With(rec.T).Inc()
	mBBBytes.Add(int64(len(buf)))
}

func (bb *Blackbox) syncLocked() {
	if bb.failed || bb.f == nil {
		return
	}
	if err := bb.f.Sync(); err != nil {
		bb.failed = true
		mBBErrors.Inc()
	}
}

// closeIncidentLocked writes the closing report and attribution envelope,
// seals the capture file, and publishes the envelope.
func (bb *Blackbox) closeIncidentLocked(e *Engine, now time.Time) {
	rep := e.reportLocked(now)
	bb.writeLocked(&captureRecord{T: "rep", Rep: rep})
	env := bb.fold.envelope(bb.meta, rep)
	env.Capture = CaptureStats{
		File:             capNames.Path(bb.opts.Dir, bb.gen),
		Records:          bb.records,
		Bytes:            bb.bytes,
		DroppedRecords:   bb.recDrops,
		DroppedSamples:   bb.sampDrops,
		DroppedSpans:     bb.spanDrops,
		TruncatedHistory: bb.truncated,
		WriteFailed:      bb.failed,
	}
	bb.writeLocked(&captureRecord{T: "env", Env: env})
	bb.syncLocked()
	if bb.f != nil {
		bb.f.Close()
		bb.f = nil
	}
	bb.gens = append(bb.gens, bb.gen)

	if data, err := json.MarshalIndent(env, "", "  "); err == nil {
		if err := os.WriteFile(envNames.Path(bb.opts.Dir, bb.gen), data, 0o644); err != nil {
			mBBErrors.Inc()
		} else {
			bb.totalBytes += int64(len(data))
			bb.genBytes[bb.gen] += int64(len(data))
		}
	}
	bb.envs = append(bb.envs, env)
	if len(bb.envs) > keptEnvelopes {
		bb.envs = bb.envs[len(bb.envs)-keptEnvelopes:]
	}

	// Back to disarmed: stale pre-incident context must not leak into the
	// next capture.
	bb.armed = false
	bb.meta = nil
	bb.cursors = nil
	bb.fold = nil
	bb.spanPos = 0
	mBBArmed.Set(0)
	mIncidents.Inc()
	if bb.opts.Logger != nil {
		bb.opts.Logger.Info("slo.blackbox incident closed",
			slog.Uint64("generation", env.Generation), slog.Time("at", now),
			slog.Int64("bytes", env.Capture.Bytes),
			slog.Int("records", env.Capture.Records))
	}
}

// pruneLocked deletes the oldest retained incidents until the directory
// budget has room for one fresh full-size capture.
func (bb *Blackbox) pruneLocked() {
	for len(bb.gens) > 0 && bb.totalBytes+bb.opts.MaxIncidentBytes > bb.opts.MaxBytes {
		gen := bb.gens[0]
		bb.gens = bb.gens[1:]
		os.Remove(capNames.Path(bb.opts.Dir, gen))
		os.Remove(envNames.Path(bb.opts.Dir, gen))
		bb.totalBytes -= bb.genBytes[gen]
		delete(bb.genBytes, gen)
		if bb.opts.Logger != nil {
			bb.opts.Logger.Info("slo.blackbox pruned capture", slog.Uint64("generation", gen))
		}
	}
}
