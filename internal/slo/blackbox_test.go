package slo

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"entitlement/internal/faults"
	"entitlement/internal/recordlog"
)

// incidentRig drives one synthetic incident through an engine with a capture
// attached: good traffic, a throttled burst that fires the burn-rate alerts,
// then good traffic until hysteresis clears them and the box closes.
type incidentRig struct {
	eng  *Engine
	rec  *Recorder
	bb   *Blackbox
	link LinkEvent // the link each incident blackholes
	key  Key
	now  time.Time
}

func newIncidentRig(t testing.TB, dir string, opts BlackboxOptions) *incidentRig {
	t.Helper()
	opts.Dir = dir
	rec := NewRecorder(DefaultRingCapacity)
	eng := NewEngine(rec, Options{Windows: Windows{
		Fast: 10 * time.Second, FastLong: 20 * time.Second,
		Slow: 30 * time.Second, SlowLong: 60 * time.Second,
	}})
	eng.SetObjective("C", 0.999)
	bb, err := NewBlackbox(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachCapture(bb)
	return &incidentRig{
		eng: eng, rec: rec, bb: bb, link: LinkEvent{ID: 0, Name: "A->B", SRLG: 3},
		key: Key{Contract: "C", Segment: "A/net", Class: "c4_low"},
		now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

// tick records one second of traffic (throttled when bad), a cycle span, and
// evaluates. Returns the rig's clock after the tick.
func (r *incidentRig) tick(bad bool) time.Time {
	r.now = r.now.Add(time.Second)
	sm := Sample{At: r.now, Granted: 1e9, Used: 1e9}
	sp := CycleSpan{At: r.now, Host: "h1", Contract: "C", TraceID: "h1-c1"}
	if bad {
		sm.Used = 5e8
		sm.Throttled = 5e8
		sm.Overage = 2e8
		sp.Degraded = true
		sp.FailedOpen = true
		sp.TraceID = "h1-c9"
		sp.StaleFor = 4 * time.Second
	}
	r.rec.Series(r.key).Record(sm)
	r.bb.RecordSpan(sp)
	r.eng.Evaluate(r.now)
	return r.now
}

// runIncident plays goodBefore good ticks, badTicks throttled ticks (with the
// rig's link reported down just before them and up again after them, while
// armed), then good ticks until the box disarms (or maxTicks elapse). The
// closed incident must then re-derive from its capture alone.
func (r *incidentRig) runIncident(t testing.TB, goodBefore, badTicks, maxTicks int) {
	t.Helper()
	for i := 0; i < goodBefore; i++ {
		r.tick(false)
		if r.bb.Armed() {
			t.Fatalf("armed after %d good ticks with no incident", i+1)
		}
	}
	r.setLink(true)
	for i := 0; i < badTicks; i++ {
		r.tick(true)
	}
	r.setLink(false)
	if !r.bb.Armed() {
		t.Fatal("burn-rate fire did not arm the black box")
	}
	for i := goodBefore + badTicks; i < maxTicks && r.bb.Armed(); i++ {
		r.tick(false)
	}
	if r.bb.Armed() {
		t.Fatalf("incident did not close within %d ticks", maxTicks)
	}
	r.requireReplayedEnvelope(t)
}

func (r *incidentRig) setLink(down bool) {
	ev := r.link
	ev.At, ev.Down = r.now, down
	r.bb.RecordLink(ev)
}

// requireReplayedEnvelope replays the latest closed incident's capture: the
// envelope Replay recomputes must equal the live one, except that a capture
// which withheld records must say so as its divergence — and even then its
// network half, folded from link records the budget never withholds, must
// match.
func (r *incidentRig) requireReplayedEnvelope(t testing.TB) *ReplayResult {
	t.Helper()
	envs := r.bb.Envelopes()
	env := envs[len(envs)-1]
	c, err := ReadCapture(env.Capture.File)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if res.Envelope == nil || !jsonEqual(res.Envelope.Network, env.Network) {
		t.Fatalf("replayed network %+v, live %+v", res.Envelope, env.Network)
	}
	if env.Capture.DroppedRecords > 0 {
		if res.Identical || !strings.Contains(res.Divergence, "withheld") {
			t.Fatalf("capture withheld %d records, replay says identical=%v %q",
				env.Capture.DroppedRecords, res.Identical, res.Divergence)
		}
		return res
	}
	if !res.Identical {
		t.Fatalf("replay diverged: %s", res.Divergence)
	}
	if !jsonEqual(res.Envelope, env) {
		a, _ := json.Marshal(res.Envelope)
		b, _ := json.Marshal(env)
		t.Fatalf("replayed envelope differs from the live one:\nreplay %s\nlive   %s", a, b)
	}
	return res
}

// TestBlackboxLifecycle drives arm → capture → close end to end at package
// scope and checks the capture, envelope, index, and replay line up.
func TestBlackboxLifecycle(t *testing.T) {
	dir := t.TempDir()
	rig := newIncidentRig(t, dir, BlackboxOptions{})
	rig.runIncident(t, 10, 5, 200)

	envs := rig.bb.Envelopes()
	if len(envs) != 1 {
		t.Fatalf("got %d envelopes, want 1", len(envs))
	}
	env := envs[0]
	if len(env.Contracts) != 1 || env.Contracts[0].Contract != "C" {
		t.Fatalf("envelope contracts = %+v", env.Contracts)
	}
	c := env.Contracts[0]
	if !c.Breached || c.Availability >= 0.999 {
		t.Errorf("capture-window verdict not breached: %+v", c)
	}
	if len(c.Segments) != 1 || c.Segments[0].Verdict != "network" {
		t.Errorf("segment verdict = %+v, want network", c.Segments)
	}
	if c.Segments[0].BadIntervals != 5 || c.Segments[0].OverIntervals != 5 {
		t.Errorf("interval counts = %+v, want 5 bad / 5 over", c.Segments[0])
	}
	if c.ServiceOverageRate <= 0 || c.NetworkThrottledRate <= 0 {
		t.Errorf("demarcation rates missing: %+v", c)
	}
	if want := []LinkChange{{ID: 0, Name: "A->B", SRLG: 3}}; !jsonEqual(env.Network.Changed, want) {
		t.Errorf("network attribution = %+v, want the blackholed link, restored", env.Network)
	}
	if len(env.Agents) != 1 || env.Agents[0].FailOpenCycles != 5 || env.Agents[0].FailOpenTraceID != "h1-c9" {
		t.Errorf("agent aggregate = %+v", env.Agents)
	}
	if env.Capture.Records == 0 || env.Capture.Bytes == 0 || env.Capture.TruncatedHistory {
		t.Errorf("capture stats = %+v", env.Capture)
	}

	caps, err := ListCaptures(dir)
	if err != nil || len(caps) != 1 {
		t.Fatalf("ListCaptures = %v, %v", caps, err)
	}
	cap0, err := ReadCapture(caps[0])
	if err != nil {
		t.Fatal(err)
	}
	idx := cap0.Index()
	if idx.Truncated || !idx.HasReport || !idx.HasEnvelope || idx.Evals == 0 || idx.Spans == 0 {
		t.Fatalf("index = %+v", idx)
	}
	// The arm-time flush carries the full retained pre-incident ring, so the
	// capture holds MORE samples than the incident window alone.
	if idx.Samples < 15 {
		t.Errorf("capture holds %d samples, want the pre-incident history too", idx.Samples)
	}
	res, err := cap0.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatalf("package-scope replay diverged: %s", res.Divergence)
	}

	// A second incident gets its own generation and envelope.
	rig.runIncident(t, 70, 5, 300)
	if got := len(rig.bb.Envelopes()); got != 2 {
		t.Fatalf("after second incident: %d envelopes, want 2", got)
	}
	caps, _ = ListCaptures(dir)
	if len(caps) != 2 {
		t.Fatalf("after second incident: %d captures, want 2", len(caps))
	}

	// A fresh Blackbox over the same directory rescans it: envelopes reload,
	// the generation counter resumes past what is on disk.
	bb2, err := NewBlackbox(BlackboxOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bb2.Envelopes()); got != 2 {
		t.Fatalf("rescan reloaded %d envelopes, want 2", got)
	}
	if bb2.nextGen != 3 {
		t.Fatalf("rescan resumed at generation %d, want 3", bb2.nextGen)
	}
}

// TestBlackboxDiskBudget pins the retention contract: the directory never
// holds more than MaxBytes of capture data plus one in-flight incident, old
// generations are pruned oldest-first, and a capture that hits its own byte
// budget drops records HONESTLY — counted in the envelope, never silent.
func TestBlackboxDiskBudget(t *testing.T) {
	dir := t.TempDir()
	rig := newIncidentRig(t, dir, BlackboxOptions{MaxBytes: 24 << 10, MaxIncidentBytes: 6 << 10})
	rig.runIncident(t, 10, 5, 200)
	for i := 0; i < 4; i++ {
		rig.runIncident(t, 70, 5, 500)
	}
	envs := rig.bb.Envelopes()
	if len(envs) != 5 {
		t.Fatalf("ran 5 incidents, got %d envelopes", len(envs))
	}
	for i, env := range envs {
		if env.Capture.DroppedRecords == 0 {
			t.Errorf("incident %d wrote %d bytes without hitting the %d budget?", i, env.Capture.Bytes, 6<<10)
		}
		if env.Capture.Bytes >= 7<<10 {
			t.Errorf("incident %d capture %d bytes exceeds budget", i, env.Capture.Bytes)
		}
	}
	caps, err := ListCaptures(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) >= 5 {
		t.Fatalf("%d captures retained, want oldest pruned", len(caps))
	}
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	if total > 24<<10 {
		t.Fatalf("directory holds %d bytes, budget is %d", total, 24<<10)
	}
	// The newest capture survived pruning.
	if !strings.HasSuffix(caps[len(caps)-1], "incident-0000000000000005.cap") {
		t.Errorf("newest capture missing; retained: %v", caps)
	}
}

// TestBlackboxCrashTail damages a finished capture the way a crash mid-write
// would (torn tail, flipped bit, appended garbage) and checks ReadCapture
// keeps a usable valid prefix: decode never errors on tail damage, the prefix
// re-decodes cleanly, and a replay over it either succeeds or reports honest
// divergence — it must never panic or invent records.
func TestBlackboxCrashTail(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		dir := t.TempDir()
		rig := newIncidentRig(t, dir, BlackboxOptions{})
		rig.runIncident(t, 10, 5, 200)
		caps, _ := ListCaptures(dir)
		if len(caps) != 1 {
			t.Fatal("expected one capture")
		}
		pristine, err := os.ReadFile(caps[0])
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		desc, err := faults.CrashTail(caps[0], rng, 512)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ReadCapture(caps[0])
		if err != nil {
			// Only total destruction of the opening meta record may fail.
			t.Fatalf("seed %d (%s): ReadCapture: %v", seed, desc, err)
		}
		if c.ValidBytes > int64(len(pristine)) {
			t.Fatalf("seed %d (%s): valid prefix %d exceeds pristine size %d", seed, desc, c.ValidBytes, len(pristine))
		}
		res, err := c.Replay()
		if err != nil {
			t.Fatalf("seed %d (%s): replay: %v", seed, desc, err)
		}
		if c.Truncated && res.Identical {
			t.Fatalf("seed %d (%s): truncated capture claimed byte-identity", seed, desc)
		}
	}
}

// TestBlackboxWriteFailure closes the capture file under the box's feet: the
// SLO plane must keep running, the lifecycle must still close, and the
// envelope must confess the capture was degraded.
func TestBlackboxWriteFailure(t *testing.T) {
	dir := t.TempDir()
	rig := newIncidentRig(t, dir, BlackboxOptions{})
	for i := 0; i < 10; i++ {
		rig.tick(false)
	}
	for i := 0; i < 5; i++ {
		rig.tick(true)
	}
	if !rig.bb.Armed() {
		t.Fatal("did not arm")
	}
	rig.bb.mu.Lock()
	rig.bb.f.Close() // every subsequent write now errors
	rig.bb.mu.Unlock()
	for i := 0; i < 200 && rig.bb.Armed(); i++ {
		rig.tick(false)
	}
	if rig.bb.Armed() {
		t.Fatal("write failure wedged the lifecycle open")
	}
	envs := rig.bb.Envelopes()
	if len(envs) != 1 || !envs[0].Capture.WriteFailed {
		t.Fatalf("envelope does not confess the write failure: %+v", envs)
	}
}

// TestReadParentCapture reads a closed incident's capture written by the
// commit before the capture format moved into package recordlog
// (testdata/capture-pr15, with that commit's own index and replay of it).
// This commit must find the same records in the same bytes, frame every one
// of them to the bytes on disk, and replay the incident identically.
func TestReadParentCapture(t *testing.T) {
	fixture := filepath.Join("testdata", "capture-pr15")
	caps, err := ListCaptures(fixture)
	if err != nil || len(caps) != 1 {
		t.Fatalf("ListCaptures = %v, %v", caps, err)
	}
	c, err := ReadCapture(caps[0])
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(caps[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.Truncated || c.ValidBytes != int64(len(data)) {
		t.Fatalf("valid prefix %d of %d bytes, truncated=%v", c.ValidBytes, len(data), c.Truncated)
	}
	golden := func(name string, v interface{}) {
		t.Helper()
		got, _ := json.MarshalIndent(v, "", " ")
		want, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s differs from the parent commit's:\nwant %s\ngot  %s", name, want, got)
		}
	}
	idx := c.Index()
	idx.Path = ""
	golden("index.json", idx)

	// Framing: each record's original payload, re-framed, is the bytes on
	// disk (the structs have since lost fields, so re-marshaling them is not).
	var payloads []json.RawMessage
	recordlog.Scan(bytes.NewReader(data), func(p []byte) bool {
		payloads = append(payloads, append(json.RawMessage(nil), p...))
		return true
	})
	if len(payloads) != len(c.records) {
		t.Fatalf("%d framed payloads, %d decoded records", len(payloads), len(c.records))
	}
	var enc recordlog.Encoder
	var again []byte
	for _, p := range payloads {
		b, err := enc.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		again = append(again, b...)
	}
	if !bytes.Equal(again, data) {
		t.Errorf("re-framing the capture's %d payloads yields different bytes", len(payloads))
	}

	res, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Errorf("replay diverged: %s", res.Divergence)
	}
	// Written before link records existed: the network half is carried,
	// every other section recomputed, and the whole equals the recording.
	if !jsonEqual(res.Envelope, c.Envelope()) {
		t.Errorf("recomputed envelope %+v differs from the recorded one", res.Envelope)
	}
	golden("replay.json", res)
}

// TestBlackboxLinkLookback pins which link changes an envelope names: one
// that went down just before the alert fired and recovered while armed is
// named with its last state (disabled:false); one toggled more than a
// fast-long window (20s here) before arming has left the lookback ring and is
// not.
func TestBlackboxLinkLookback(t *testing.T) {
	rig := newIncidentRig(t, t.TempDir(), BlackboxOptions{})
	for i := 0; i < 10; i++ {
		rig.tick(false)
	}
	stale := LinkEvent{At: rig.now, ID: 1, Name: "B->A", SRLG: 3, Down: true}
	rig.bb.RecordLink(stale)
	rig.tick(false)
	stale.At, stale.Down = rig.now, false
	rig.bb.RecordLink(stale)
	for i := 0; i < 25; i++ {
		rig.tick(false)
	}
	rig.runIncident(t, 0, 5, 200)

	env := rig.bb.Envelopes()[0]
	if want := []LinkChange{{ID: 0, Name: "A->B", SRLG: 3}}; !jsonEqual(env.Network.Changed, want) {
		t.Errorf("network attribution = %+v, want only the incident's link, restored", env.Network.Changed)
	}
	c, err := ReadCapture(env.Capture.File)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Index().Records["link"]; got != 2 {
		t.Errorf("capture holds %d link records, want the incident link's down and up", got)
	}
}

// TestBlackboxLinkRecordsSurviveBudget exhausts the per-incident byte budget
// with the opening record: every samp/span/eval is withheld, yet both link
// records land, so the envelope's network half still re-derives from the
// capture.
func TestBlackboxLinkRecordsSurviveBudget(t *testing.T) {
	rig := newIncidentRig(t, t.TempDir(), BlackboxOptions{MaxIncidentBytes: 1})
	rig.runIncident(t, 10, 5, 200)
	env := rig.bb.Envelopes()[0]
	if env.Capture.DroppedRecords == 0 {
		t.Fatal("a 1-byte budget withheld nothing")
	}
	c, err := ReadCapture(env.Capture.File)
	if err != nil {
		t.Fatal(err)
	}
	idx := c.Index()
	if idx.Records["link"] != 2 || idx.Records["samp"] != 0 || idx.Evals != 0 {
		t.Errorf("records = %v, want both link records and no samp/eval", idx.Records)
	}
	if len(env.Network.Changed) != 1 || env.Network.Changed[0].Name != "A->B" {
		t.Errorf("network attribution = %+v", env.Network)
	}
}

// TestBlackboxEnvelopeFromCapture is the crash between syncing a capture's
// env record and writing its .json sidecar: a reopened box still lists the
// envelope, read back from the capture, whether the sidecar is gone or torn.
func TestBlackboxEnvelopeFromCapture(t *testing.T) {
	dir := t.TempDir()
	rig := newIncidentRig(t, dir, BlackboxOptions{})
	rig.runIncident(t, 10, 5, 200)
	rig.runIncident(t, 70, 5, 300)
	want := rig.bb.Envelopes()
	if err := os.Remove(envNames.Path(dir, 1)); err != nil {
		t.Fatal(err)
	}
	torn := envNames.Path(dir, 2)
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	bb, err := NewBlackbox(BlackboxOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := bb.Envelopes(); !jsonEqual(got, want) {
		t.Fatalf("reopened box lists %d envelopes, want the %d closed ones", len(got), len(want))
	}
}

// TestReplayEnvelopeDivergence: an env record whose verdict disagrees with
// the records before it is named as such, not passed as identical.
func TestReplayEnvelopeDivergence(t *testing.T) {
	dir := t.TempDir()
	newIncidentRig(t, dir, BlackboxOptions{}).runIncident(t, 10, 5, 200)
	caps, _ := ListCaptures(dir)
	for name, tamper := range map[string]func(*Envelope){
		"contracts": func(env *Envelope) { env.Contracts[0].Availability = 1 },
		"network":   func(env *Envelope) { env.Network.Changed[0].Disabled = true },
		"agents":    func(env *Envelope) { env.Agents = nil },
	} {
		c, err := ReadCapture(caps[0])
		if err != nil {
			t.Fatal(err)
		}
		tamper(c.records[len(c.records)-1].Env)
		res, err := c.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if res.Identical || res.Divergence != "envelope diverged" {
			t.Errorf("%s tampered: identical=%v divergence %q", name, res.Identical, res.Divergence)
		}
	}
}
