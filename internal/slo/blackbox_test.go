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
	"entitlement/internal/topology"
)

// incidentRig drives one synthetic incident through an engine with a capture
// attached: good traffic, a throttled burst that fires the burn-rate alerts,
// then good traffic until hysteresis clears them and the box closes.
type incidentRig struct {
	eng  *Engine
	rec  *Recorder
	bb   *Blackbox
	topo *topology.Topology
	link int
	key  Key
	now  time.Time
}

func newIncidentRig(t testing.TB, dir string, opts BlackboxOptions) *incidentRig {
	t.Helper()
	topo := topology.New()
	link, err := topo.AddLink("A", "B", 1e12, 0, topo.EnsureSRLG(3, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	opts.Dir = dir
	if opts.Topology == nil {
		opts.Topology = topo
	}
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
		eng: eng, rec: rec, bb: bb, topo: topo, link: link,
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
// topology link blackholed for their duration), then good ticks until the box
// disarms (or maxTicks elapse).
func (r *incidentRig) runIncident(t testing.TB, goodBefore, badTicks, maxTicks int) {
	t.Helper()
	for i := 0; i < goodBefore; i++ {
		r.tick(false)
		if r.bb.Armed() {
			t.Fatalf("armed after %d good ticks with no incident", i+1)
		}
	}
	r.topo.SetLinkDisabled(r.link, true)
	for i := 0; i < badTicks; i++ {
		r.tick(true)
	}
	r.topo.SetLinkDisabled(r.link, false)
	if !r.bb.Armed() {
		t.Fatal("burn-rate fire did not arm the black box")
	}
	for i := goodBefore + badTicks; i < maxTicks && r.bb.Armed(); i++ {
		r.tick(false)
	}
	if r.bb.Armed() {
		t.Fatalf("incident did not close within %d ticks", maxTicks)
	}
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
	if env.Network.DeltaTruncated || len(env.Network.Changed) == 0 {
		t.Fatalf("network attribution = %+v, want the blackholed link", env.Network)
	}
	if lc := env.Network.Changed[0]; lc.ID != rig.link || lc.Name != "A->B" || lc.Disabled {
		t.Errorf("implicated link = %+v", lc)
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

	var enc recordlog.Encoder
	var again []byte
	for i := range c.records {
		b, err := enc.Encode(&c.records[i])
		if err != nil {
			t.Fatal(err)
		}
		again = append(again, b...)
	}
	if !bytes.Equal(again, data) {
		t.Errorf("re-encoding the capture's %d records yields different bytes", len(c.records))
	}

	res, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Errorf("replay diverged: %s", res.Divergence)
	}
	golden("replay.json", res)
}
