package integration

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"entitlement/internal/netsim"
	"entitlement/internal/obs"
	otrace "entitlement/internal/obs/trace"
	"entitlement/internal/slo"
)

// TestBlackboxIncidentReplay is the acceptance drill for the incident black
// box: a netsim drill runs with an injected incident that blackholes half of
// Coldstorage's traffic AND knocks out three agents' control-plane
// dependencies, and reports the blackholed link's down/up into the box.
// The burn-rate alerts must arm a capture, the capture must close with an
// attribution envelope naming the injected root cause — the disabled link,
// the breached contract with its service-attributed overage, and the
// fail-open agents with their trace IDs — and `sloctl replay`'s engine path
// must re-derive the live run's availability series, alert sequence,
// closing conformance verdicts and the envelope itself byte-identically from
// the capture alone.
// Black-box lifecycle metrics are pinned with exact deltas.
func TestBlackboxIncidentReplay(t *testing.T) {
	const (
		stageTicks = 60
		// Inside the entitlement-reduced stage, clear of the ACL stages.
		incidentLo = 65
		incidentHi = 85
		failAgents = 3
		objective  = 0.999
		srlg       = 7
	)
	simStart := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	simTimeAt := func(tick int) time.Time {
		return simStart.Add(time.Duration(tick+1) * time.Second)
	}

	// Windows compressed so every alert clears inside the 360-tick run: the
	// slow pair's bad intervals age out of the 240s budget window by tick
	// ~330, letting the incident close and the envelope publish.
	eng := slo.NewEngine(slo.NewRecorder(slo.DefaultRingCapacity), slo.Options{
		Windows: slo.Windows{
			Fast:     30 * time.Second,
			FastLong: 60 * time.Second,
			Slow:     120 * time.Second,
			SlowLong: 240 * time.Second,
		},
	})
	dir := t.TempDir()
	bb, err := slo.NewBlackbox(slo.BlackboxOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachCapture(bb)

	ms, err := obs.Serve("127.0.0.1:0", nil,
		obs.Route{Pattern: "/slo/incidents", Handler: bb.IncidentsHandler()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	base := scrapeHTTP(t, ms.Addr())

	opts := netsim.DefaultDrillOptions()
	opts.Hosts = 10
	opts.FlowsPerHost = 2
	opts.StageTicks = stageTicks
	opts.Conformance = eng
	opts.Spans = bb
	opts.Tracer = otrace.NewCollector(otrace.Options{})
	opts.Incident = &netsim.DrillIncident{
		StartTick: incidentLo, EndTick: incidentHi, DropFraction: 0.5,
		FailAgents: failAgents, Links: bb, SRLG: srlg,
	}

	var armedTicks int
	opts.OnTick = func(tick int) {
		if bb.Armed() {
			armedTicks++
		}
	}
	if _, err := netsim.RunDrill(opts); err != nil {
		t.Fatal(err)
	}

	// --- Lifecycle: armed during the incident, closed by run end. -------
	if armedTicks == 0 {
		t.Fatal("black box never armed during the incident")
	}
	if bb.Armed() {
		t.Fatal("black box still armed at run end: the incident never closed")
	}
	envs := bb.Envelopes()
	if len(envs) != 1 {
		t.Fatalf("got %d incident envelopes, want exactly 1", len(envs))
	}
	env := envs[0]

	// --- Root cause: the blackholed link, from the capture's link records.
	var hitLink bool
	for _, lc := range env.Network.Changed {
		if lc.ID == 0 {
			hitLink = true
			if lc.Name != "TEST->REMOTE" {
				t.Errorf("implicated link name %q, want TEST->REMOTE", lc.Name)
			}
			if lc.SRLG != srlg {
				t.Errorf("implicated link SRLG %d, want %d", lc.SRLG, srlg)
			}
			if lc.Disabled {
				t.Error("link still reads disabled at close despite the rollback")
			}
		}
	}
	if !hitLink {
		t.Fatalf("envelope did not implicate the blackholed link: %+v", env.Network)
	}

	// --- Demarcation: breached contract, service-attributed overage. ----
	var cold, warm *slo.EnvelopeContract
	for i := range env.Contracts {
		switch env.Contracts[i].Contract {
		case "Coldstorage":
			cold = &env.Contracts[i]
		case "Warmstorage":
			warm = &env.Contracts[i]
		}
	}
	if cold == nil || warm == nil {
		t.Fatalf("envelope missing contracts: %+v", env.Contracts)
	}
	if !cold.Breached || cold.Availability >= objective {
		t.Errorf("Coldstorage not reported breached: breached=%v avail=%v", cold.Breached, cold.Availability)
	}
	if cold.ServiceOverageRate <= 0 {
		t.Error("Coldstorage's out-of-entitlement demand was not service-attributed")
	}
	if cold.NetworkThrottledRate <= 0 {
		t.Error("no network-attributed throttled rate on the breached contract")
	}
	var netSeg *slo.SegmentVerdict
	for i := range cold.Segments {
		if cold.Segments[i].Segment == "TEST/net" {
			netSeg = &cold.Segments[i]
		}
	}
	if netSeg == nil || netSeg.Verdict != "network" {
		t.Errorf("ground-truth segment verdict = %+v, want network-attributed TEST/net", netSeg)
	}
	if warm.Breached {
		t.Error("bystander Warmstorage reported breached")
	}
	for _, sv := range warm.Segments {
		if sv.Verdict == "network" {
			t.Errorf("Warmstorage segment %s/%s wrongly network-attributed", sv.Segment, sv.Class)
		}
	}

	// --- Agent attribution: the injected dependency outage. -------------
	failedOpen := 0
	for _, ai := range env.Agents {
		if ai.FailOpenCycles > 0 {
			failedOpen++
			// Cycle trace IDs are 32-hex roots minted from the per-process
			// random trace identity (the old "<host>-c<seq>" form collided
			// across processes sharing a host name).
			if _, _, ok := otrace.ParseTraceID(ai.FailOpenTraceID); !ok {
				t.Errorf("agent %s fail-open trace ID %q is not a 32-hex trace ID", ai.Host, ai.FailOpenTraceID)
			}
			if ai.FirstFailOpen.Before(simTimeAt(incidentLo)) || ai.FirstFailOpen.After(simTimeAt(incidentHi)) {
				t.Errorf("agent %s first failed open at %v, outside the incident window", ai.Host, ai.FirstFailOpen)
			}
		}
	}
	if failedOpen != failAgents {
		t.Errorf("envelope names %d fail-open agents, want %d", failedOpen, failAgents)
	}

	// --- Golden replay: byte-identical re-derivation from disk. ---------
	caps, err := slo.ListCaptures(dir)
	if err != nil || len(caps) != 1 {
		t.Fatalf("captures in %s: %v, %v (want exactly 1)", dir, caps, err)
	}
	c, err := slo.ReadCapture(caps[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.Truncated {
		t.Fatal("capture decoded with a truncated tail")
	}
	res, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatalf("replay diverged from the live run: %s", res.Divergence)
	}
	replayed, _ := json.Marshal(res.Envelope)
	live, _ := json.Marshal(env)
	if string(replayed) != string(live) {
		t.Fatalf("replayed envelope differs from the live one:\nreplay %s\nlive   %s", replayed, live)
	}
	if res.Evals == 0 || res.Samples == 0 || res.Spans == 0 {
		t.Errorf("replay saw evals=%d samples=%d spans=%d, want all positive", res.Evals, res.Samples, res.Spans)
	}
	if res.Report == nil {
		t.Fatal("replay produced no closing report")
	}
	// The close-time report is clean by construction — the incident can only
	// close once its badness ages out of the rolling windows — but it must
	// still carry the contract with its objective on record.
	repCold := findContract(t, res.Report, "Coldstorage")
	if !repCold.HasSLO || repCold.SLO != objective {
		t.Errorf("replayed closing report lost the objective: %+v", repCold)
	}
	// The replayed alert sequence must include the arming fire and end
	// cleared (fire=true first, final transition inactive).
	if len(res.Alerts) < 2 || !res.Alerts[0].Active || res.Alerts[len(res.Alerts)-1].Active {
		t.Errorf("replayed alert sequence %+v, want fire-first clear-last", res.Alerts)
	}

	// --- Causal paths: incident cycles carry their full span trees. -----
	// Tail sampling always retains degraded/fail-open traces, so the
	// capture must hold at least one fail-open cycle whose tree shows the
	// enforce.cycle root — the evidence `sloctl replay` renders.
	var treed int
	for _, sp := range c.Spans() {
		if !sp.FailedOpen || len(sp.Tree) == 0 {
			continue
		}
		treed++
		rootOK := false
		for _, sr := range sp.Tree {
			if sr.Name == "enforce.cycle" && sr.Parent == "" {
				rootOK = true
				if sr.Service != sp.Host {
					t.Errorf("cycle root service %q, want host %q", sr.Service, sp.Host)
				}
			}
		}
		if !rootOK {
			t.Errorf("fail-open cycle tree for %s has no enforce.cycle root", sp.Host)
		}
	}
	if treed == 0 {
		t.Error("no fail-open cycle span in the capture carries a trace tree")
	}

	// The envelope is also persisted next to the capture.
	envPath := strings.TrimSuffix(caps[0], ".cap") + ".json"
	if _, err := os.Stat(envPath); err != nil {
		t.Errorf("envelope file missing: %v", err)
	}

	// --- Exact metric deltas for the capture lifecycle. -----------------
	final := scrapeHTTP(t, ms.Addr())
	delta := func(name string) float64 { return final.Value(name) - base.Value(name) }
	if got := delta("entitlement_slo_blackbox_captures_total"); got != 1 {
		t.Errorf("blackbox captures delta = %v, want exactly 1", got)
	}
	if got := delta("entitlement_slo_incidents_total"); got != 1 {
		t.Errorf("incidents delta = %v, want exactly 1", got)
	}
	if got := final.Value("entitlement_slo_blackbox_armed"); got != 0 {
		t.Errorf("blackbox armed gauge = %v at run end, want 0", got)
	}
	// Every byte the counter accounted went into this one capture file.
	fi, err := os.Stat(caps[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := delta("entitlement_slo_blackbox_bytes_written_total"); got != float64(fi.Size()) {
		t.Errorf("blackbox bytes delta = %v, want the capture file's size %d", got, fi.Size())
	}
	if env.Capture.Bytes <= 0 || env.Capture.Bytes > fi.Size() {
		t.Errorf("envelope byte accounting %d out of range (file is %d)", env.Capture.Bytes, fi.Size())
	}
	if got := delta("entitlement_slo_blackbox_errors_total"); got != 0 {
		t.Errorf("blackbox errors delta = %v, want 0", got)
	}
}
