package enforce

import (
	"errors"
	"strings"
	"testing"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs"
	"entitlement/internal/topology"
)

// Toggleable failure doubles: delegate until tripped.

type toggleStore struct {
	inner kvstore.RateStore
	down  bool
}

var errDown = errors.New("injected outage")

func (s *toggleStore) Exchange(puts []kvstore.Publish, prefixes []string, sums []float64) error {
	if s.down {
		return errDown
	}
	return s.inner.Exchange(puts, prefixes, sums)
}

type toggleDB struct {
	inner contractdb.Database
	down  bool
}

func (d *toggleDB) EntitledRate(npg contract.NPG, class contract.Class, region topology.Region, dir contract.Direction, at time.Time) (float64, bool, error) {
	if d.down {
		return 0, false, errDown
	}
	return d.inner.EntitledRate(npg, class, region, dir, at)
}

// degradedFixture builds an agent whose store and DB can be tripped.
func degradedFixture(t *testing.T, budget time.Duration) (*Agent, *bpf.Program, *toggleStore, *toggleDB) {
	t.Helper()
	db := contractdb.NewStore()
	err := db.Put(contract.Contract{
		NPG: "Cold", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: "Cold", Class: contract.C4Low, Region: "A",
			Direction: contract.Egress, Rate: 5e12, Start: tStart, End: tEnd,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := &toggleStore{inner: kvstore.New()}
	td := &toggleDB{inner: db}
	prog := bpf.NewProgram(bpf.NewMap())
	a, err := NewAgent(AgentConfig{
		Host: "h1", NPG: "Cold", Class: contract.C4Low, Region: "A",
		DB: td, Rates: ts, Meter: NewStateful(), Prog: prog,
		Policy: HostBased, RateTTL: time.Hour, StalenessBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, prog, ts, td
}

// TestCyclePublishFailureContinues: the publish and the aggregate travel in
// one exchange, so a publish no longer fails alone — the exchange fails
// whole. The cycle still queries the contract and keeps enforcing from the
// cached aggregate, and its one fault counts once as a failed exchange.
func TestCyclePublishFailureContinues(t *testing.T) {
	a, _, ts, _ := degradedFixture(t, time.Minute)
	now := tStart.Add(time.Hour)
	// Seed one good cycle so the aggregate cache holds data.
	if _, err := a.Cycle(now, 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	before := scrapeMetrics(t)
	ts.down = true
	rep, err := a.Cycle(now.Add(time.Second), 8e12, 8e12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.FailedOpen || !rep.Enforced {
		t.Fatalf("want degraded fail-static, got %+v", rep)
	}
	if rep.StaleFor != time.Second {
		t.Errorf("StaleFor = %v, want 1s: the aggregate cache's age, with a fresh contract answer", rep.StaleFor)
	}
	if rep.TotalRate != 10e12 || rep.EntitledRate != 5e12 {
		t.Errorf("TotalRate %v EntitledRate %v, want the cached 10e12 and the contract's 5e12", rep.TotalRate, rep.EntitledRate)
	}
	if len(rep.Faults) != 1 || !strings.HasPrefix(rep.Faults[0], "rate exchange: ") {
		t.Errorf("faults = %v, want the one failed exchange", rep.Faults)
	}
	after := scrapeMetrics(t)
	const m = "entitlement_enforce_rate_exchange_failures_total"
	if got := after.Value(m) - before.Value(m); got != 1 {
		t.Errorf("%s moved by %v, want 1", m, got)
	}
}

// scrapeMetrics parses the process-wide metrics exposition.
func scrapeMetrics(t *testing.T) obs.Scrape {
	t.Helper()
	var b strings.Builder
	obs.Default().WritePrometheus(&b)
	s, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return s
}

func TestCycleFailStaticWithinBudget(t *testing.T) {
	a, prog, ts, td := degradedFixture(t, time.Minute)
	now := tStart.Add(time.Hour)
	rep, err := a.Cycle(now, 10e12, 10e12)
	if err != nil || !rep.Enforced {
		t.Fatalf("healthy cycle: rep=%+v err=%v", rep, err)
	}

	// Full outage: both dependencies down, 30s into a 60s budget.
	ts.down, td.down = true, true
	rep, err = a.Cycle(now.Add(30*time.Second), 10e12, 10e12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.FailedOpen {
		t.Fatalf("want degraded fail-static, got %+v", rep)
	}
	if rep.StaleFor != 30*time.Second {
		t.Errorf("StaleFor = %v, want 30s", rep.StaleFor)
	}
	if !rep.Enforced {
		t.Error("fail-static cycle stopped enforcing within budget")
	}
	if rep.TotalRate != 10e12 {
		t.Errorf("stale TotalRate = %v, want cached 10e12", rep.TotalRate)
	}
	if _, ok := prog.Actions.Lookup(a.key); !ok {
		t.Error("marking action removed during fail-static window")
	}
}

func TestCycleFailsOpenBeyondBudget(t *testing.T) {
	a, prog, ts, td := degradedFixture(t, time.Minute)
	now := tStart.Add(time.Hour)
	if _, err := a.Cycle(now, 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	ts.down, td.down = true, true
	rep, err := a.Cycle(now.Add(61*time.Second), 10e12, 10e12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FailedOpen || rep.Enforced {
		t.Fatalf("want fail-open, got %+v", rep)
	}
	if rep.NonConformGroups != 0 || rep.ConformRatio != 1 {
		t.Errorf("fail-open still marking: %+v", rep)
	}
	if _, ok := prog.Actions.Lookup(a.key); ok {
		t.Error("marking action survived fail-open")
	}
}

func TestCycleFailsOpenWithoutAnyGoodData(t *testing.T) {
	// Servers down since startup: no last-known-good to be static about.
	a, prog, ts, td := degradedFixture(t, time.Minute)
	ts.down, td.down = true, true
	rep, err := a.Cycle(tStart.Add(time.Hour), 10e12, 10e12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FailedOpen || rep.Enforced || !rep.Degraded {
		t.Fatalf("want immediate fail-open, got %+v", rep)
	}
	if _, ok := prog.Actions.Lookup(a.key); ok {
		t.Error("marking action present with no data ever")
	}
}

func TestCycleRecoversAfterOutage(t *testing.T) {
	a, prog, ts, td := degradedFixture(t, time.Minute)
	now := tStart.Add(time.Hour)
	if _, err := a.Cycle(now, 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	ts.down, td.down = true, true
	if rep, _ := a.Cycle(now.Add(2*time.Minute), 10e12, 10e12); !rep.FailedOpen {
		t.Fatalf("want fail-open during outage, got %+v", rep)
	}
	// Outage lifts: the very next cycle is healthy and enforcing again.
	ts.down, td.down = false, false
	rep, err := a.Cycle(now.Add(3*time.Minute), 10e12, 10e12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || rep.FailedOpen || rep.StaleFor != 0 {
		t.Errorf("post-outage cycle still degraded: %+v", rep)
	}
	if !rep.Enforced || rep.NonConformGroups == 0 {
		t.Errorf("post-outage cycle not enforcing: %+v", rep)
	}
	if _, ok := prog.Actions.Lookup(a.key); !ok {
		t.Error("marking action not restored after outage")
	}
}

func TestCyclePartialOutageContractOnly(t *testing.T) {
	// Only the contract DB is down: aggregates are fresh, the entitled
	// rate is cached — fail-static uses the newest of each.
	a, _, _, td := degradedFixture(t, time.Minute)
	now := tStart.Add(time.Hour)
	if _, err := a.Cycle(now, 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	td.down = true
	rep, err := a.Cycle(now.Add(10*time.Second), 8e12, 8e12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.FailedOpen || !rep.Enforced {
		t.Fatalf("want degraded fail-static, got %+v", rep)
	}
	if rep.TotalRate != 8e12 {
		t.Errorf("TotalRate = %v, want fresh 8e12", rep.TotalRate)
	}
	if rep.EntitledRate != 5e12 {
		t.Errorf("EntitledRate = %v, want cached 5e12", rep.EntitledRate)
	}
	if rep.StaleFor != 10*time.Second {
		t.Errorf("StaleFor = %v, want 10s (contract cache age)", rep.StaleFor)
	}
}

// TestAgentMetricsTransitions checks the transition semantics of the
// enforcement gauges/counters through the scraped exposition: a fleet-wide
// dashboard needs failopen_transitions_total to fire once per outage, not
// once per cycle, and the *_agents gauges to fall back to their baseline
// after recovery.
func TestAgentMetricsTransitions(t *testing.T) {
	a, _, ts, td := degradedFixture(t, time.Minute)
	now := tStart.Add(time.Hour)
	if _, err := a.Cycle(now, 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	base := scrapeMetrics(t)

	// Outage: several degraded cycles, then past the budget → fail-open.
	ts.down, td.down = true, true
	for i := 1; i <= 3; i++ { // within budget: degraded, fail-static
		if _, err := a.Cycle(now.Add(time.Duration(i)*time.Second), 10e12, 10e12); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // past budget: fail-open, repeatedly
		rep, err := a.Cycle(now.Add(2*time.Minute+time.Duration(i)*time.Second), 10e12, 10e12)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.FailedOpen {
			t.Fatal("cycle past budget did not fail open")
		}
	}
	mid := scrapeMetrics(t)
	if got := mid.Value("entitlement_enforce_degraded_agents") - base.Value("entitlement_enforce_degraded_agents"); got != 1 {
		t.Errorf("degraded_agents delta during outage = %v, want 1", got)
	}
	if got := mid.Value("entitlement_enforce_failopen_agents") - base.Value("entitlement_enforce_failopen_agents"); got != 1 {
		t.Errorf("failopen_agents delta during outage = %v, want 1", got)
	}
	if got := mid.Value("entitlement_enforce_failopen_transitions_total") - base.Value("entitlement_enforce_failopen_transitions_total"); got != 1 {
		t.Errorf("failopen_transitions delta = %v, want exactly 1 despite 3 fail-open cycles", got)
	}
	if got := mid.Value("entitlement_enforce_degraded_cycles_total") - base.Value("entitlement_enforce_degraded_cycles_total"); got != 6 {
		t.Errorf("degraded_cycles delta = %v, want 6", got)
	}

	// Recovery: dependencies return, gauges fall back, stale age resets.
	ts.down, td.down = false, false
	if _, err := a.Cycle(now.Add(3*time.Minute), 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	after := scrapeMetrics(t)
	if got := after.Value("entitlement_enforce_degraded_agents") - base.Value("entitlement_enforce_degraded_agents"); got != 0 {
		t.Errorf("degraded_agents delta after recovery = %v, want 0", got)
	}
	if got := after.Value("entitlement_enforce_failopen_agents") - base.Value("entitlement_enforce_failopen_agents"); got != 0 {
		t.Errorf("failopen_agents delta after recovery = %v, want 0", got)
	}
	if got := after.Value(`entitlement_enforce_stale_seconds{host="h1"}`); got != 0 {
		t.Errorf("stale_seconds{h1} after recovery = %v, want 0", got)
	}
}
