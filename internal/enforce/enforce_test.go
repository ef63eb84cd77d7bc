package enforce

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/kvstore"
	"entitlement/internal/topology"
)

func TestStatelessMeterEquations(t *testing.T) {
	m := Stateless{}
	// The §5.2 example: 5 Tbps entitled, 6 Tbps observed → NonConformRatio
	// 1/6, ConformRatio 5/6.
	got := m.ConformRatio(5e12, 6e12, 6e12)
	if math.Abs(got-5.0/6) > 1e-12 {
		t.Errorf("ConformRatio = %v, want 5/6", got)
	}
	// Within entitlement: 1.
	if got := m.ConformRatio(5, 4, 4); got != 1 {
		t.Errorf("under-entitled ratio = %v", got)
	}
	if got := m.ConformRatio(5, 0, 0); got != 1 {
		t.Errorf("zero traffic ratio = %v", got)
	}
	m.Reset() // no-op, must not panic
}

func TestStatefulMeterConvergesOnConformRate(t *testing.T) {
	m := NewStateful()
	// First over-entitlement observation: ratio = 5/10 × 1 = 0.5.
	if got := m.ConformRatio(5, 10, 10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("first ratio = %v, want 0.5", got)
	}
	// Conform now 5 = entitled: ratio stays 0.5.
	if got := m.ConformRatio(5, 10, 5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("steady ratio = %v, want 0.5", got)
	}
	if math.Abs(m.prev-0.5) > 1e-12 {
		t.Errorf("Prev = %v", m.prev)
	}
}

func TestStatefulMeterIncreasesWhenOverRemarking(t *testing.T) {
	m := NewStateful()
	m.ConformRatio(5, 10, 10) // → 0.5
	// Conforming observed only 2.5 < entitled 5: remarking too much;
	// ratio must increase (entitled/conform = 2 → 0.5 × 2 = 1).
	got := m.ConformRatio(5, 10, 2.5)
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("ratio = %v, want 1", got)
	}
}

func TestStatefulMeterExponentialRecovery(t *testing.T) {
	m := NewStateful()
	m.ConformRatio(5, 20, 20) // 0.25
	// Back in conformance: doubles per cycle, capped at 1.
	r1 := m.ConformRatio(5, 4, 4)
	if math.Abs(r1-0.5) > 1e-12 {
		t.Errorf("recovery 1 = %v, want 0.5", r1)
	}
	r2 := m.ConformRatio(5, 4, 4)
	if math.Abs(r2-1) > 1e-12 {
		t.Errorf("recovery 2 = %v, want 1", r2)
	}
	r3 := m.ConformRatio(5, 4, 4)
	if r3 != 1 {
		t.Errorf("recovery cap = %v", r3)
	}
}

func TestStatefulMeterZeroConformRecovers(t *testing.T) {
	m := NewStateful()
	m.ConformRatio(5, 10, 10) // 0.5
	// All conforming traffic also lost upstream: recover, don't divide by 0.
	got := m.ConformRatio(5, 10, 0)
	if got <= 0.5 || got > 1 {
		t.Errorf("zero-conform ratio = %v", got)
	}
}

func TestStatefulMeterNeverSticksAtZero(t *testing.T) {
	m := NewStateful()
	// Drive the ratio down hard.
	for i := 0; i < 50; i++ {
		m.ConformRatio(1, 1e6, 1e6)
	}
	if m.prev <= 0 {
		t.Fatalf("ratio collapsed to %v", m.prev)
	}
	// Recovery must still work.
	for i := 0; i < 20; i++ {
		m.ConformRatio(1e6, 1, 1)
	}
	if m.prev != 1 {
		t.Errorf("ratio failed to recover: %v", m.prev)
	}
}

func TestStatefulMeterReset(t *testing.T) {
	m := NewStateful()
	m.ConformRatio(5, 10, 10)
	m.Reset()
	if m.prev != 1 {
		t.Errorf("Prev after reset = %v", m.prev)
	}
}

// Property: both meters always return ratios in [0, 1].
func TestMeterRangeProperty(t *testing.T) {
	f := func(e, tot, c uint32) bool {
		entitled, total, conform := float64(e), float64(tot), float64(c)
		sl := Stateless{}
		sf := NewStateful()
		r1 := sl.ConformRatio(entitled, total, conform)
		r2 := sf.ConformRatio(entitled, total, conform)
		r3 := sf.ConformRatio(entitled, total, conform)
		return r1 >= 0 && r1 <= 1 && r2 > 0 && r2 <= 1 && r3 > 0 && r3 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNonConformGroups(t *testing.T) {
	cases := []struct {
		ratio float64
		want  uint32
	}{
		{1, 0}, {0.98, 2}, {0.5, 50}, {0, 100}, {1.5, 0}, {-1, 100},
	}
	for _, c := range cases {
		if got := NonConformGroups(c.ratio); got != c.want {
			t.Errorf("NonConformGroups(%v) = %d, want %d", c.ratio, got, c.want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if HostBased.String() != "host-based" || FlowBased.String() != "flow-based" {
		t.Error("policy strings wrong")
	}
}

// --- Agent ----------------------------------------------------------------

var (
	tStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tEnd   = time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
)

func agentFixture(t *testing.T, entitled float64) (*Agent, *bpf.Program, *kvstore.Store) {
	t.Helper()
	db := contractdb.NewStore()
	err := db.Put(contract.Contract{
		NPG: "Cold", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: "Cold", Class: contract.C4Low, Region: "A",
			Direction: contract.Egress, Rate: entitled, Start: tStart, End: tEnd,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rates := kvstore.New()
	prog := bpf.NewProgram(bpf.NewMap())
	a, err := NewAgent(AgentConfig{
		Host: "h1", NPG: "Cold", Class: contract.C4Low, Region: "A",
		DB: db, Rates: rates, Meter: NewStateful(), Prog: prog,
		Policy: HostBased,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, prog, rates
}

func TestAgentCycleEnforces(t *testing.T) {
	a, prog, _ := agentFixture(t, 5e12)
	now := tStart.Add(time.Hour)
	// Host is the only publisher: total 10T, conform 10T.
	rep, err := a.Cycle(now, 10e12, 10e12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Enforced {
		t.Fatal("entitlement not enforced")
	}
	if rep.EntitledRate != 5e12 || rep.TotalRate != 10e12 {
		t.Errorf("report = %+v", rep)
	}
	if math.Abs(rep.ConformRatio-0.5) > 1e-9 || rep.NonConformGroups != 50 {
		t.Errorf("ratio=%v groups=%d", rep.ConformRatio, rep.NonConformGroups)
	}
	// The BPF map was programmed.
	action, ok := prog.Actions.Lookup(bpf.MapKey{NPG: "Cold", Class: contract.C4Low, Region: "A"})
	if !ok || action.Mode != bpf.MarkHosts || action.NonConformGroups != 50 {
		t.Errorf("programmed action = %+v, %v", action, ok)
	}
}

func TestAgentCycleAggregatesAcrossHosts(t *testing.T) {
	a, _, rates := agentFixture(t, 5e12)
	// Another host of the same service published 6T already.
	rates.Put(kvstore.RateKey("Cold", contract.C4Low.String(), "A", "h2"), 6e12, time.Minute)
	rep, err := a.Cycle(tStart.Add(time.Hour), 4e12, 4e12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRate != 10e12 {
		t.Errorf("TotalRate = %v, want 10e12 (4+6)", rep.TotalRate)
	}
}

// TestAgentCycleAllocs pins the allocations of one in-process cycle: the
// rate-store keys and prefixes are built once in NewAgent, not per cycle
// (which cost 20 more). What remains is the cycle's trace: finished spans,
// their annotations and the trace ID.
func TestAgentCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	a, _, _ := agentFixture(t, 5e12)
	now := tStart.Add(time.Hour)
	if _, err := a.Cycle(now, 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	const want = 12
	if got := testing.AllocsPerRun(200, func() { a.Cycle(now, 10e12, 10e12) }); got > want {
		t.Errorf("Agent.Cycle allocates %.0f/op, want at most %d", got, want)
	}
}

func TestAgentCycleNoContractFailsOpen(t *testing.T) {
	a, prog, _ := agentFixture(t, 5e12)
	// After the enforcement period: no active entitlement.
	rep, err := a.Cycle(tEnd.Add(time.Hour), 10e12, 10e12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Enforced {
		t.Error("expired entitlement enforced")
	}
	if rep.ConformRatio != 1 {
		t.Errorf("fail-open ratio = %v", rep.ConformRatio)
	}
	if _, ok := prog.Actions.Lookup(bpf.MapKey{NPG: "Cold", Class: contract.C4Low, Region: "A"}); ok {
		t.Error("action not removed on fail-open")
	}
}

func TestAgentCycleWithinEntitlementNoMarking(t *testing.T) {
	a, prog, _ := agentFixture(t, 5e12)
	rep, err := a.Cycle(tStart.Add(time.Hour), 3e12, 3e12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonConformGroups != 0 {
		t.Errorf("groups = %d, want 0", rep.NonConformGroups)
	}
	action, ok := prog.Actions.Lookup(bpf.MapKey{NPG: "Cold", Class: contract.C4Low, Region: "A"})
	if !ok || action.NonConformGroups != 0 {
		t.Errorf("action = %+v", action)
	}
}

func TestAgentDistributedConvergence(t *testing.T) {
	// Several agents sharing a kvstore each make independent decisions and
	// converge to the same ratio — the §5.1 distributed architecture.
	db := contractdb.NewStore()
	db.Put(contract.Contract{
		NPG: "Cold", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: "Cold", Class: contract.C4Low, Region: "A",
			Direction: contract.Egress, Rate: 5e12, Start: tStart, End: tEnd,
		}},
	})
	rates := kvstore.New()
	const hosts = 4
	agents := make([]*Agent, hosts)
	for i := range agents {
		prog := bpf.NewProgram(bpf.NewMap())
		a, err := NewAgent(AgentConfig{
			Host: string(rune('a' + i)), NPG: "Cold", Class: contract.C4Low, Region: "A",
			DB: db, Rates: rates, Meter: NewStateful(), Prog: prog, Policy: HostBased,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	now := tStart.Add(time.Hour)
	perHost := 2.5e12 // 4 hosts × 2.5T = 10T total vs 5T entitled
	// Warm-up cycle publishes rates (agents that run early see a partial
	// aggregate, so their meter state differs); reset the meters, then run
	// a cycle where every agent observes the identical full aggregate.
	var reps [hosts]CycleReport
	for _, a := range agents {
		if _, err := a.Cycle(now, perHost, perHost); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range agents {
		a.cfg.Meter.Reset()
	}
	for i, a := range agents {
		rep, err := a.Cycle(now, perHost, perHost)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	for i, rep := range reps {
		if rep.TotalRate != 10e12 {
			t.Errorf("agent %d TotalRate = %v", i, rep.TotalRate)
		}
		if math.Abs(rep.ConformRatio-reps[0].ConformRatio) > 1e-9 {
			t.Errorf("agent %d ratio %v diverges from %v", i, rep.ConformRatio, reps[0].ConformRatio)
		}
	}
}

func TestNewAgentValidation(t *testing.T) {
	_, err := NewAgent(AgentConfig{})
	if err == nil {
		t.Error("empty config accepted")
	}
	_, err = NewAgent(AgentConfig{Host: "h", NPG: "X", Region: "A"})
	if err == nil {
		t.Error("missing dependencies accepted")
	}
}

// --- Marking simulation (§7.4) ---------------------------------------------

func TestSimulateStatelessOscillatesAt100Loss(t *testing.T) {
	points, err := SimulateMarking(MarkSimOptions{
		Demand: 10e12, Entitled: 5e12, Loss: 1.0, Iterations: 40, Meter: Stateless{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 23: instantaneous rate oscillates between 5 and 10 Tbps.
	lows, highs := 0, 0
	for _, p := range points[2:] {
		switch {
		case math.Abs(p.ConformRate-5e12) < 1e9:
			lows++
		case math.Abs(p.ConformRate-10e12) < 1e9:
			highs++
		default:
			t.Fatalf("iteration %d rate %v neither 5T nor 10T", p.Iteration, p.ConformRate)
		}
	}
	if lows == 0 || highs == 0 {
		t.Errorf("no oscillation: lows=%d highs=%d", lows, highs)
	}
	// Figure 24: average stays above the entitled rate — the stateless
	// algorithm "fails to enforce the entitled rate".
	if avg := FinalAverage(points); avg <= 5e12 {
		t.Errorf("stateless average = %v, want > 5e12", avg)
	}
}

func TestSimulateStatefulConverges(t *testing.T) {
	for _, loss := range []float64{0, 0.125, 0.25, 0.5, 1.0} {
		points, err := SimulateMarking(MarkSimOptions{
			Demand: 10e12, Entitled: 5e12, Loss: loss, Iterations: 40, Meter: NewStateful(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Figure 25: converges to the 5 Tbps entitled rate by iteration 10,
		// for every loss level.
		if !ConvergedBy(points, 10, 5e12, 0.05) {
			t.Errorf("loss %v: stateful did not converge by iteration 10", loss)
		}
		if avg := FinalAverage(points); math.Abs(avg-5e12)/5e12 > 0.15 {
			t.Errorf("loss %v: stateful average = %v", loss, avg)
		}
	}
}

func TestSimulateStatelessStableWithoutLoss(t *testing.T) {
	points, err := SimulateMarking(MarkSimOptions{
		Demand: 10e12, Entitled: 5e12, Loss: 0, Iterations: 20, Meter: Stateless{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without drops, TotalRate observation stays accurate and stateless
	// holds steady at the entitled rate.
	if !ConvergedBy(points, 3, 5e12, 0.01) {
		t.Error("stateless with zero loss did not hold the entitled rate")
	}
}

func TestSimulateMarkingValidation(t *testing.T) {
	if _, err := SimulateMarking(MarkSimOptions{Demand: 0, Entitled: 5}); err == nil {
		t.Error("zero demand accepted")
	}
	if _, err := SimulateMarking(MarkSimOptions{Demand: 5, Entitled: 5, Loss: 2}); err == nil {
		t.Error("loss > 1 accepted")
	}
}

func TestSimulateMarkingDefaults(t *testing.T) {
	points, err := SimulateMarking(MarkSimOptions{Demand: 10, Entitled: 5, Loss: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 50 {
		t.Errorf("default iterations = %d, want 50", len(points))
	}
}

// FinalAverage returns the last running average of a simulation, or 0.
func FinalAverage(points []MarkSimPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	return points[len(points)-1].Average
}

// ConvergedBy reports whether the instantaneous conforming rate stays within
// tol (relative) of target from iteration k onward.
func ConvergedBy(points []MarkSimPoint, k int, target, tol float64) bool {
	if k >= len(points) {
		return false
	}
	for _, p := range points[k:] {
		if target == 0 {
			if p.ConformRate > tol {
				return false
			}
			continue
		}
		rel := (p.ConformRate - target) / target
		if rel < -tol || rel > tol {
			return false
		}
	}
	return true
}

func TestConvergedByEdgeCases(t *testing.T) {
	if ConvergedBy(nil, 0, 1, 0.1) {
		t.Error("empty points converged")
	}
	points := []MarkSimPoint{{ConformRate: 0}}
	if !ConvergedBy(points, 0, 0, 0.1) {
		t.Error("zero-target convergence failed")
	}
}

func TestAgentRunLoopSurvivesErrors(t *testing.T) {
	// An agent whose rate store always fails still completes every cycle:
	// a nil error and a report that names the faults.
	db := contractdb.NewStore()
	prog := bpf.NewProgram(bpf.NewMap())
	a, err := NewAgent(AgentConfig{
		Host: "h", NPG: "X", Class: contract.ClassB, Region: "A",
		DB: db, Rates: failingStore{}, Meter: NewStateful(), Prog: prog,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := a.Cycle(tStart.Add(time.Duration(i)*time.Second), 1, 1)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if !rep.Degraded || len(rep.Faults) == 0 {
			t.Fatalf("cycle %d: report %+v lacks the store's faults", i, rep)
		}
	}
}

// failingStore always errors — failure-injection double for the rate store.
type failingStore struct{}

func (failingStore) Exchange([]kvstore.Publish, []string, []float64) error { return errKVDown }

var errKVDown = errors.New("kvstore unavailable")

func TestAgentRotationSalt(t *testing.T) {
	db := contractdb.NewStore()
	db.Put(contract.Contract{
		NPG: "Cold", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: "Cold", Class: contract.C4Low, Region: "A",
			Direction: contract.Egress, Rate: 5e12, Start: tStart, End: tEnd,
		}},
	})
	mkAgent := func(host string, rotate time.Duration) (*Agent, *bpf.Program) {
		prog := bpf.NewProgram(bpf.NewMap())
		a, err := NewAgent(AgentConfig{
			Host: host, NPG: "Cold", Class: contract.C4Low, Region: "A",
			DB: db, Rates: kvstore.New(), Meter: NewStateful(), Prog: prog,
			Policy: HostBased, RotatePeriod: rotate,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a, prog
	}
	key := bpf.MapKey{NPG: "Cold", Class: contract.C4Low, Region: "A"}
	now := tStart.Add(time.Hour)

	// Rotation disabled: salt stays 0 across time.
	a0, p0 := mkAgent("h0", 0)
	a0.Cycle(now, 10e12, 10e12)
	act, _ := p0.Actions.Lookup(key)
	if act.Salt != 0 {
		t.Errorf("salt = %d with rotation disabled", act.Salt)
	}

	// Rotation enabled: salt advances across periods and matches between
	// agents sharing a clock.
	a1, p1 := mkAgent("h1", time.Hour)
	a2, p2 := mkAgent("h2", time.Hour)
	a1.Cycle(now, 10e12, 10e12)
	a2.Cycle(now, 10e12, 10e12)
	s1, _ := p1.Actions.Lookup(key)
	s2, _ := p2.Actions.Lookup(key)
	if s1.Salt != s2.Salt {
		t.Errorf("fleet salts diverge: %d vs %d", s1.Salt, s2.Salt)
	}
	a1.Cycle(now.Add(2*time.Hour), 10e12, 10e12)
	s1b, _ := p1.Actions.Lookup(key)
	if s1b.Salt == s1.Salt {
		t.Error("salt did not advance across periods")
	}
}

func TestMultiNPGHostSharesOneProgram(t *testing.T) {
	// A real host serves several NPGs: one BPF program/map, one agent per
	// flow set, each programming its own key independently.
	db := contractdb.NewStore()
	for _, c := range []struct {
		npg  contract.NPG
		rate float64
	}{{"Cold", 5e12}, {"Warm", 1e12}} {
		err := db.Put(contract.Contract{
			NPG: c.npg, SLO: 0.999, Approved: true,
			Entitlements: []contract.Entitlement{{
				NPG: c.npg, Class: contract.ClassB, Region: "A",
				Direction: contract.Egress, Rate: c.rate, Start: tStart, End: tEnd,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rates := kvstore.New()
	prog := bpf.NewProgram(bpf.NewMap()) // shared: one kernel program per host
	mk := func(npg contract.NPG) *Agent {
		a, err := NewAgent(AgentConfig{
			Host: "h1", NPG: npg, Class: contract.ClassB, Region: "A",
			DB: db, Rates: rates, Meter: NewStateful(), Prog: prog, Policy: HostBased,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cold, warm := mk("Cold"), mk("Warm")
	now := tStart.Add(time.Hour)
	// Cold within entitlement, Warm 3x over.
	if _, err := cold.Cycle(now, 4e12, 4e12); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Cycle(now, 3e12, 3e12); err != nil {
		t.Fatal(err)
	}
	if prog.Actions.Len() != 2 {
		t.Fatalf("map entries = %d, want 2", prog.Actions.Len())
	}
	coldAct, _ := prog.Actions.Lookup(bpf.MapKey{NPG: "Cold", Class: contract.ClassB, Region: "A"})
	warmAct, _ := prog.Actions.Lookup(bpf.MapKey{NPG: "Warm", Class: contract.ClassB, Region: "A"})
	if coldAct.NonConformGroups != 0 {
		t.Errorf("Cold marked %d groups despite being within entitlement", coldAct.NonConformGroups)
	}
	if warmAct.NonConformGroups == 0 {
		t.Error("Warm not marked despite 3x over-entitlement")
	}
	// The shared program classifies per flow set.
	coldPkt := prog.Egress(bpf.Packet{NPG: "Cold", Class: contract.ClassB, Region: "A", Host: "h1",
		DSCP: bpf.DSCPForClass(contract.ClassB)})
	if bpf.IsNonConforming(coldPkt) {
		t.Error("Cold packet remarked")
	}
}

// TestRegionScopedEnforcement: one NPG runs hosts in two regions, and its
// contract carries one egress entitlement per region. Only region A's is cut
// below its demand, so only region A's flow set is marked: the agent must key
// both the contract lookup and the rate aggregate by Region.
func TestRegionScopedEnforcement(t *testing.T) {
	db := contractdb.NewStore()
	err := db.Put(contract.Contract{
		NPG: "Svc", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{
			{NPG: "Svc", Class: contract.ClassB, Region: "A", Direction: contract.Egress, Rate: 1e12, Start: tStart, End: tEnd},
			{NPG: "Svc", Class: contract.ClassB, Region: "B", Direction: contract.Egress, Rate: 5e12, Start: tStart, End: tEnd},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rates := kvstore.New()
	progs := map[topology.Region]*bpf.Program{}
	agents := map[topology.Region]*Agent{}
	for _, region := range []topology.Region{"A", "B"} {
		progs[region] = bpf.NewProgram(bpf.NewMap())
		a, err := NewAgent(AgentConfig{
			Host: "h-" + string(region), NPG: "Svc", Class: contract.ClassB, Region: region,
			DB: db, Rates: rates, Meter: NewStateful(), Prog: progs[region], Policy: HostBased,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[region] = a
	}
	// Each region sends 3 Tbps: 3x over A's entitlement, within B's alone,
	// but over B's if B also counted A's traffic.
	now := tStart.Add(time.Hour)
	for cycle := 0; cycle < 2; cycle++ {
		for _, region := range []topology.Region{"A", "B"} {
			if _, err := agents[region].Cycle(now, 3e12, 3e12); err != nil {
				t.Fatal(err)
			}
		}
		now = now.Add(time.Second)
	}
	for region, wantMarked := range map[topology.Region]bool{"A": true, "B": false} {
		act, _ := progs[region].Actions.Lookup(bpf.MapKey{NPG: "Svc", Class: contract.ClassB, Region: region})
		if marked := act.NonConformGroups > 0; marked != wantMarked {
			t.Errorf("region %s: %d groups marked, want marked=%v", region, act.NonConformGroups, wantMarked)
		}
	}
}
