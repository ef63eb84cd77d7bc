package planner

import (
	"reflect"
	"testing"

	"entitlement/internal/flow"
	"entitlement/internal/obs"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// bottleneckTopo: A -> B (thin) -> C (thick); the A->B hop binds.
func bottleneckTopo(t *testing.T) (*topology.Topology, int) {
	t.Helper()
	topo := topology.New()
	thin, err := topo.AddLink("A", "B", 50, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddLink("B", "C", 1000, 0, -1); err != nil {
		t.Fatal(err)
	}
	return topo, thin
}

func TestAnalyzeFindsBottleneck(t *testing.T) {
	topo, thin := bottleneckTopo(t)
	demands := []flow.Demand{{Key: "d", Src: "A", Dst: "C", Rate: 200, Class: 0}}
	rep, err := Analyze(topo, demands, Options{Scenarios: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings despite a clear bottleneck")
	}
	if rep.Findings[0].LinkID != thin {
		t.Errorf("top finding = link %d, want %d", rep.Findings[0].LinkID, thin)
	}
	if rep.Findings[0].BindFraction < 0.99 {
		t.Errorf("bind fraction = %v, want ~1", rep.Findings[0].BindFraction)
	}
	// 50 of 200 admitted.
	if f := rep.AdmittedFraction(); f < 0.2 || f > 0.3 {
		t.Errorf("admitted fraction = %v, want 0.25", f)
	}
	if rep.AvgShortfall < 140 || rep.AvgShortfall > 160 {
		t.Errorf("shortfall = %v, want ~150", rep.AvgShortfall)
	}
}

func TestAnalyzeHealthyNetworkHasNoFindings(t *testing.T) {
	topo, _ := bottleneckTopo(t)
	demands := []flow.Demand{{Key: "d", Src: "A", Dst: "C", Rate: 10, Class: 0}}
	rep, err := Analyze(topo, demands, Options{Scenarios: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("findings on a healthy network: %+v", rep.Findings)
	}
	if rep.AdmittedFraction() < 0.999 {
		t.Errorf("admitted = %v", rep.AdmittedFraction())
	}
}

func TestAnalyzeValidation(t *testing.T) {
	topo, _ := bottleneckTopo(t)
	if _, err := Analyze(nil, nil, Options{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := Analyze(topo, nil, Options{}); err == nil {
		t.Error("empty demands accepted")
	}
}

func TestRecommendUpgradesUnblocksDemand(t *testing.T) {
	topo, thin := bottleneckTopo(t)
	demands := []flow.Demand{{Key: "d", Src: "A", Dst: "C", Rate: 200, Class: 0}}
	opts := Options{Scenarios: 20, Seed: 3}
	plan, after, upgraded, err := RecommendUpgrades(topo, demands, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Fatal("no upgrades recommended")
	}
	if plan[0].LinkID != thin {
		t.Errorf("first upgrade = link %d, want %d", plan[0].LinkID, thin)
	}
	for _, u := range plan {
		if u.NewCapacity <= u.OldCapacity {
			t.Errorf("upgrade did not increase capacity: %+v", u)
		}
	}
	// Demand fully admitted after the plan.
	if after.AdmittedFraction() < 0.999 {
		t.Errorf("post-plan admitted = %v", after.AdmittedFraction())
	}
	// The plan mutated only the clone.
	if topo.Link(thin).Capacity != 50 {
		t.Error("original topology mutated")
	}
	if upgraded.Link(thin).Capacity <= 50 {
		t.Error("upgraded topology not upgraded")
	}
}

func TestRecommendUpgradesStopsWhenHealthy(t *testing.T) {
	topo, _ := bottleneckTopo(t)
	demands := []flow.Demand{{Key: "d", Src: "A", Dst: "C", Rate: 10, Class: 0}}
	plan, _, _, err := RecommendUpgrades(topo, demands, Options{Scenarios: 10, Seed: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 0 {
		t.Errorf("upgrades recommended on a healthy network: %+v", plan)
	}
	if _, _, _, err := RecommendUpgrades(topo, demands, Options{}, 0); err == nil {
		t.Error("zero maxUpgrades accepted")
	}
}

func TestRecommendUpgradesUnderFailures(t *testing.T) {
	// A diamond where the bottom path is flaky: upgrades should target the
	// reliable top path's thin link to restore availability.
	topo := topology.New()
	thinTop, _ := topo.AddLink("A", "B", 60, 0, -1)
	topo.AddLink("B", "D", 500, 0, -1)
	topo.AddLink("A", "C", 100, 0.4, -1) // flaky
	topo.AddLink("C", "D", 100, 0, -1)
	demands := []flow.Demand{{Key: "d", Src: "A", Dst: "D", Rate: 150, Class: 0}}
	opts := Options{Scenarios: 300, Seed: 5}
	plan, after, _, err := RecommendUpgrades(topo, demands, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Fatal("no plan under failures")
	}
	foundTop := false
	for _, u := range plan {
		if u.LinkID == thinTop {
			foundTop = true
		}
	}
	if !foundTop {
		t.Errorf("plan never upgraded the reliable thin link: %+v", plan)
	}
	before, err := Analyze(topo, demands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.AdmittedFraction() <= before.AdmittedFraction() {
		t.Errorf("plan did not improve admission: %v -> %v",
			before.AdmittedFraction(), after.AdmittedFraction())
	}
}

// TestAnalyzeRejectsDuplicateKeys is the regression test for the double count:
// two demands sharing a Key were summed into one admitted entry that the loop
// then added once per demand, so two 1 G demands keyed "x" on FigureSix
// reported AdmittedFraction() == 2 and AvgShortfall == -2e9. On the shared
// engine they are rejected exactly as risk.Assess rejects them.
func TestAnalyzeRejectsDuplicateKeys(t *testing.T) {
	demands := []flow.Demand{
		{Key: "x", Src: "A", Dst: "B", Rate: 1e9},
		{Key: "x", Src: "A", Dst: "B", Rate: 1e9},
	}
	rep, err := Analyze(topology.FigureSix(), demands, Options{Scenarios: 10, Seed: 1})
	if err == nil {
		t.Fatalf("duplicate demand keys accepted: admitted fraction %v, shortfall %v", rep.AdmittedFraction(), rep.AvgShortfall)
	}
	_, wantErr := risk.Assess(topology.FigureSix(), demands, risk.Options{Scenarios: 10, Seed: 1})
	if wantErr == nil || err.Error() != wantErr.Error() {
		t.Errorf("Analyze: %v; risk.Assess: %v", err, wantErr)
	}
}

// TestAnalyzeSharesTheScenarioEngine: on the default backbone, loaded until
// links bind, the report is identical at every worker count, and the analysis
// routes fewer failure states than it samples (the risk engine's class
// dedupe, read off its counters).
func TestAnalyzeSharesTheScenarioEngine(t *testing.T) {
	topo, err := topology.Backbone(topology.DefaultBackboneOptions())
	if err != nil {
		t.Fatal(err)
	}
	regions := topo.RegionsSorted()
	meanCap := topo.TotalCapacity() / float64(topo.NumLinks())
	var demands []flow.Demand
	for i, src := range regions {
		dst := regions[(i+len(regions)/2)%len(regions)]
		demands = append(demands, flow.Demand{Key: string(src) + ">" + string(dst), Src: src, Dst: dst, Rate: 1.5 * meanCap, Class: i % 4})
	}
	counter := func(name string) int64 { return obs.Default().Snapshot()[name].(int64) }
	var ref *Report
	for _, workers := range []int{1, 2, 8} {
		sampled0, routed0 := counter("entitlement_risk_scenarios_total"), counter("entitlement_risk_routed_states_total")
		rep, err := Analyze(topo, demands, Options{Seed: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sampled, routed := counter("entitlement_risk_scenarios_total")-sampled0, counter("entitlement_risk_routed_states_total")-routed0
		if sampled != 201 || routed < 2 || routed >= sampled/2 {
			t.Errorf("workers=%d: routed %d states for %d scenarios, want 201 scenarios deduped to a fraction", workers, routed, sampled)
		}
		if len(rep.Findings) == 0 || rep.AvgShortfall <= 0 {
			t.Fatalf("workers=%d: fixture binds no link (findings %d, shortfall %v)", workers, len(rep.Findings), rep.AvgShortfall)
		}
		if ref == nil {
			ref = rep
		} else if !reflect.DeepEqual(rep, ref) {
			t.Errorf("workers=%d: report differs from workers=1:\n%+v\nvs\n%+v", workers, rep, ref)
		}
	}
}
