package approval

import (
	"math"
	"testing"

	"entitlement/internal/contract"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// meshTopo builds a reliable full mesh over n regions with the given
// per-direction capacity.
func meshTopo(n int, capacity, failProb float64) *topology.Topology {
	t := topology.New()
	names := make([]topology.Region, n)
	for i := range names {
		names[i] = topology.Region(string(rune('A' + i)))
	}
	srlg := 0
	for i := range names {
		for j := i + 1; j < n; j++ {
			t.EnsureSRLG(srlg, 0)
			t.AddBidirectional(names[i], names[j], capacity, failProb, srlg)
			srlg++
		}
	}
	return t
}

func egressHose(npg contract.NPG, region topology.Region, rate float64, class contract.Class) hose.Request {
	return hose.Request{NPG: npg, Class: class, Region: region, Direction: contract.Egress, Rate: rate}
}

func testOpts() Options {
	return Options{
		RepresentativeTMs: 4,
		Risk:              risk.Options{Scenarios: 40, Seed: 9},
		Seed:              11,
		DefaultSLO:        0.95,
	}
}

func TestApproveSmallDemandFully(t *testing.T) {
	topo := meshTopo(4, 1000, 0) // plenty of reliable capacity
	hoses := []hose.Request{egressHose("Ads", "A", 300, contract.ClassA)}
	res, err := Approve(topo, hoses, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	a := res.ByKey[hoses[0].Key()]
	if a == nil {
		t.Fatal("no approval entry")
	}
	if !a.FullyApproved {
		t.Errorf("small demand not fully approved: %v of %v", a.ApprovedRate, a.Request.Rate)
	}
	if math.Abs(a.Fraction()-1) > 1e-6 {
		t.Errorf("fraction = %v", a.Fraction())
	}
}

func TestApproveOversizedDemandPartially(t *testing.T) {
	// Egress capacity from A: 3 links × 100 = 300; ask for 600.
	topo := meshTopo(4, 100, 0)
	hoses := []hose.Request{egressHose("Big", "A", 600, contract.ClassA)}
	res, err := Approve(topo, hoses, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	a := &res.Approvals[0]
	if a.FullyApproved {
		t.Error("oversized demand fully approved")
	}
	if a.ApprovedRate <= 0 {
		t.Error("approved rate should be positive")
	}
	if a.ApprovedRate > 300+1e-6 {
		t.Errorf("approved %v exceeds egress capacity 300", a.ApprovedRate)
	}
}

func TestApprovePriorityOrdering(t *testing.T) {
	// Capacity for one, demanded by two classes: premium wins.
	topo := meshTopo(3, 100, 0) // A egress capacity 200
	hoses := []hose.Request{
		egressHose("Low", "A", 200, contract.C4High),
		egressHose("High", "A", 200, contract.C1Low),
	}
	res, err := Approve(topo, hoses, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	high := res.ByKey[hoses[1].Key()]
	low := res.ByKey[hoses[0].Key()]
	if high.ApprovedRate < low.ApprovedRate {
		t.Errorf("premium approved %v < low-priority %v", high.ApprovedRate, low.ApprovedRate)
	}
	if high.ApprovedRate < 150 {
		t.Errorf("premium approved only %v of 200", high.ApprovedRate)
	}
}

func TestApproveSLOSensitivity(t *testing.T) {
	// Flaky links: a higher SLO target must approve the same or less
	// (Figure 22's monotone trade-off).
	topo := meshTopo(4, 200, 0.08)
	h := []hose.Request{egressHose("Svc", "A", 500, contract.ClassB)}
	frac := func(slo contract.SLO) float64 {
		o := testOpts()
		o.Risk.Scenarios = 150
		o.DefaultSLO = slo
		res, err := Approve(topo, h, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.ApprovalFraction()
	}
	relaxed := frac(0.5)
	strict := frac(0.999)
	if strict > relaxed+1e-9 {
		t.Errorf("stricter SLO approved more: %v > %v", strict, relaxed)
	}
	if relaxed <= 0 {
		t.Error("relaxed SLO approved nothing")
	}
}

func TestApprovePerNPGSLOs(t *testing.T) {
	topo := meshTopo(4, 200, 0.08)
	hoses := []hose.Request{
		egressHose("Strict", "A", 500, contract.ClassB),
		egressHose("Relaxed", "B", 500, contract.ClassB),
	}
	o := testOpts()
	o.Risk.Scenarios = 150
	o.SLOs = map[contract.NPG]contract.SLO{"Strict": 0.9999, "Relaxed": 0.5}
	res, err := Approve(topo, hoses, o)
	if err != nil {
		t.Fatal(err)
	}
	s := res.ByKey[hoses[0].Key()]
	r := res.ByKey[hoses[1].Key()]
	if s.ApprovedRate > r.ApprovedRate {
		t.Errorf("strict SLO (%v) approved more than relaxed (%v)", s.ApprovedRate, r.ApprovedRate)
	}
}

func TestApproveSegmentedBeatsGeneralUnderScarcity(t *testing.T) {
	// With a segmented hose, realizations concentrate within segments whose
	// alphas bound each group, so worst-case realizations are less extreme
	// and the minimum over TMs is at least as high.
	topo := meshTopo(5, 120, 0)
	general := egressHose("S", "A", 400, contract.ClassB)
	segmented := general
	segmented.Segments = []hose.Segment{
		{Targets: []topology.Region{"B", "C"}, Alpha: 0.5},
		{Targets: []topology.Region{"D", "E"}, Alpha: 0.5},
	}
	o := testOpts()
	o.RepresentativeTMs = 12
	resG, err := Approve(topo, []hose.Request{general}, o)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := Approve(topo, []hose.Request{segmented}, o)
	if err != nil {
		t.Fatal(err)
	}
	g := resG.Approvals[0].ApprovedRate
	s := resS.Approvals[0].ApprovedRate
	if s+1e-6 < g {
		t.Errorf("segmented approval %v below general %v", s, g)
	}
}

func TestApproveIngressHose(t *testing.T) {
	topo := meshTopo(4, 1000, 0)
	h := hose.Request{NPG: "Sink", Class: contract.ClassB, Region: "D", Direction: contract.Ingress, Rate: 300}
	res, err := Approve(topo, []hose.Request{h}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approvals[0].FullyApproved {
		t.Errorf("ingress hose not approved: %v", res.Approvals[0].ApprovedRate)
	}
	eg, in := res.FractionByDirection()
	if eg != 1 {
		t.Errorf("egress fraction with no egress hoses = %v, want 1", eg)
	}
	if math.Abs(in-1) > 1e-6 {
		t.Errorf("ingress fraction = %v", in)
	}
}

func TestApproveUnknownRegion(t *testing.T) {
	topo := meshTopo(3, 100, 0)
	h := []hose.Request{egressHose("X", "Z", 10, contract.ClassA)}
	if _, err := Approve(topo, h, testOpts()); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestApproveEmpty(t *testing.T) {
	topo := meshTopo(3, 100, 0)
	res, err := Approve(topo, nil, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Approvals) != 0 {
		t.Error("empty input produced approvals")
	}
	if res.ApprovalFraction() != 1 {
		t.Error("empty approval fraction should be 1")
	}
}

func TestApproveZeroRateHose(t *testing.T) {
	topo := meshTopo(3, 100, 0)
	res, err := Approve(topo, []hose.Request{egressHose("Z", "A", 0, contract.ClassA)}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	a := &res.Approvals[0]
	if !a.FullyApproved || a.Fraction() != 1 {
		t.Errorf("zero-rate hose: approved=%v fully=%v", a.ApprovedRate, a.FullyApproved)
	}
}

func TestNegotiate(t *testing.T) {
	topo := meshTopo(4, 100, 0)
	hoses := []hose.Request{
		egressHose("Big", "A", 900, contract.ClassB),   // cannot fit (A egress 300)
		egressHose("Small", "B", 50, contract.ClassB),  // fits
		egressHose("Small2", "C", 50, contract.ClassB), // fits
	}
	res, err := Approve(topo, hoses, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	cps := Negotiate(res)
	if len(cps) != 1 {
		t.Fatalf("counter-proposals = %d, want 1", len(cps))
	}
	cp := cps[0]
	if cp.Hose.NPG != "Big" {
		t.Errorf("counter-proposal for %s", cp.Hose.NPG)
	}
	if cp.AdmittableRate <= 0 || cp.AdmittableRate >= 900 {
		t.Errorf("admittable = %v", cp.AdmittableRate)
	}
	if math.Abs(cp.Shortfall-(900-cp.AdmittableRate)) > 1e-9 {
		t.Errorf("shortfall = %v", cp.Shortfall)
	}
	// Fully-approved same-class regions B and C are alternatives.
	if len(cp.AlternativeRegions) != 2 {
		t.Errorf("alternatives = %v", cp.AlternativeRegions)
	}
}

func TestNegotiateNothingToDo(t *testing.T) {
	topo := meshTopo(3, 1000, 0)
	res, err := Approve(topo, []hose.Request{egressHose("S", "A", 10, contract.ClassA)}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cps := Negotiate(res); len(cps) != 0 {
		t.Errorf("unexpected counter-proposals: %v", cps)
	}
}

func TestApprovalFraction(t *testing.T) {
	res := &Result{Approvals: []HoseApproval{
		{Request: hose.Request{Rate: 100}, ApprovedRate: 50},
		{Request: hose.Request{Rate: 100}, ApprovedRate: 100},
	}}
	if got := res.ApprovalFraction(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("ApprovalFraction = %v, want 0.75", got)
	}
}

func TestApproveWithPlannedTopology(t *testing.T) {
	// The backbone gets a capacity upgrade halfway through the period:
	// approving against both phases admits at least as much as approving
	// against the weaker phase alone, and no more than the stronger alone.
	small := meshTopo(4, 100, 0.05)
	big := meshTopo(4, 300, 0.05)
	h := []hose.Request{egressHose("Svc", "A", 600, contract.ClassB)}
	o := testOpts()
	o.Risk.Scenarios = 120

	approve := func(base Options) float64 {
		res, err := Approve(small, h, base)
		if err != nil {
			t.Fatal(err)
		}
		return res.Approvals[0].ApprovedRate
	}
	before := approve(o)
	phased := o
	phased.PlannedTopology = big
	phased.ChangeFraction = 0.5
	mid := approve(phased)
	if mid+1e-6 < before {
		t.Errorf("planned upgrade lowered approval: %v < %v", mid, before)
	}
	// Approving directly on the upgraded topology is the upper bound.
	resBig, err := Approve(big, h, o)
	if err != nil {
		t.Fatal(err)
	}
	if mid > resBig.Approvals[0].ApprovedRate+1e-6 {
		t.Errorf("phased approval %v above upgraded-only %v", mid, resBig.Approvals[0].ApprovedRate)
	}
}

func TestApproveJointRealizations(t *testing.T) {
	topo := meshTopo(4, 1000, 0)
	// Balanced egress/ingress hoses for one flow set.
	hoses := []hose.Request{
		egressHose("Svc", "A", 300, contract.ClassB),
		egressHose("Svc", "B", 100, contract.ClassB),
		{NPG: "Svc", Class: contract.ClassB, Region: "C", Direction: contract.Ingress, Rate: 200},
		{NPG: "Svc", Class: contract.ClassB, Region: "D", Direction: contract.Ingress, Rate: 200},
	}
	o := testOpts()
	o.JointRealizations = true
	res, err := Approve(topo, hoses, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Approvals {
		a := &res.Approvals[i]
		if a.ApprovedRate <= 0 {
			t.Errorf("%s approved %v", a.Request.Key(), a.ApprovedRate)
		}
		if a.ApprovedRate > a.Request.Rate+1e-6 {
			t.Errorf("%s approved %v above request %v", a.Request.Key(), a.ApprovedRate, a.Request.Rate)
		}
	}
	// With ample capacity and balanced hoses, approvals approach requests.
	if f := res.ApprovalFraction(); f < 0.75 {
		t.Errorf("joint approval fraction = %v, want >= 0.75", f)
	}
}

func TestApproveJointFallsBackWithoutBothDirections(t *testing.T) {
	// Egress-only flow set: joint mode must fall back to independent
	// sampling rather than fail.
	topo := meshTopo(3, 1000, 0)
	hoses := []hose.Request{egressHose("Only", "A", 100, contract.ClassA)}
	o := testOpts()
	o.JointRealizations = true
	res, err := Approve(topo, hoses, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approvals[0].FullyApproved {
		t.Errorf("fallback approval = %v", res.Approvals[0].ApprovedRate)
	}
}
