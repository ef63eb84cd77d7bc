package hose

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/timeseries"
	"entitlement/internal/topology"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func constSeries(v float64, n int) *timeseries.Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	return timeseries.New(t0, time.Hour, vals)
}

// figureSixPipes is the §4.2 worked example: Ads egress from region A.
func figureSixPipes() []PipeRequest {
	return []PipeRequest{
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "B", Rate: 300},
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "C", Rate: 100},
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "D", Rate: 250},
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "E", Rate: 250},
	}
}

func TestAggregatePipesFigureSix(t *testing.T) {
	hoses := AggregatePipes(figureSixPipes())
	var egressA *Request
	for i := range hoses {
		h := &hoses[i]
		if h.Region == "A" && h.Direction == contract.Egress {
			egressA = h
		}
	}
	if egressA == nil {
		t.Fatal("no egress hose for A")
	}
	// Figure 6(c): "the pipe requests can be aggregated into a Hose request,
	// which is 900G egress for A".
	if egressA.Rate != 900 {
		t.Errorf("egress hose rate = %v, want 900", egressA.Rate)
	}
	// Ingress hoses per destination.
	for _, want := range []struct {
		region topology.Region
		rate   float64
	}{{"B", 300}, {"C", 100}, {"D", 250}, {"E", 250}} {
		found := false
		for i := range hoses {
			h := &hoses[i]
			if h.Region == want.region && h.Direction == contract.Ingress {
				found = true
				if h.Rate != want.rate {
					t.Errorf("ingress %s = %v, want %v", want.region, h.Rate, want.rate)
				}
			}
		}
		if !found {
			t.Errorf("no ingress hose for %s", want.region)
		}
	}
}

func TestReservedCapacityFigureSix(t *testing.T) {
	pipes := figureSixPipes()
	// Figure 6(b): pipe model reserves 900G.
	if got := PipeReserved(pipes); got != 900 {
		t.Errorf("PipeReserved = %v, want 900", got)
	}
	h := Request{NPG: "Ads", Class: contract.ClassA, Region: "A", Direction: contract.Egress, Rate: 900}
	// Figure 6(c): general hose reserves 900G to each of 4 destinations.
	if got := GeneralHoseReserved(&h, 4); got != 3600 {
		t.Errorf("GeneralHoseReserved = %v, want 3600", got)
	}
	// Figure 6(d): segments {B,C} at 400/900 and {D,E} at 500/900 → 1800G.
	h.Segments = []Segment{
		{Targets: []topology.Region{"B", "C"}, Alpha: 400.0 / 900},
		{Targets: []topology.Region{"D", "E"}, Alpha: 500.0 / 900},
	}
	if got := SegmentedReserved(&h); math.Abs(got-1800) > 1e-9 {
		t.Errorf("SegmentedReserved = %v, want 1800", got)
	}
	// "only half of the general Hose model".
	if SegmentedReserved(&h) >= GeneralHoseReserved(&h, 4) {
		t.Error("segmented reservation not below general hose")
	}
	if err := h.Validate([]topology.Region{"A", "B", "C", "D", "E"}); err != nil {
		t.Errorf("Figure 6 segmentation invalid: %v", err)
	}
}

func TestRequestValidate(t *testing.T) {
	targets := []topology.Region{"B", "C"}
	cases := []struct {
		name string
		h    Request
		ok   bool
	}{
		{"general", Request{Rate: 10}, true},
		{"negative rate", Request{Rate: -1}, false},
		{"good segments", Request{Rate: 10, Segments: []Segment{
			{Targets: []topology.Region{"B"}, Alpha: 0.4},
			{Targets: []topology.Region{"C"}, Alpha: 0.6}}}, true},
		{"alpha sum != 1", Request{Rate: 10, Segments: []Segment{
			{Targets: []topology.Region{"B"}, Alpha: 0.4},
			{Targets: []topology.Region{"C"}, Alpha: 0.4}}}, false},
		{"duplicate region", Request{Rate: 10, Segments: []Segment{
			{Targets: []topology.Region{"B"}, Alpha: 0.4},
			{Targets: []topology.Region{"B", "C"}, Alpha: 0.6}}}, false},
		{"uncovered region", Request{Rate: 10, Segments: []Segment{
			{Targets: []topology.Region{"B"}, Alpha: 0.4},
			{Targets: nil, Alpha: 0.6}}}, false},
		{"alpha out of range", Request{Rate: 10, Segments: []Segment{
			{Targets: []topology.Region{"B", "C"}, Alpha: 1.0}}}, false},
	}
	for _, c := range cases {
		err := c.h.Validate(targets)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRatioAndAlpha(t *testing.T) {
	perDst := map[topology.Region]*timeseries.Series{
		"B": constSeries(300, 10),
		"C": constSeries(100, 10),
		"D": constSeries(250, 10),
		"E": constSeries(250, 10),
	}
	rs := RatioSeries(perDst, []topology.Region{"B", "C"})
	if len(rs) != 10 {
		t.Fatalf("RatioSeries length = %d", len(rs))
	}
	for _, r := range rs {
		if math.Abs(r-400.0/900) > 1e-12 {
			t.Errorf("ratio = %v, want 4/9", r)
		}
	}
	if got := AlphaMinus(perDst, []topology.Region{"B", "C"}); math.Abs(got-4.0/9) > 1e-12 {
		t.Errorf("AlphaMinus = %v", got)
	}
	if got := AlphaPlus(perDst, []topology.Region{"B", "C"}); math.Abs(got-4.0/9) > 1e-12 {
		t.Errorf("AlphaPlus = %v", got)
	}
	// α−(S) + α+(S') = 1 (Equation 3).
	aMinus := AlphaMinus(perDst, []topology.Region{"B", "C"})
	aPlusComp := AlphaPlus(perDst, []topology.Region{"D", "E"})
	if math.Abs(aMinus+aPlusComp-1) > 1e-12 {
		t.Errorf("α−(S)+α+(S') = %v, want 1", aMinus+aPlusComp)
	}
}

func TestRatioSeriesSkipsZeroTotals(t *testing.T) {
	perDst := map[topology.Region]*timeseries.Series{
		"B": timeseries.New(t0, time.Hour, []float64{0, 10}),
		"C": timeseries.New(t0, time.Hour, []float64{0, 10}),
	}
	rs := RatioSeries(perDst, []topology.Region{"B"})
	if len(rs) != 1 || rs[0] != 0.5 {
		t.Errorf("RatioSeries = %v, want [0.5]", rs)
	}
}

func TestRatioSeriesEmpty(t *testing.T) {
	if got := RatioSeries(nil, nil); got != nil {
		t.Errorf("empty RatioSeries = %v", got)
	}
	if got := AlphaMinus(nil, nil); got != 0 {
		t.Errorf("empty AlphaMinus = %v", got)
	}
}

// RatioSeries sums float series across destinations; the accumulation order
// must not depend on map-iteration order (Go randomizes it per range
// statement), or segment alphas — and every borderline approval decision
// downstream — wobble in their low bits from run to run.
func TestRatioSeriesDeterministicAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	perDst := make(map[topology.Region]*timeseries.Series, 16)
	for i := 0; i < 16; i++ {
		vals := make([]float64, 24)
		for j := range vals {
			// Wide magnitude spread makes the sum order-sensitive.
			vals[j] = rng.Float64() * math.Pow(10, float64(rng.Intn(12)))
		}
		perDst[topology.Region(fmt.Sprintf("R%02d", i))] = timeseries.New(t0, time.Hour, vals)
	}
	sel := []topology.Region{"R03", "R07", "R11"}
	want := RatioSeries(perDst, sel)
	for trial := 0; trial < 50; trial++ {
		got := RatioSeries(perDst, sel)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ratio[%d] = %v, want exactly %v", trial, i, got[i], want[i])
			}
		}
	}
	if a, b := AlphaPlus(perDst, sel), AlphaPlus(perDst, sel); a != b {
		t.Fatalf("AlphaPlus not reproducible: %v vs %v", a, b)
	}
}

func TestTwoSegmentsPartition(t *testing.T) {
	perDst := map[topology.Region]*timeseries.Series{
		"B": constSeries(300, 10),
		"C": constSeries(100, 10),
		"D": constSeries(250, 10),
		"E": constSeries(250, 10),
	}
	s1, s2, err := TwoSegments(perDst)
	if err != nil {
		t.Fatal(err)
	}
	// Partition: disjoint, union = all.
	seen := make(map[topology.Region]int)
	for _, r := range s1.Targets {
		seen[r]++
	}
	for _, r := range s2.Targets {
		seen[r]++
	}
	if len(seen) != 4 {
		t.Errorf("segments cover %d regions, want 4", len(seen))
	}
	for r, n := range seen {
		if n != 1 {
			t.Errorf("region %s appears %d times", r, n)
		}
	}
	// Alphas sum to 1 (the paper's optimal decomposition condition).
	if math.Abs(s1.Alpha+s2.Alpha-1) > 1e-9 {
		t.Errorf("alphas sum to %v", s1.Alpha+s2.Alpha)
	}
	if len(s1.Targets) == 0 || len(s2.Targets) == 0 {
		t.Error("empty segment")
	}
	// Algorithm 1 stop condition: SEG satisfies α−(SEG) > 0.5 (or SEG was
	// capped to leave the complement non-empty).
	if a := AlphaMinus(perDst, s1.Targets); a <= 0.5 && len(s1.Targets) < 3 {
		t.Errorf("segment1 α− = %v with %d targets", a, len(s1.Targets))
	}
}

func TestTwoSegmentsSplitsAffinityGroups(t *testing.T) {
	// Destinations B,C anti-correlated with D,E across time: traffic moves
	// within {B,C} and within {D,E} but the group totals are stable.
	mk := func(a, b float64) *timeseries.Series {
		return timeseries.New(t0, time.Hour, []float64{a, b, a, b})
	}
	perDst := map[topology.Region]*timeseries.Series{
		"B": mk(300, 100), "C": mk(100, 300), // group total always 400
		"D": mk(250, 50), "E": mk(50, 250), // group total always 300
	}
	s1, s2, err := TwoSegments(perDst)
	if err != nil {
		t.Fatal(err)
	}
	group := func(seg Segment) string {
		out := ""
		for _, r := range seg.Targets {
			out += string(r)
		}
		return out
	}
	g1, g2 := group(s1), group(s2)
	if !(g1 == "BC" && g2 == "DE") && !(g1 == "DE" && g2 == "BC") {
		t.Errorf("segments = %q / %q, want BC / DE affinity split", g1, g2)
	}
	// Every observed TM remains feasible: α uses α+ so peak group share fits.
	for _, seg := range []Segment{s1, s2} {
		if AlphaPlus(perDst, seg.Targets) > seg.Alpha+1e-9 {
			t.Errorf("segment %v alpha %v below peak share", seg.Targets, seg.Alpha)
		}
	}
}

func TestTwoSegmentsNeedsTwoDestinations(t *testing.T) {
	perDst := map[topology.Region]*timeseries.Series{"B": constSeries(1, 3)}
	if _, _, err := TwoSegments(perDst); err == nil {
		t.Error("single destination accepted")
	}
}

func TestNSegments(t *testing.T) {
	perDst := map[topology.Region]*timeseries.Series{
		"B": constSeries(300, 8), "C": constSeries(100, 8),
		"D": constSeries(250, 8), "E": constSeries(250, 8),
		"F": constSeries(200, 8), "G": constSeries(150, 8),
	}
	segs, err := NSegments(perDst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	alphaSum := 0.0
	seen := make(map[topology.Region]bool)
	for _, s := range segs {
		alphaSum += s.Alpha
		for _, r := range s.Targets {
			if seen[r] {
				t.Errorf("region %s duplicated", r)
			}
			seen[r] = true
		}
	}
	if math.Abs(alphaSum-1) > 1e-9 {
		t.Errorf("alpha sum = %v", alphaSum)
	}
	if len(seen) != 6 {
		t.Errorf("covered %d regions, want 6", len(seen))
	}
	if _, err := NSegments(perDst, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestSegmentHose(t *testing.T) {
	perDst := map[topology.Region]*timeseries.Series{
		"B": constSeries(300, 4), "C": constSeries(100, 4),
	}
	h := Request{NPG: "Ads", Class: contract.ClassA, Region: "A", Direction: contract.Egress, Rate: 400}
	out := SegmentHose(h, perDst)
	if len(out.Segments) != 2 {
		t.Fatalf("segments = %d", len(out.Segments))
	}
	// Unsegmentable input returns the hose unchanged.
	same := SegmentHose(h, nil)
	if len(same.Segments) != 0 {
		t.Error("unsegmentable hose was segmented")
	}
}

func TestSamplerGeneralHose(t *testing.T) {
	h := Request{NPG: "Ads", Class: contract.ClassA, Region: "A", Direction: contract.Egress, Rate: 900}
	s := NewSampler(h, []topology.Region{"A", "B", "C", "D", "E"}, 42)
	if len(s.Targets) != 4 {
		t.Fatalf("targets = %v (own region must be excluded)", s.Targets)
	}
	rep := s.Representative()
	if math.Abs(rep.Total()-900) > 1e-6 {
		t.Errorf("representative total = %v, want 900 (tight constraint)", rep.Total())
	}
	for i := 0; i < 50; i++ {
		in := s.Interior()
		if in.Total() > 900+1e-6 {
			t.Errorf("interior TM exceeds hose: %v", in.Total())
		}
		for r, v := range in.Rates {
			if v < 0 {
				t.Errorf("negative rate for %s", r)
			}
		}
	}
}

func TestSamplerSegmentedHose(t *testing.T) {
	h := Request{
		NPG: "Ads", Class: contract.ClassA, Region: "A", Direction: contract.Egress, Rate: 900,
		Segments: []Segment{
			{Targets: []topology.Region{"B", "C"}, Alpha: 4.0 / 9},
			{Targets: []topology.Region{"D", "E"}, Alpha: 5.0 / 9},
		},
	}
	s := NewSampler(h, []topology.Region{"B", "C", "D", "E"}, 7)
	for i := 0; i < 50; i++ {
		tm := s.Interior()
		// Segment constraints hold.
		if tm.Rates["B"]+tm.Rates["C"] > 400+1e-6 {
			t.Errorf("segment1 violated: %v", tm.Rates["B"]+tm.Rates["C"])
		}
		if tm.Rates["D"]+tm.Rates["E"] > 500+1e-6 {
			t.Errorf("segment2 violated: %v", tm.Rates["D"]+tm.Rates["E"])
		}
	}
	rep := s.Representative()
	if math.Abs(rep.Total()-900) > 1e-6 {
		t.Errorf("segmented representative total = %v, want 900", rep.Total())
	}
}

func TestDominates(t *testing.T) {
	a := TM{Rates: map[topology.Region]float64{"B": 10, "C": 5}}
	b := TM{Rates: map[topology.Region]float64{"B": 8, "C": 5}}
	if !a.Dominates(b) {
		t.Error("a should dominate b")
	}
	if b.Dominates(a) {
		t.Error("b should not dominate a")
	}
	if !a.Dominates(a) {
		t.Error("self-domination must hold")
	}
	// Missing region in dominator = 0.
	c := TM{Rates: map[topology.Region]float64{"D": 1}}
	if a.Dominates(c) {
		t.Error("a lacks D, cannot dominate c")
	}
}

func TestCoverageGrowsWithTMs(t *testing.T) {
	h := Request{NPG: "X", Class: contract.ClassB, Region: "A", Direction: contract.Egress, Rate: 100}
	targets := []topology.Region{"B", "C", "D", "E", "F"}
	s := NewSampler(h, targets, 1)
	samples := make([]TM, 400)
	for i := range samples {
		samples[i] = s.Interior()
	}
	reps := make([]TM, 0, 256)
	var prev float64
	grew := false
	for _, k := range []int{4, 32, 256} {
		for len(reps) < k {
			reps = append(reps, s.Representative())
		}
		c := Coverage(reps, samples)
		if c < prev-1e-9 {
			t.Errorf("coverage decreased: %v -> %v at k=%d", prev, c, k)
		}
		if c > prev {
			grew = true
		}
		prev = c
	}
	if !grew {
		t.Error("coverage never grew with more TMs")
	}
	if prev <= 0 {
		t.Error("coverage stayed zero")
	}
}

func TestSegmentedNeedsFewerTMs(t *testing.T) {
	// §7.2 / Figure 20: segmentation reduces the TMs needed for a fixed
	// coverage because the segmented polytope is smaller.
	targets := []topology.Region{"B", "C", "D", "E", "F", "G"}
	general := Request{NPG: "X", Class: contract.ClassB, Region: "A", Direction: contract.Egress, Rate: 100}
	segmented := general
	segmented.Segments = []Segment{
		{Targets: []topology.Region{"B", "C", "D"}, Alpha: 0.5},
		{Targets: []topology.Region{"E", "F", "G"}, Alpha: 0.5},
	}
	const target = 0.6
	const maxTMs = 5000
	count := func(h Request, seed int64) int {
		sSamples := NewSampler(h, targets, seed)
		samples := make([]TM, 300)
		for i := range samples {
			samples[i] = sSamples.Interior()
		}
		return TMsForCoverage(NewSampler(h, targets, seed+1), samples, target, maxTMs)
	}
	genTMs := count(general, 10)
	segTMs := count(segmented, 10)
	if segTMs >= genTMs {
		t.Errorf("segmented needs %d TMs, general %d — expected fewer", segTMs, genTMs)
	}
}

func TestTMsForCoverageZeroTarget(t *testing.T) {
	h := Request{Region: "A", Rate: 10}
	s := NewSampler(h, []topology.Region{"B"}, 1)
	if got := TMsForCoverage(s, []TM{{}}, 0, 10); got != 0 {
		t.Errorf("zero target = %d", got)
	}
}

func TestBalanceHoses(t *testing.T) {
	hoses := []Request{
		{NPG: "X", Region: "A", Direction: contract.Egress, Rate: 100},
		{NPG: "X", Region: "B", Direction: contract.Ingress, Rate: 40},
	}
	regions := []topology.Region{"A", "B", "C"}
	out := BalanceHoses(hoses, regions, contract.ClassB)
	eg, in := totalByDirection(out)
	if math.Abs(eg-in) > 1e-9 {
		t.Errorf("not balanced: egress %v ingress %v", eg, in)
	}
	// Dummy entries inflate the shortage (ingress) direction evenly.
	dummies := 0
	for _, h := range out {
		if h.NPG == DummyNPG {
			dummies++
			if h.Direction != contract.Ingress {
				t.Error("dummy on wrong direction")
			}
			if math.Abs(h.Rate-20) > 1e-9 {
				t.Errorf("dummy rate = %v, want 20", h.Rate)
			}
		}
	}
	if dummies != 3 {
		t.Errorf("dummies = %d, want 3", dummies)
	}
	// Original slice untouched.
	if len(hoses) != 2 {
		t.Error("BalanceHoses mutated input")
	}
}

func TestBalanceHosesAlreadyBalanced(t *testing.T) {
	hoses := []Request{
		{NPG: "X", Region: "A", Direction: contract.Egress, Rate: 100},
		{NPG: "X", Region: "B", Direction: contract.Ingress, Rate: 100},
	}
	out := BalanceHoses(hoses, []topology.Region{"A"}, contract.ClassB)
	if len(out) != 2 {
		t.Errorf("balanced input gained %d entries", len(out)-2)
	}
}

// Property: AggregatePipes conserves volume — total egress hose rate equals
// total pipe rate, and so does total ingress.
func TestAggregateConservationProperty(t *testing.T) {
	f := func(rates []uint16) bool {
		if len(rates) == 0 {
			return true
		}
		regions := []topology.Region{"A", "B", "C", "D"}
		pipes := make([]PipeRequest, 0, len(rates))
		for i, r := range rates {
			src := regions[i%4]
			dst := regions[(i+1+i/4)%4]
			if src == dst {
				continue
			}
			pipes = append(pipes, PipeRequest{
				NPG: "P", Class: contract.ClassA, Src: src, Dst: dst, Rate: float64(r),
			})
		}
		hoses := AggregatePipes(pipes)
		eg, in := totalByDirection(hoses)
		want := PipeReserved(pipes)
		return math.Abs(eg-want) < 1e-6 && math.Abs(in-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every sampled TM (interior or representative) satisfies the hose
// constraint, and segmented samples satisfy every segment constraint.
func TestSamplerFeasibilityProperty(t *testing.T) {
	f := func(seed int64, rateRaw uint16) bool {
		rate := float64(rateRaw) + 1
		targets := []topology.Region{"B", "C", "D", "E"}
		h := Request{NPG: "X", Class: contract.ClassA, Region: "A", Direction: contract.Egress, Rate: rate,
			Segments: []Segment{
				{Targets: []topology.Region{"B", "C"}, Alpha: 0.3},
				{Targets: []topology.Region{"D", "E"}, Alpha: 0.7},
			}}
		s := NewSampler(h, targets, seed)
		for i := 0; i < 20; i++ {
			tm := s.Interior()
			if tm.Rates["B"]+tm.Rates["C"] > 0.3*rate+1e-6 {
				return false
			}
			if tm.Rates["D"]+tm.Rates["E"] > 0.7*rate+1e-6 {
				return false
			}
			if tm.Total() > rate+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Coverage returns the fraction of the sample TMs dominated by at least one
// representative — the §7.2 "hose coverage" metric, computed from scratch as
// the oracle for the sampler's incremental count in TMsForCoverage.
func Coverage(representatives, samples []TM) float64 {
	if len(samples) == 0 {
		return 0
	}
	covered := 0
	for _, s := range samples {
		for _, r := range representatives {
			if r.Dominates(s) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(samples))
}
