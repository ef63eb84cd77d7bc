package risk

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"entitlement/internal/flow"
	"entitlement/internal/topology"
)

func TestCurveBasics(t *testing.T) {
	// 10 scenarios: admitted 0..90.
	samples := make([]float64, 10)
	for i := range samples {
		samples[i] = float64(i * 10)
	}
	c := NewCurve(samples)
	if c.Scenarios() != 10 {
		t.Errorf("Scenarios = %d", c.Scenarios())
	}
	if got := c.AvailabilityAt(0); got != 1 {
		t.Errorf("AvailabilityAt(0) = %v, want 1", got)
	}
	if got := c.AvailabilityAt(50); got != 0.5 {
		t.Errorf("AvailabilityAt(50) = %v, want 0.5", got)
	}
	if got := c.AvailabilityAt(91); got != 0 {
		t.Errorf("AvailabilityAt(91) = %v, want 0", got)
	}
}

func TestCurveRateAtAvailability(t *testing.T) {
	samples := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	c := NewCurve(samples)
	// 90% of scenarios admit >= 20 (9 of 10).
	if got := c.RateAtAvailability(0.9); got != 20 {
		t.Errorf("RateAtAvailability(0.9) = %v, want 20", got)
	}
	if got := c.RateAtAvailability(1.0); got != 10 {
		t.Errorf("RateAtAvailability(1.0) = %v, want 10", got)
	}
	if got := c.RateAtAvailability(0.5); got != 60 {
		t.Errorf("RateAtAvailability(0.5) = %v, want 60", got)
	}
	if got := c.RateAtAvailability(0); got != 0 {
		t.Errorf("RateAtAvailability(0) = %v, want 0", got)
	}
}

func TestCurveEmpty(t *testing.T) {
	c := NewCurve(nil)
	if c.AvailabilityAt(1) != 0 || c.RateAtAvailability(0.5) != 0 {
		t.Error("empty curve should return zeros")
	}
}

// Property: RateAtAvailability is non-increasing in the SLO, and
// AvailabilityAt(RateAtAvailability(slo)) >= slo.
func TestCurveConsistencyProperty(t *testing.T) {
	f := func(raw []uint16, sloRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		c := NewCurve(samples)
		slo := 0.05 + 0.9*float64(sloRaw)/255
		r1 := c.RateAtAvailability(slo)
		r2 := c.RateAtAvailability(math.Min(slo+0.05, 1))
		if r2 > r1+1e-9 {
			return false
		}
		return c.AvailabilityAt(r1) >= slo-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// reliableDiamond builds A->B->D / A->C->D with configurable failure
// probability on the top path's first hop.
func reliableDiamond(failAB float64) *topology.Topology {
	topo := topology.New()
	topo.AddLink("A", "B", 100, failAB, -1)
	topo.AddLink("B", "D", 100, 0, -1)
	topo.AddLink("A", "C", 50, 0, -1)
	topo.AddLink("C", "D", 50, 0, -1)
	return topo
}

func TestAssessAllUpOnly(t *testing.T) {
	topo := reliableDiamond(0)
	d := flow.Demand{Key: "p", Src: "A", Dst: "D", Rate: 120, Class: 0}
	res, err := Assess(topo, []flow.Demand{d}, Options{Scenarios: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curves["p"]
	if c == nil {
		t.Fatal("no curve")
	}
	// No failures possible: every scenario admits 120 (two paths 100+50 > 120).
	if got := c.RateAtAvailability(1); math.Abs(got-120) > 1e-6 {
		t.Errorf("guaranteed rate = %v, want 120", got)
	}
	if !res.MeetsSLO(d, 0.9999) {
		t.Error("perfect network fails SLO")
	}
}

func TestAssessDegradedUnderFailures(t *testing.T) {
	// A->B fails 30% of the time; demand of 100 only fits when it's up
	// (fallback path has 50).
	topo := reliableDiamond(0.3)
	d := flow.Demand{Key: "p", Src: "A", Dst: "D", Rate: 100, Class: 0}
	res, err := Assess(topo, []flow.Demand{d}, Options{Scenarios: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curves["p"]
	availFull := c.AvailabilityAt(100)
	if availFull < 0.6 || availFull > 0.8 {
		t.Errorf("availability of full rate = %v, want ~0.7", availFull)
	}
	// 50 is always available via the bottom path.
	if got := c.AvailabilityAt(50); got < 0.999 {
		t.Errorf("availability of 50 = %v, want 1", got)
	}
	// At a 99% SLO only the failure-proof 50 can be guaranteed.
	if got := c.RateAtAvailability(0.99); math.Abs(got-50) > 1e-6 {
		t.Errorf("rate at 0.99 = %v, want 50", got)
	}
	if res.MeetsSLO(d, 0.99) {
		t.Error("100 at SLO 0.99 should not be met")
	}
	if !res.MeetsSLO(flow.Demand{Key: "p", Src: "A", Dst: "D", Rate: 50, Class: 0}, 0.99) {
		t.Error("50 at SLO 0.99 should be met")
	}
}

func TestAssessPriorityCompetition(t *testing.T) {
	// Two demands share one 100-capacity path; the premium class keeps its
	// full rate in every scenario, the low class gets the leftovers.
	topo := topology.New()
	topo.AddLink("A", "B", 100, 0, -1)
	demands := []flow.Demand{
		{Key: "premium", Src: "A", Dst: "B", Rate: 70, Class: 0},
		{Key: "basic", Src: "A", Dst: "B", Rate: 70, Class: 3},
	}
	res, err := Assess(topo, demands, Options{Scenarios: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.GuaranteedRate("premium", 1); math.Abs(got-70) > 1e-6 {
		t.Errorf("premium guaranteed = %v, want 70", got)
	}
	if got := res.GuaranteedRate("basic", 1); math.Abs(got-30) > 1e-6 {
		t.Errorf("basic guaranteed = %v, want 30", got)
	}
}

func TestAssessDuplicateKey(t *testing.T) {
	topo := topology.New()
	topo.AddLink("A", "B", 100, 0, -1)
	demands := []flow.Demand{
		{Key: "d", Src: "A", Dst: "B", Rate: 10, Class: 0},
		{Key: "d", Src: "A", Dst: "B", Rate: 20, Class: 1},
	}
	if _, err := Assess(topo, demands, Options{Scenarios: 1}); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestAssessEmptyDemands(t *testing.T) {
	topo := topology.New()
	topo.AddLink("A", "B", 100, 0, -1)
	res, err := Assess(topo, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 0 {
		t.Error("empty assessment has curves")
	}
	if res.GuaranteedRate("nope", 0.5) != 0 {
		t.Error("unknown key should be 0")
	}
	if res.MeetsSLO(flow.Demand{Key: "nope", Rate: 1}, 0.5) {
		t.Error("unknown key should fail SLO")
	}
}

func TestAssessDeterministicWithSeed(t *testing.T) {
	topo := reliableDiamond(0.2)
	d := []flow.Demand{{Key: "p", Src: "A", Dst: "D", Rate: 100, Class: 0}}
	a, _ := Assess(topo, d, Options{Scenarios: 100, Seed: 5})
	b, _ := Assess(topo, d, Options{Scenarios: 100, Seed: 5})
	if a.Curves["p"].RateAtAvailability(0.9) != b.Curves["p"].RateAtAvailability(0.9) {
		t.Error("same seed produced different curves")
	}
}

// Property: a curve's guaranteed rate at any SLO never exceeds the request,
// and adding failures can only lower availability.
func TestAssessMonotoneInFailuresProperty(t *testing.T) {
	f := func(seedRaw uint8) bool {
		seed := int64(seedRaw) + 1
		reliable := reliableDiamond(0.05)
		flaky := reliableDiamond(0.5)
		d := []flow.Demand{{Key: "p", Src: "A", Dst: "D", Rate: 100, Class: 0}}
		opts := Options{Scenarios: 300, Seed: seed}
		ra, err1 := Assess(reliable, d, opts)
		rb, err2 := Assess(flaky, d, opts)
		if err1 != nil || err2 != nil {
			return false
		}
		aRel := ra.Curves["p"].AvailabilityAt(100)
		aFlaky := rb.Curves["p"].AvailabilityAt(100)
		return aRel >= aFlaky
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestCurveRelativeToleranceTbps is the regression test for the former
// absolute 1e-9 epsilon, which was meaningless against 1e11-scale
// bandwidths: a Tbps-scale sample carrying ordinary float accumulation
// error (well under one bit/s relative) must still count as meeting the
// nominal rate.
func TestCurveRelativeToleranceTbps(t *testing.T) {
	const rate = 1e12 // 1 Tbps
	// Admitted samples as a water-filling loop produces them: summed in
	// pieces, ~0.5 bits/s under the nominal rate (5e-13 relative error —
	// far above the old 1e-9 absolute window, far below any real shortfall).
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = rate - 0.5
	}
	c := NewCurve(samples)
	if got := c.AvailabilityAt(rate); got != 1 {
		t.Errorf("AvailabilityAt(1 Tbps) = %v, want 1 (0.5 bit/s accumulation error must be tolerated)", got)
	}
	res := &Result{Curves: map[string]*Curve{"p": c}}
	d := flow.Demand{Key: "p", Rate: rate}
	if !res.MeetsSLO(d, 0.99) {
		t.Error("MeetsSLO rejected a Tbps demand over float accumulation noise")
	}
	// A genuine shortfall at the same scale must NOT be absorbed.
	short := make([]float64, 100)
	for i := range short {
		short[i] = 0.999 * rate // 1 Gbps short
	}
	cs := NewCurve(short)
	if got := cs.AvailabilityAt(rate); got != 0 {
		t.Errorf("AvailabilityAt over a 1 Gbps shortfall = %v, want 0", got)
	}
	if (&Result{Curves: map[string]*Curve{"p": cs}}).MeetsSLO(d, 0.99) {
		t.Error("MeetsSLO accepted a 1 Gbps shortfall at Tbps scale")
	}
}

// TestAssessWorkerCountInvariance asserts the tentpole determinism
// guarantee: the same seed produces byte-identical curve samples for every
// worker count, because each scenario owns a deterministic RNG and output
// slot.
func TestAssessWorkerCountInvariance(t *testing.T) {
	opts := topology.DefaultBackboneOptions()
	opts.Regions = 8
	opts.Chords = 6
	topo, err := topology.Backbone(opts)
	if err != nil {
		t.Fatal(err)
	}
	regions := topo.RegionsSorted()
	var demands []flow.Demand
	for i := 0; i < 12; i++ {
		src := regions[i%len(regions)]
		dst := regions[(i+3)%len(regions)]
		demands = append(demands, flow.Demand{
			Key: string(src) + ">" + string(dst) + string(rune('a'+i)),
			Src: src, Dst: dst, Rate: 300e9, Class: i % 4,
		})
	}
	for _, seed := range []int64{1, 42} {
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			res, err := Assess(topo, demands, Options{Scenarios: 60, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			for _, d := range demands {
				want := ref.Curves[d.Key].Samples()
				got := res.Curves[d.Key].Samples()
				if len(want) != len(got) {
					t.Fatalf("seed %d workers %d: sample count %d != %d", seed, workers, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("seed %d workers %d: %s sample %d: %v != %v (not byte-identical)",
							seed, workers, d.Key, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestAssessConcurrentSharedTopology exercises concurrent Assess calls on
// one shared *topology.Topology (each itself running a multi-worker pool) —
// the pattern approval uses when assessing realizations; run under -race.
func TestAssessConcurrentSharedTopology(t *testing.T) {
	opts := topology.DefaultBackboneOptions()
	opts.Regions = 6
	topo, err := topology.Backbone(opts)
	if err != nil {
		t.Fatal(err)
	}
	regions := topo.RegionsSorted()
	demands := []flow.Demand{
		{Key: "a", Src: regions[0], Dst: regions[3], Rate: 200e9, Class: 0},
		{Key: "b", Src: regions[1], Dst: regions[4], Rate: 200e9, Class: 2},
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = Assess(topo, demands, Options{Scenarios: 40, Seed: int64(g), Workers: 4})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

func TestCurveSamplesAndMerge(t *testing.T) {
	a := NewCurve([]float64{1, 3})
	b := NewCurve([]float64{2, 4})
	s := a.Samples()
	s[0] = 99 // must not alias internal state
	if a.Samples()[0] != 1 {
		t.Error("Samples aliases internal storage")
	}
	m := Merge(a, b, nil)
	if m.Scenarios() != 4 {
		t.Errorf("merged scenarios = %d", m.Scenarios())
	}
	if got := m.RateAtAvailability(1); got != 1 {
		t.Errorf("merged min = %v", got)
	}
	if got := m.AvailabilityAt(3); got != 0.5 {
		t.Errorf("merged availability at 3 = %v", got)
	}
}

func TestAssessPhasedNewLinkImprovesAvailability(t *testing.T) {
	// Before: only the flaky top path can carry the demand. After a planned
	// augmentation the bottom path is upgraded, so the post-change phase
	// admits the full rate reliably.
	before := reliableDiamond(0.3)
	after := topology.New()
	after.AddLink("A", "B", 100, 0.3, -1)
	after.AddLink("B", "D", 100, 0, -1)
	after.AddLink("A", "C", 100, 0, -1) // upgraded from 50
	after.AddLink("C", "D", 100, 0, -1)

	d := []flow.Demand{{Key: "p", Src: "A", Dst: "D", Rate: 100, Class: 0}}
	opts := Options{Scenarios: 1000, Seed: 11}

	beforeOnly, err := AssessPhased(before, after, 0, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	half, err := AssessPhased(before, after, 0.5, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	afterOnly, err := AssessPhased(before, after, 1, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	aBefore := beforeOnly.Curves["p"].AvailabilityAt(100)
	aHalf := half.Curves["p"].AvailabilityAt(100)
	aAfter := afterOnly.Curves["p"].AvailabilityAt(100)
	if !(aBefore < aHalf && aHalf < aAfter) {
		t.Errorf("availabilities not ordered: before=%v half=%v after=%v", aBefore, aHalf, aAfter)
	}
	if aAfter < 0.99 {
		t.Errorf("post-change availability = %v, want ~1", aAfter)
	}
}

func TestAssessPhasedValidation(t *testing.T) {
	topo := reliableDiamond(0)
	d := []flow.Demand{{Key: "p", Src: "A", Dst: "D", Rate: 10, Class: 0}}
	if _, err := AssessPhased(topo, topo, -0.1, d, Options{Scenarios: 5}); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := AssessPhased(topo, topo, 1.5, d, Options{Scenarios: 5}); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

// TestAssessPrecomputedStatesAndPool pins the byte-identity contract of the
// granting service's reuse path: an assessment whose scenario set comes
// precomputed from a ResultCache (sampled by an earlier entry with other
// demands) and whose runners come recycled from a RunnerPool returns exactly
// the samples a plain assessment draws itself.
func TestAssessPrecomputedStatesAndPool(t *testing.T) {
	topo := topology.FigureSix()
	regions := topo.RegionsSorted()
	var demands []flow.Demand
	for i := 0; i < 8; i++ {
		src := regions[i%len(regions)]
		dst := regions[(i+2)%len(regions)]
		demands = append(demands, flow.Demand{
			Key: string(src) + ">" + string(dst) + string(rune('a'+i)),
			Src: src, Dst: dst, Rate: 400e9, Class: i % 3,
		})
	}
	base := Options{Scenarios: 50, Seed: 11, Workers: 2}
	ref, err := Assess(topo, demands, base)
	if err != nil {
		t.Fatal(err)
	}
	pool := flow.NewRunnerPool(topo, 8)
	reuse := base
	reuse.Pool = pool
	reuse.Cache = NewResultCache(4)
	// Another demand list samples the set; the assessment under test adopts it.
	if _, err := Assess(topo, demands[:3], reuse); err != nil {
		t.Fatal(err)
	}
	// Twice, so the second pass also replays from the cache.
	for pass := 0; pass < 2; pass++ {
		res, err := Assess(topo, demands, reuse)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCurves(t, fmt.Sprintf("cache+pool pass %d", pass), demands, res, ref)
	}
	// The passes returned their runners: the next Get recycles one that has
	// already allocated (a fresh runner has no failure state yet).
	if pool.Get().Network().State == nil {
		t.Error("pool retained no runners after assessments")
	}

	// A pool bound to another topology is ignored, not misused.
	other := topology.FigureSix()
	foreign := base
	foreign.Pool = flow.NewRunnerPool(other, 4)
	res, err := Assess(topo, demands, foreign)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCurves(t, "foreign pool", demands, res, ref)
	if foreign.Pool.Get().Network().State != nil {
		t.Error("foreign pool gained a runner")
	}
}

// TestSampleStatesDefaultScenarios: zero Scenarios falls back to the 500-draw
// default, in Simulate as in Assess: 501 slots with the forced all-up one.
func TestSampleStatesDefaultScenarios(t *testing.T) {
	topo := reliableDiamond(0.2)
	d := []flow.Demand{{Key: "p", Src: "A", Dst: "D", Rate: 100, Class: 0}}
	slots := 0
	if err := Simulate(topo, d, Options{Seed: 3}, func(st *State) { slots += st.Count }); err != nil {
		t.Fatal(err)
	}
	res, err := Assess(topo, d, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Curves["p"].Scenarios(); slots != 501 || got != 501 {
		t.Fatalf("default pass covered %d slots, default assessment %d, want 501", slots, got)
	}
}

// AvailabilityAt returns the fraction of scenarios in which at least b
// bandwidth was admitted (within relative tolerance).
func (c *Curve) AvailabilityAt(b float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Count samples >= b: first index with sorted[i] >= b.
	tol := bwTol(b)
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] >= b-tol })
	return float64(len(c.sorted)-i) / float64(len(c.sorted))
}

// MeetsSLO reports whether the demand's full requested rate is available at
// the SLO target under the assessment.
func (r *Result) MeetsSLO(d flow.Demand, slo float64) bool {
	c, ok := r.Curves[d.Key]
	if !ok {
		return false
	}
	return c.RateAtAvailability(slo) >= d.Rate-bwTol(d.Rate)
}
