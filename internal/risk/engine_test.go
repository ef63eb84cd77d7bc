package risk

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"entitlement/internal/flow"
	"entitlement/internal/topology"
)

// naiveSlot is what the naive loop records for one scenario slot.
type naiveSlot struct {
	down     []bool
	admitted []float64
	used     []float64 // capacity − residual per link (0 for down links)
}

// naivePass is the reference the engine is checked against: no classes, no
// workers, no reuse — every slot (the forced all-up one, then each sampled
// scenario) routed on a fresh flow.Runner.
func naivePass(topo *topology.Topology, demands []flow.Demand, opts Options) []naiveSlot {
	if opts.Scenarios <= 0 {
		opts.Scenarios = defaultScenarios
	}
	slots := make([]naiveSlot, 0, opts.Scenarios+1)
	for j := -1; j < opts.Scenarios; j++ {
		state := topo.AllUp()
		if j >= 0 {
			state = topo.SampleFailureAt(opts.Seed, j)
		}
		r := flow.NewRunner(topo)
		adm := r.AllocateInto(state, demands, flow.AllocateOptions{}, nil)
		slots = append(slots, naiveSlot{down: state.Down, admitted: adm, used: linkUsage(topo, state, r.Network())})
	}
	return slots
}

func linkUsage(topo *topology.Topology, state *topology.FailureState, net *flow.Network) []float64 {
	used := make([]float64, topo.NumLinks())
	for id := range used {
		if state.IsUp(id) {
			used[id] = topo.Link(id).Capacity - net.Residual(id)
		}
	}
	return used
}

// naiveResult folds the naive loop's slots into curves.
func naiveResult(demands []flow.Demand, slots []naiveSlot) *Result {
	res := &Result{Curves: map[string]*Curve{}, Routed: len(slots)}
	for di, d := range demands {
		col := make([]float64, len(slots))
		for j := range slots {
			col[j] = slots[j].admitted[di]
		}
		res.Curves[d.Key] = NewCurve(col)
	}
	return res
}

// naivePhased mirrors AssessPhased's scenario split and per-phase seeds over
// the naive loop.
func naivePhased(before, after *topology.Topology, fracAfter float64, demands []flow.Demand, opts Options) *Result {
	afterScenarios := int(float64(opts.Scenarios) * fracAfter)
	merged := &Result{Curves: map[string]*Curve{}}
	phase := func(t *topology.Topology, scenarios int, seedOffset int64) {
		if scenarios <= 0 {
			return
		}
		o := opts
		o.Scenarios, o.Seed = scenarios, opts.Seed+seedOffset
		for k, c := range naiveResult(demands, naivePass(t, demands, o)).Curves {
			merged.Curves[k] = Merge(merged.Curves[k], c)
		}
	}
	phase(before, opts.Scenarios-afterScenarios, 0)
	phase(after, afterScenarios, 1_000_003)
	return merged
}

// randomClassTopology draws a small backbone whose failure probabilities
// range from "almost every state all-up" to "almost every state distinct",
// with SRLG cuts and a few administratively disabled links.
func randomClassTopology(t *testing.T, rng *rand.Rand) *topology.Topology {
	t.Helper()
	bo := topology.DefaultBackboneOptions()
	bo.Regions = 4 + rng.Intn(6)
	bo.Chords = rng.Intn(6)
	bo.Seed = rng.Int63()
	bo.LinkFail = []float64{0, 0.002, 0.05, 0.3}[rng.Intn(4)]
	bo.FiberCut = []float64{0, 0.001, 0.1}[rng.Intn(3)]
	topo, err := topology.Backbone(bo)
	if err != nil {
		t.Fatal(err)
	}
	for n := rng.Intn(3); n > 0; n-- {
		if err := topo.SetLinkDisabled(rng.Intn(topo.NumLinks()), true); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

func randomClassDemands(rng *rand.Rand, topo *topology.Topology) []flow.Demand {
	regions := topo.RegionsSorted()
	demands := make([]flow.Demand, 1+rng.Intn(8))
	for i := range demands {
		src := regions[rng.Intn(len(regions))]
		dst := regions[rng.Intn(len(regions))]
		for dst == src {
			dst = regions[rng.Intn(len(regions))]
		}
		demands[i] = flow.Demand{
			Key: fmt.Sprintf("%s>%s/%d", src, dst, i),
			Src: src, Dst: dst, Rate: (50 + 950*rng.Float64()) * 1e9, Class: rng.Intn(4),
		}
	}
	return demands
}

// TestSimulateMatchesNaiveLoop is the engine's differential oracle: over
// random topologies (SRLGs, disabled links, failure rates from all-states-
// equal to all-distinct), seeds and worker counts, what the visitor is handed
// — states, multiplicities, admitted vectors and per-link usage off the
// runner's residual network — equals, slot for slot, a naive loop routing
// every sampled scenario on a fresh runner; visits arrive in the same order
// at every worker count.
func TestSimulateMatchesNaiveLoop(t *testing.T) {
	sawAllEqual, sawAllDistinct := false, false
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		topo := randomClassTopology(t, rng)
		demands := randomClassDemands(rng, topo)
		opts := Options{Scenarios: 10 + rng.Intn(90), Seed: rng.Int63n(1 << 40)}
		slots := naivePass(topo, demands, opts)

		var order [][]bool // visit order at the first worker count
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("trial %d workers=%d", trial, workers)
			o := opts
			o.Workers = workers
			type visit struct {
				naiveSlot
				count int
			}
			var visits []visit
			err := Simulate(topo, demands, o, func(st *State) {
				visits = append(visits, visit{
					naiveSlot: naiveSlot{down: st.Failure.Down, admitted: slices.Clone(st.Admitted), used: linkUsage(topo, st.Failure, st.Net)},
					count:     st.Count,
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(visits[0].down, topo.AllUp().Down) {
				t.Fatalf("%s: first visit is not the all-up state", label)
			}
			seen := make([]int, len(visits))
			for j, want := range slots {
				v := slices.IndexFunc(visits, func(v visit) bool { return slices.Equal(v.down, want.down) })
				if v < 0 {
					t.Fatalf("%s: slot %d's state was never visited", label, j)
				}
				seen[v]++
				if !slices.Equal(visits[v].admitted, want.admitted) {
					t.Fatalf("%s: slot %d admitted %v, naive loop %v", label, j, visits[v].admitted, want.admitted)
				}
				if !slices.Equal(visits[v].used, want.used) {
					t.Fatalf("%s: slot %d link usage %v, naive loop %v", label, j, visits[v].used, want.used)
				}
			}
			for v := range visits {
				if visits[v].count != seen[v] {
					t.Fatalf("%s: state %d visited with Count=%d, %d slots drew it", label, v, visits[v].count, seen[v])
				}
			}
			downs := make([][]bool, len(visits))
			for v := range visits {
				downs[v] = visits[v].down
			}
			if order == nil {
				order = downs
			} else if !slices.EqualFunc(order, downs, func(a, b []bool) bool { return slices.Equal(a, b) }) {
				t.Fatalf("%s: visit order differs from workers=1", label)
			}
			sawAllEqual = sawAllEqual || len(visits) == 1
			sawAllDistinct = sawAllDistinct || len(visits) >= len(slots)-1
		}
	}
	if !sawAllEqual || !sawAllDistinct {
		t.Errorf("trials never reached both ends of the class spectrum (all equal: %v, all distinct: %v)", sawAllEqual, sawAllDistinct)
	}
}

// TestClassedAssessMatchesPerSlot: routing one representative per class of
// equal failure states is curve-for-curve identical to routing every slot —
// plain, through a cache (fill and replay), for every worker count, and
// through AssessPhased.
func TestClassedAssessMatchesPerSlot(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		topo := randomClassTopology(t, rng)
		demands := randomClassDemands(rng, topo)
		opts := Options{Scenarios: 10 + rng.Intn(90), Seed: rng.Int63n(1 << 40)}
		want := naiveResult(demands, naivePass(topo, demands, opts))
		total := opts.Scenarios + 1

		planned := topo.Clone()
		regions := planned.RegionsSorted()
		if _, err := planned.AddLink(regions[0], regions[len(regions)/2], 800e9, 0.01, -1); err != nil {
			t.Fatal(err)
		}
		frac := rng.Float64()
		wantPhased := naivePhased(topo, planned, frac, demands, opts)

		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("trial %d workers=%d", trial, workers)
			o := opts
			o.Workers = workers

			got, err := Assess(topo, demands, o)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCurves(t, label+" sampled", demands, got, want)
			if got.Routed < 1 || got.Routed > total {
				t.Fatalf("%s: Routed=%d over %d slots", label, got.Routed, total)
			}

			cached := o
			cached.Cache = NewResultCache(4)
			for _, pass := range []string{" cache fill", " cache replay"} {
				res, err := Assess(topo, demands, cached)
				if err != nil {
					t.Fatal(err)
				}
				requireSameCurves(t, label+pass, demands, res, want)
			}

			phased, err := AssessPhased(topo, planned, frac, demands, o)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCurves(t, label+" phased", demands, phased, wantPhased)
			if phased.Routed < 1 {
				t.Fatalf("%s: phased Routed=%d", label, phased.Routed)
			}
		}
	}
}

// TestSecondEntrySharesScenarioSet: a second cache entry at the same
// (topology, epoch, seed, scenarios) adopts the first one's scenario set
// instead of sampling again; a different seed, scenario count or epoch does
// not.
func TestSecondEntrySharesScenarioSet(t *testing.T) {
	topo := deltaTestTopology(t, 8)
	cache := NewResultCache(8)
	opts := Options{Scenarios: 20, Seed: 4, Cache: cache}
	setOf := func(demands []flow.Demand, o Options) *scenarioSet {
		t.Helper()
		if _, err := Assess(topo, demands, o); err != nil {
			t.Fatal(err)
		}
		return cache.byKey[newAssessID(topo, demands, o)].Value.(*resultEntry).set
	}
	first := setOf(deltaTestDemands(topo, 2), opts)
	if second := setOf(deltaTestDemands(topo, 3), opts); second != first {
		t.Fatal("a second entry at the same epoch, seed and scenario count sampled its own scenario set")
	}
	otherSeed, fewer := opts, opts
	otherSeed.Seed++
	fewer.Scenarios--
	if setOf(deltaTestDemands(topo, 2), otherSeed) == first || setOf(deltaTestDemands(topo, 2), fewer) == first {
		t.Fatal("entries with another seed or scenario count share the set")
	}
	if err := topo.SetLinkFailProb(0, 0.37); err != nil {
		t.Fatal(err)
	}
	afterMutation := setOf(deltaTestDemands(topo, 4), opts)
	if afterMutation == first {
		t.Fatal("an entry filled after a mutation adopted a set sampled before it")
	}
	if setOf(deltaTestDemands(topo, 2), opts) != afterMutation {
		t.Fatal("a stale entry's refill did not adopt the set already sampled at the new epoch")
	}
}

// TestClassesSplitOnAnyBit: states differing in a single link, or in
// len(Down) (a state drawn before a link add vs. after), never share a class,
// whatever their hashes do.
func TestClassesSplitOnAnyBit(t *testing.T) {
	const links = 70 // spans more than one machine word of bits
	base := func() *topology.FailureState { return &topology.FailureState{Down: make([]bool, links)} }
	states := []*topology.FailureState{base(), base()}
	for id := 0; id < links; id++ {
		st := base()
		st.Down[id] = true
		states = append(states, st)
	}
	states = append(states, &topology.FailureState{Down: make([]bool, links+1)})
	set, byHash := &scenarioSet{}, map[uint64][]int{}
	for _, st := range states {
		set.add(byHash, st)
	}
	if want := links + 2; len(set.classes) != want {
		t.Fatalf("%d classes, want %d (all-up, one per single-link failure, the longer all-up)", len(set.classes), want)
	}
	if set.classes[0].count != 2 || set.classes[0].down != states[0] {
		t.Fatal("two all-up states of equal length are not one class represented by the first")
	}
	for c := 1; c < len(set.classes); c++ {
		// states[1] joined class 0, so class c is states[c+1] alone.
		if set.classes[c].count != 1 || set.classes[c].down != states[c+1] {
			t.Fatalf("class %d holds %d states, or not state %d", c, set.classes[c].count, c+1)
		}
	}

	// The same through a cache entry across a link add: every state of the
	// refill carries the new link's bit, and states that agreed before but
	// draw different bits for the new link separate.
	topo := deltaTestTopology(t, 9)
	demands := deltaTestDemands(topo, 3)
	opts := Options{Scenarios: 60, Seed: 11}
	cached := opts
	cached.Cache = NewResultCache(2)
	if _, err := Assess(topo, demands, cached); err != nil {
		t.Fatal(err)
	}
	id := cached.Cache.byKey[newAssessID(topo, demands, opts)]
	before := len(id.Value.(*resultEntry).set.classes)
	regions := topo.RegionsSorted()
	added, err := topo.AddLink(regions[0], regions[3], 600e9, 0.5, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Assess(topo, demands, cached)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCurves(t, "link add", demands, got, naiveResult(demands, naivePass(topo, demands, opts)))
	after := cached.Cache.byKey[newAssessID(topo, demands, opts)].Value.(*resultEntry).set
	if len(after.classes) <= before {
		t.Fatalf("a coin-flip link split no class: %d classes before, %d after", before, len(after.classes))
	}
	up, down := 0, 0
	for _, class := range after.classes {
		if len(class.down.Down) != topo.NumLinks() {
			t.Fatalf("a state of the refill has %d bits, the topology %d links", len(class.down.Down), topo.NumLinks())
		}
		if class.down.Down[added] {
			down += class.count
		} else {
			up += class.count
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("new link up in %d scenarios, down in %d: the fixture should see both", up, down)
	}
}

// TestRoutedCountPinned pins the dedupe the grant path relies on: on the
// default backbone with grantd's defaults (100 scenarios, per-TM seeds 3..6)
// the 101 slots of each assessment hold this many distinct failure states.
func TestRoutedCountPinned(t *testing.T) {
	topo, err := topology.Backbone(topology.DefaultBackboneOptions())
	if err != nil {
		t.Fatal(err)
	}
	demands := deltaTestDemands(topo, 8)
	for seed, want := range map[int64]int{3: 12, 4: 5, 5: 9, 6: 11} {
		res, err := Assess(topo, demands, Options{Scenarios: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Routed != want || res.Curves[demands[0].Key].Scenarios() != 101 {
			t.Errorf("seed %d: Routed=%d over %d slots, want %d/101", seed, res.Routed, res.Curves[demands[0].Key].Scenarios(), want)
		}
	}
}

// TestRoutedMetricsExactDelta: scenarios_total counts slots evaluated,
// routed_states_total allocator runs, scenario_seconds one observation per
// allocator run, and the result-cache counters one hit or miss per
// assessment — on cold, replayed and post-mutation passes.
func TestRoutedMetricsExactDelta(t *testing.T) {
	topo := deltaTestTopology(t, 12)
	demands := deltaTestDemands(topo, 4)
	opts := Options{Scenarios: 50, Seed: 2, Workers: 2, Cache: NewResultCache(2)}
	step := func(label string, wantSlots int, wantHit bool) *Result {
		t.Helper()
		scen0, routed0, obs0 := mScenarios.Value(), mRoutedStates.Value(), mScenarioSeconds.Count()
		hits0, misses0 := mResultCacheHits.Value(), mResultCacheMisses.Value()
		res, err := Assess(topo, demands, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := mScenarios.Value() - scen0; d != int64(wantSlots) {
			t.Errorf("%s: scenarios_total moved by %d, want %d", label, d, wantSlots)
		}
		if d := mRoutedStates.Value() - routed0; d != int64(res.Routed) {
			t.Errorf("%s: routed_states_total moved by %d, want %d", label, d, res.Routed)
		}
		if d := mScenarioSeconds.Count() - obs0; d != int64(res.Routed) {
			t.Errorf("%s: scenario_seconds observed %d times, want %d", label, d, res.Routed)
		}
		hits, misses := mResultCacheHits.Value()-hits0, mResultCacheMisses.Value()-misses0
		if wantHit != (hits == 1) || wantHit == (misses == 1) || hits+misses != 1 {
			t.Errorf("%s: result cache hits +%d misses +%d, want hit=%v", label, hits, misses, wantHit)
		}
		return res
	}
	cold := step("cold", 51, false)
	if cold.Routed < 2 || cold.Routed >= 51 {
		t.Fatalf("cold pass routed %d of 51 slots; the fixture should dedupe some but not all", cold.Routed)
	}
	if warm := step("replay", 0, true); warm.Routed != 0 {
		t.Fatalf("replay routed %d states", warm.Routed)
	}
	if err := topo.SetLinkFailProb(1, 0.4); err != nil {
		t.Fatal(err)
	}
	if refill := step("post-mutation", 51, false); refill.Routed == 0 {
		t.Fatal("post-mutation pass routed nothing")
	}
	if opts.Cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after a stale entry's refill, want 1", opts.Cache.Len())
	}
}
