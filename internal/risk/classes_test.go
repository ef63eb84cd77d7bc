package risk

import (
	"fmt"
	"math/rand"
	"testing"

	"entitlement/internal/flow"
	"entitlement/internal/topology"
)

// assessPerSlot is the reference the class partition is checked against: the
// pre-partition engine, one allocator run per scenario slot, serial, states
// drawn (or taken from opts.States) slot by slot.
func assessPerSlot(topo *topology.Topology, demands []flow.Demand, opts Options) *Result {
	if opts.Scenarios <= 0 {
		opts.Scenarios = 500
	}
	offset, total := slotLayout(opts)
	cols := newColumns(len(demands), total)
	r := flow.NewRunner(topo)
	var adm []float64
	for slot := 0; slot < total; slot++ {
		var state *topology.FailureState
		switch {
		case slot < offset:
			state = topo.AllUp()
		case opts.States != nil:
			state = opts.States[slot-offset]
		default:
			state = topo.SampleFailureAt(opts.Seed, slot-offset)
		}
		adm = r.AllocateInto(state, demands, opts.Alloc, adm)
		for di := range demands {
			cols[di][slot] = adm[di]
		}
	}
	return buildResult(demands, cols, total, 0, total)
}

// assessPhasedPerSlot mirrors AssessPhased's scenario split and per-phase
// seeds over the per-slot reference.
func assessPhasedPerSlot(before, after *topology.Topology, fracAfter float64, demands []flow.Demand, opts Options) *Result {
	afterScenarios := int(float64(opts.Scenarios) * fracAfter)
	merged := &Result{Curves: map[string]*Curve{}}
	phase := func(t *topology.Topology, scenarios int, seedOffset int64) {
		if scenarios <= 0 {
			return
		}
		o := opts
		o.Scenarios, o.Seed = scenarios, opts.Seed+seedOffset
		for k, c := range assessPerSlot(t, demands, o).Curves {
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

// TestClassedAssessMatchesPerSlot is the tentpole property: routing one
// representative per class of equal failure states and copying its column is
// curve-for-curve identical to routing every slot — for sampled, injected
// and cache-owned states, with and without the forced all-up slot, for every
// worker count, and through AssessPhased.
func TestClassedAssessMatchesPerSlot(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		topo := randomClassTopology(t, rng)
		demands := randomClassDemands(rng, topo)
		opts := Options{
			Scenarios: 10 + rng.Intn(90),
			Seed:      rng.Int63n(1 << 40),
			SkipAllUp: trial%2 == 1,
		}
		want := assessPerSlot(topo, demands, opts)
		_, total := slotLayout(opts)

		planned := topo.Clone()
		regions := planned.RegionsSorted()
		if _, err := planned.AddLink(regions[0], regions[len(regions)/2], 800e9, 0.01, -1); err != nil {
			t.Fatal(err)
		}
		frac := rng.Float64()
		wantPhased := assessPhasedPerSlot(topo, planned, frac, demands, opts)

		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("trial %d workers=%d", trial, workers)
			o := opts
			o.Workers = workers

			got, err := Assess(topo, demands, o)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCurves(t, label+" sampled", demands, got, want)
			if got.Resimulated != total || got.Routed < 1 || got.Routed > total {
				t.Fatalf("%s: Resimulated=%d Routed=%d over %d slots", label, got.Resimulated, got.Routed, total)
			}

			injected := o
			injected.States = SampleStates(topo, o)
			res, err := Assess(topo, demands, injected)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCurves(t, label+" injected", demands, res, want)
			if res.Routed != got.Routed {
				t.Fatalf("%s: injected states routed %d, sampled %d", label, res.Routed, got.Routed)
			}

			cached := o
			cached.Cache = NewResultCache(4)
			if res, err = Assess(topo, demands, cached); err != nil {
				t.Fatal(err)
			}
			requireSameCurves(t, label+" cached", demands, res, want)

			phased, err := AssessPhased(topo, planned, frac, demands, o)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCurves(t, label+" phased", demands, phased, wantPhased)
			if phased.Resimulated < phased.Routed || phased.Routed < 1 {
				t.Fatalf("%s: phased Resimulated=%d Routed=%d", label, phased.Resimulated, phased.Routed)
			}
		}
	}
}

// TestNilStateIsItsOwnClass: an injected nil state means "everything up,
// disabled links included", which no sampled state of a topology with a
// disabled link equals — it must be routed on its own.
func TestNilStateIsItsOwnClass(t *testing.T) {
	topo := deltaTestTopology(t, 2)
	if err := topo.SetLinkDisabled(0, true); err != nil {
		t.Fatal(err)
	}
	demands := deltaTestDemands(topo, 4)
	opts := Options{Scenarios: 6, Seed: 1, SkipAllUp: true}
	opts.States = SampleStates(topo, opts)
	opts.States[2], opts.States[5] = nil, nil
	got, err := Assess(topo, demands, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCurves(t, "nil states", demands, got, assessPerSlot(topo, demands, opts))
}

// TestSharedScenarioSetCopyOnWrite drives two cache entries that share one
// scenario set (same topology, epoch, seed, scenarios; different demands)
// through a sequence of topology mutations, re-assessing them in alternation
// so that each in turn patches while the other still sits at an older epoch.
// If a patch wrote the shared states in place, the lagging entry would see no
// flipped bits on its own delta and splice stale columns.
func TestSharedScenarioSetCopyOnWrite(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 12; trial++ {
			rng := rand.New(rand.NewSource(int64(9000 + 100*workers + trial)))
			topo := deltaTestTopology(t, int64(trial+1))
			demA := deltaTestDemands(topo, 5)
			demB := deltaTestDemands(topo, 3)
			for i := range demB {
				demB[i].Rate = 250e9
			}
			opts := Options{Scenarios: 40, Seed: int64(trial + 3), Workers: workers, SkipAllUp: trial%2 == 1}
			cache := NewResultCache(4)
			cached := opts
			cached.Cache = cache

			check := func(label string, demands []flow.Demand) {
				t.Helper()
				got, err := Assess(topo, demands, cached)
				if err != nil {
					t.Fatal(err)
				}
				requireSameCurves(t, label, demands, got, assessPerSlot(topo, demands, opts))
			}
			check("fill A", demA)
			check("fill B", demB)
			a := cache.byKey[newAssessID(topo, demA, opts)].Value.(*resultEntry)
			b := cache.byKey[newAssessID(topo, demB, opts)].Value.(*resultEntry)
			if a.set != b.set || a.set.owners != 2 {
				t.Fatalf("trial %d: entries filled at one epoch do not share a scenario set (owners=%d)", trial, a.set.owners)
			}

			regionCounter := 0
			for step := 0; step < 6; step++ {
				mutateRandom(t, rng, topo, &regionCounter)
				// Only one entry catches up per step; the other keeps replaying
				// from the epoch (and the states) it was last assessed at.
				if step%2 == 0 {
					check(fmt.Sprintf("trial %d step %d A", trial, step), demA)
				} else {
					check(fmt.Sprintf("trial %d step %d B", trial, step), demB)
				}
			}
			// Whatever the random steps were, end on a delta that touches
			// sampling, so by now each entry must have left the shared set.
			if err := topo.SetLinkFailProb(0, 0.37); err != nil {
				t.Fatal(err)
			}
			check("final A", demA)
			check("final B", demB)
			if a.set.owners != 1 || b.set.owners != 1 {
				t.Fatalf("trial %d: owners %d/%d after both entries patched, want 1/1", trial, a.set.owners, b.set.owners)
			}

			// A fresh identity filled now adopts a current entry's set rather
			// than sampling again.
			demC := deltaTestDemands(topo, 2)
			check("fill C", demC)
			c := cache.byKey[newAssessID(topo, demC, opts)].Value.(*resultEntry)
			if c.set != a.set && c.set != b.set {
				t.Fatalf("trial %d: a fill at the entries' epoch sampled its own scenario set", trial)
			}
		}
	}
}

// TestScenarioSetEvictionReleasesOwnership: an evicted entry gives up its
// share, so the survivor patches in place instead of cloning.
func TestScenarioSetEvictionReleasesOwnership(t *testing.T) {
	topo := deltaTestTopology(t, 8)
	opts := Options{Scenarios: 20, Seed: 4, Cache: NewResultCache(2)}
	var entries []*resultEntry
	for n := 2; n <= 4; n++ {
		demands := deltaTestDemands(topo, n)
		if _, err := Assess(topo, demands, opts); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, opts.Cache.byKey[newAssessID(topo, demands, opts)].Value.(*resultEntry))
	}
	if entries[0].set != entries[2].set {
		t.Fatal("three fills at one epoch did not share a set")
	}
	if got := entries[2].set.owners; got != 2 {
		t.Fatalf("owners = %d after one of three sharing entries was evicted, want 2", got)
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
	longer := &topology.FailureState{Down: make([]bool, links+1)}
	states = append(states, longer, nil)
	all := make([]int, len(states))
	for j := range all {
		all[j] = j
	}
	set := classify(states, all)
	if set.classOf[0] != set.classOf[1] {
		t.Fatal("two all-up states of equal length are in different classes")
	}
	if want := links + 3; len(set.reps) != want {
		t.Fatalf("%d classes, want %d (all-up, one per single-link failure, the longer all-up, nil)", len(set.reps), want)
	}
	for j := 2; j < len(states); j++ {
		if int(set.reps[set.classOf[j]]) != j {
			t.Fatalf("state %d shares class %d with state %d", j, set.classOf[j], set.reps[set.classOf[j]])
		}
	}

	// The same through a cache entry across a link add: every patched state
	// grows by the new link's bit, and states that agreed before but draw
	// different bits for the new link separate.
	topo := deltaTestTopology(t, 9)
	demands := deltaTestDemands(topo, 3)
	opts := Options{Scenarios: 60, Seed: 11}
	cached := opts
	cached.Cache = NewResultCache(2)
	if _, err := Assess(topo, demands, cached); err != nil {
		t.Fatal(err)
	}
	regions := topo.RegionsSorted()
	id, err := topo.AddLink(regions[0], regions[3], 600e9, 0.5, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Assess(topo, demands, cached)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCurves(t, "link add", demands, got, assessPerSlot(topo, demands, opts))
	e := cached.Cache.byKey[newAssessID(topo, demands, opts)].Value.(*resultEntry)
	if e.set.part != nil {
		t.Fatal("a patch that changed bits kept the pre-patch partition")
	}
	// A full pass over the patched states re-partitions them.
	if _, err := Assess(topo, deltaTestDemands(topo, 2), cached); err != nil {
		t.Fatal(err)
	}
	part := e.set.part
	if part == nil {
		t.Fatal("a fill at the entry's epoch did not adopt and partition its set")
	}
	for j, st := range e.set.states {
		rep := e.set.states[part.reps[part.classOf[j]]]
		if len(st.Down) != topo.NumLinks() || st.Down[id] != rep.Down[id] {
			t.Fatalf("state %d (new link down=%v, len %d) classed with a state whose new link is down=%v",
				j, st.Down[id], len(st.Down), rep.Down[id])
		}
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
		if res.Routed != want || res.Resimulated != 101 {
			t.Errorf("seed %d: Routed=%d Resimulated=%d, want %d/101", seed, res.Routed, res.Resimulated, want)
		}
	}
}

// TestRoutedMetricsExactDelta: scenarios_total counts slots evaluated,
// routed_states_total allocator runs, scenario_seconds one observation per
// allocator run — on cold, replayed and delta passes.
func TestRoutedMetricsExactDelta(t *testing.T) {
	topo := deltaTestTopology(t, 12)
	demands := deltaTestDemands(topo, 4)
	opts := Options{Scenarios: 50, Seed: 2, Workers: 2, Cache: NewResultCache(2)}
	step := func(label string, wantSlots int) *Result {
		t.Helper()
		scen0, routed0, obs0 := mScenarios.Value(), mRoutedStates.Value(), mScenarioSeconds.Count()
		res, err := Assess(topo, demands, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resimulated != wantSlots && wantSlots >= 0 {
			t.Fatalf("%s: Resimulated=%d, want %d", label, res.Resimulated, wantSlots)
		}
		if d := mScenarios.Value() - scen0; d != int64(res.Resimulated) {
			t.Errorf("%s: scenarios_total moved by %d, want %d", label, d, res.Resimulated)
		}
		if d := mRoutedStates.Value() - routed0; d != int64(res.Routed) {
			t.Errorf("%s: routed_states_total moved by %d, want %d", label, d, res.Routed)
		}
		if d := mScenarioSeconds.Count() - obs0; d != int64(res.Routed) {
			t.Errorf("%s: scenario_seconds observed %d times, want %d", label, d, res.Routed)
		}
		return res
	}
	cold := step("cold", 51)
	if cold.Routed < 2 || cold.Routed >= 51 {
		t.Fatalf("cold pass routed %d of 51 slots; the fixture should dedupe some but not all", cold.Routed)
	}
	if warm := step("replay", 0); warm.Routed != 0 {
		t.Fatalf("replay routed %d states", warm.Routed)
	}
	if err := topo.SetLinkFailProb(1, 0.4); err != nil {
		t.Fatal(err)
	}
	delta := step("delta", -1)
	if delta.Resimulated == 0 || delta.Routed == 0 || delta.Routed > delta.Resimulated {
		t.Fatalf("delta pass: Resimulated=%d Routed=%d", delta.Resimulated, delta.Routed)
	}
}
