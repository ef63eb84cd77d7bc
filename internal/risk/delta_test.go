package risk

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"entitlement/internal/flow"
	"entitlement/internal/topology"
)

// deltaTestTopology builds a small backbone with failure probabilities high
// enough that mutations actually flip sampled bits.
func deltaTestTopology(t *testing.T, seed int64) *topology.Topology {
	t.Helper()
	opts := topology.DefaultBackboneOptions()
	opts.Regions = 6
	opts.Chords = 3
	opts.Seed = seed
	opts.LinkFail = 0.05
	opts.FiberCut = 0.02
	topo, err := topology.Backbone(opts)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func deltaTestDemands(topo *topology.Topology, n int) []flow.Demand {
	regions := topo.RegionsSorted()
	demands := make([]flow.Demand, 0, n)
	for i := 0; i < n; i++ {
		src := regions[i%len(regions)]
		dst := regions[(i+2)%len(regions)]
		demands = append(demands, flow.Demand{
			Key: fmt.Sprintf("%s>%s/%d", src, dst, i),
			Src: src, Dst: dst, Rate: 400e9, Class: i % 4,
		})
	}
	return demands
}

// mutateRandom applies one random journaled mutation drawn from every class
// the delta machinery distinguishes: region add, link add, capacity change,
// failure-probability change, SRLG cut-probability change, and the
// administrative disable toggle ("link remove").
func mutateRandom(t *testing.T, rng *rand.Rand, topo *topology.Topology, counter *int) {
	t.Helper()
	regions := topo.RegionsSorted()
	link := rng.Intn(topo.NumLinks())
	switch rng.Intn(6) {
	case 0:
		topo.AddRegion(topology.Region(fmt.Sprintf("X%02d", *counter)))
		*counter++
	case 1:
		a := regions[rng.Intn(len(regions))]
		b := regions[rng.Intn(len(regions))]
		if a == b {
			return
		}
		srlg := -1
		if rng.Intn(2) == 0 && len(topo.SRLGs) > 0 {
			srlg = topo.SRLGs[rng.Intn(len(topo.SRLGs))].ID
		}
		if _, err := topo.AddLink(a, b, (100+900*rng.Float64())*1e9, 0.3*rng.Float64(), srlg); err != nil {
			t.Fatal(err)
		}
	case 2:
		if err := topo.SetCapacity(link, (50+950*rng.Float64())*1e9); err != nil {
			t.Fatal(err)
		}
	case 3:
		if err := topo.SetLinkFailProb(link, 0.5*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	case 4:
		if len(topo.SRLGs) == 0 {
			return
		}
		topo.EnsureSRLG(topo.SRLGs[rng.Intn(len(topo.SRLGs))].ID, 0.3*rng.Float64())
	case 5:
		if err := topo.SetLinkDisabled(link, !topo.Link(link).Disabled); err != nil {
			t.Fatal(err)
		}
	}
}

func requireSameCurves(t *testing.T, label string, demands []flow.Demand, got, want *Result) {
	t.Helper()
	for _, d := range demands {
		g := got.Curves[d.Key].Samples()
		w := want.Curves[d.Key].Samples()
		if len(g) != len(w) {
			t.Fatalf("%s: %s: %d samples != %d", label, d.Key, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s sample %d: spliced %v != full %v (not byte-identical)",
					label, d.Key, i, g[i], w[i])
			}
		}
	}
}

// TestDeltaAssessMatchesFull is the tentpole property test: over random
// mutation sequences (link add, administrative link down/up, capacity change,
// failure-probability change, SRLG cut-prob edits, region adds), a
// cache-routed Assess that splices untouched scenarios is byte-identical to a
// from-scratch full recompute — at workers=1 and workers=4, under -race.
// 60 sequences per worker count = 120 sequences total.
func TestDeltaAssessMatchesFull(t *testing.T) {
	const (
		trials        = 60
		mutationSteps = 5
	)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(1000*workers + trial)))
				topo := deltaTestTopology(t, int64(trial+1))
				demands := deltaTestDemands(topo, 5)
				opts := Options{
					Scenarios: 30,
					Seed:      int64(trial*7 + 1),
					Workers:   workers,
					SkipAllUp: trial%2 == 1,
				}
				cached := opts
				cached.Cache = NewResultCache(4)
				regionCounter := 0
				for step := 0; step <= mutationSteps; step++ {
					if step > 0 {
						mutateRandom(t, rng, topo, &regionCounter)
					}
					got, err := Assess(topo, demands, cached)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Assess(topo, demands, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("trial %d step %d", trial, step)
					requireSameCurves(t, label, demands, got, want)
					total := opts.Scenarios
					if !opts.SkipAllUp {
						total++
					}
					if got.Resimulated+got.Spliced != total {
						t.Fatalf("%s: Resimulated %d + Spliced %d != %d slots",
							label, got.Resimulated, got.Spliced, total)
					}
				}
			}
		})
	}
}

// TestDeltaAssessReplay pins the pure-replay path: re-assessing with no
// topology mutation in between routes nothing and splices every slot.
func TestDeltaAssessReplay(t *testing.T) {
	topo := deltaTestTopology(t, 3)
	demands := deltaTestDemands(topo, 4)
	opts := Options{Scenarios: 25, Seed: 9, Cache: NewResultCache(4)}
	cold, err := Assess(topo, demands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Resimulated != 26 || cold.Spliced != 0 {
		t.Fatalf("cold fill: Resimulated=%d Spliced=%d, want 26/0", cold.Resimulated, cold.Spliced)
	}
	warm, err := Assess(topo, demands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Resimulated != 0 || warm.Spliced != 26 {
		t.Fatalf("replay: Resimulated=%d Spliced=%d, want 0/26", warm.Resimulated, warm.Spliced)
	}
	requireSameCurves(t, "replay", demands, warm, cold)

	// A region-only delta also splices everything: no link changed.
	topo.AddRegion("ZZ")
	regionOnly, err := Assess(topo, demands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if regionOnly.Resimulated != 0 || regionOnly.Spliced != 26 {
		t.Fatalf("region-only: Resimulated=%d Spliced=%d, want 0/26",
			regionOnly.Resimulated, regionOnly.Spliced)
	}
	requireSameCurves(t, "region-only", demands, regionOnly, cold)
}

// TestResultCacheLRU pins the eviction bound: distinct assessment identities
// beyond the cap evict least-recently-used entries, and an evicted identity
// refills from scratch rather than serving stale state.
func TestResultCacheLRU(t *testing.T) {
	topo := deltaTestTopology(t, 4)
	cache := NewResultCache(2)
	opts := Options{Scenarios: 10, Cache: cache}
	for seed := int64(1); seed <= 3; seed++ {
		o := opts
		o.Seed = seed // distinct identity per seed
		if _, err := Assess(topo, deltaTestDemands(topo, 2), o); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
	// Seed 1 was evicted: assessing it again must refill (Resimulated == all).
	o := opts
	o.Seed = 1
	res, err := Assess(topo, deltaTestDemands(topo, 2), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spliced != 0 {
		t.Fatalf("evicted identity spliced %d slots, want a full refill", res.Spliced)
	}
	if NewResultCache(0).max != DefaultResultCacheEntries {
		t.Fatalf("default cap not applied")
	}
}

// TestResultCacheJournalTruncation forces the mutation journal past its ring
// bound so DeltaSince cannot cover the cached epoch; the cache must fall back
// to a full recompute that still matches a from-scratch assessment.
func TestResultCacheJournalTruncation(t *testing.T) {
	topo := deltaTestTopology(t, 5)
	demands := deltaTestDemands(topo, 3)
	opts := Options{Scenarios: 15, Seed: 2, Cache: NewResultCache(4)}
	if _, err := Assess(topo, demands, opts); err != nil {
		t.Fatal(err)
	}
	cachedEpoch := topo.Epoch()
	for i := 0; i < 5000; i++ {
		if err := topo.SetCapacity(i%topo.NumLinks(), (100+float64(i%17)*50)*1e9); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := topo.DeltaSince(cachedEpoch); ok {
		t.Fatal("journal still covers a 5000-mutation span; truncation untested")
	}
	got, err := Assess(topo, demands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spliced != 0 {
		t.Fatalf("truncated journal spliced %d slots, want full recompute", got.Spliced)
	}
	plain := opts
	plain.Cache = nil
	want, err := Assess(topo, demands, plain)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCurves(t, "truncation", demands, got, want)
}

// TestStatesLengthErrorDetail pins the diagnostic contract of the
// precomputed-states length check: got, want and the topology epoch are all
// in the message.
func TestStatesLengthErrorDetail(t *testing.T) {
	topo := deltaTestTopology(t, 6)
	demands := deltaTestDemands(topo, 2)
	opts := Options{Scenarios: 50, Seed: 1}
	states := SampleStates(topo, opts)
	opts.States = states[:10]
	_, err := Assess(topo, demands, opts)
	if err == nil {
		t.Fatal("short States slice accepted")
	}
	msg := err.Error()
	for _, part := range []string{"length 10", "Scenarios 50", fmt.Sprintf("epoch %d", topo.Epoch())} {
		if !strings.Contains(msg, part) {
			t.Errorf("error %q missing %q", msg, part)
		}
	}
}

// TestDeltaSpeedup is the acceptance bar: after a failure-probability
// mutation touching <= 10% of links, a cache-routed re-assessment re-simulates
// >= 10x fewer scenario slots than a cold pass, routes no more failure states
// than a cold pass does, and stays byte-identical to the full recompute —
// those three do not depend on the clock. The wall-clock bar is 3x on p50:
// since a cold pass routes each distinct failure state once (about 40 runs for
// these 601 slots instead of 601), what is left of it is mostly sampling, and
// the measured cold/delta ratio on a 2-core host is 5.8-6.7x (it was ~20x
// while cold still routed every slot). This is what the CI bench-delta leg
// runs.
func TestDeltaSpeedup(t *testing.T) {
	bopts := topology.DefaultBackboneOptions()
	bopts.Regions = 10
	bopts.Chords = 8
	topo, err := topology.Backbone(bopts)
	if err != nil {
		t.Fatal(err)
	}
	demands := deltaTestDemands(topo, 8)
	opts := Options{Scenarios: 600, Seed: 5, Workers: 1}

	// <= 10% of links get a failure-probability bump.
	nTouch := topo.NumLinks() / 10
	if nTouch < 1 {
		nTouch = 1
	}

	const iterations = 5
	colds := make([]time.Duration, 0, iterations)
	deltas := make([]time.Duration, 0, iterations)
	for it := 0; it < iterations; it++ {
		cached := opts
		cached.Cache = NewResultCache(2)
		start := time.Now()
		if _, err := Assess(topo, demands, cached); err != nil {
			t.Fatal(err)
		}
		colds = append(colds, time.Since(start))

		for i := 0; i < nTouch; i++ {
			id := (it*nTouch + i) % topo.NumLinks()
			if err := topo.SetLinkFailProb(id, bopts.LinkFail+0.005); err != nil {
				t.Fatal(err)
			}
		}
		start = time.Now()
		res, err := Assess(topo, demands, cached)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, time.Since(start))

		// Timing-independent bar: the delta pass re-simulates >= 10x fewer
		// scenarios than the cold pass.
		total := res.Resimulated + res.Spliced
		if res.Resimulated*10 > total {
			t.Fatalf("iteration %d: re-simulated %d of %d scenarios (> 10%%)",
				it, res.Resimulated, total)
		}

		// And it is still byte-identical to a from-scratch recompute, which
		// routes at least as many states: the dirty slots are a subset of
		// all slots, so they hold no more distinct states.
		want, err := Assess(topo, demands, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCurves(t, fmt.Sprintf("iteration %d", it), demands, res, want)
		if res.Routed > want.Routed || res.Routed > res.Resimulated {
			t.Fatalf("iteration %d: delta routed %d states for %d dirty slots, cold routes %d",
				it, res.Routed, res.Resimulated, want.Routed)
		}
	}

	coldP50, deltaP50 := p50(colds), p50(deltas)
	t.Logf("cold p50 = %v, delta p50 = %v (%.1fx)", coldP50, deltaP50,
		float64(coldP50)/float64(deltaP50))
	if deltaP50*3 > coldP50 {
		t.Errorf("delta re-assessment p50 %v is not >= 3x faster than cold p50 %v",
			deltaP50, coldP50)
	}
}

func p50(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
