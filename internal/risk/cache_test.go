package risk

import (
	"fmt"
	"math/rand"
	"testing"

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
// the topology journal distinguishes: region add, link add, capacity change,
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
				t.Fatalf("%s: %s sample %d: %v != reference %v (not byte-identical)",
					label, d.Key, i, g[i], w[i])
			}
		}
	}
}

// TestDeltaAssessMatchesFull is the epoch-validity rule as a property: over
// random mutation sequences (link add, administrative link down/up, capacity
// change, failure-probability change, SRLG cut-prob edits, region adds), a
// cache-routed Assess — whose entry was filled before the mutation — is
// byte-identical to a from-scratch one, at workers=1 and workers=4, under
// -race. (The name dates from when the cache spliced a delta; since ISSUE 22
// any epoch change is a miss and a full pass.)
func TestDeltaAssessMatchesFull(t *testing.T) {
	const (
		trials        = 30
		mutationSteps = 5
	)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(1000*workers + trial)))
				topo := deltaTestTopology(t, int64(trial+1))
				demands := deltaTestDemands(topo, 5)
				opts := Options{Scenarios: 30, Seed: int64(trial*7 + 1), Workers: workers}
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
					requireSameCurves(t, fmt.Sprintf("trial %d step %d", trial, step), demands, got, want)
				}
			}
		})
	}
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
	// Seed 3 is still cached and replays; seed 1 was evicted: assessing it
	// again must refill.
	for _, seed := range []int64{3, 1} {
		o := opts
		o.Seed = seed
		res, err := Assess(topo, deltaTestDemands(topo, 2), o)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Routed > 0) != (seed == 1) {
			t.Fatalf("seed %d routed %d states; want a full refill for the evicted identity, a replay for the cached one", seed, res.Routed)
		}
	}
	if NewResultCache(0).max != DefaultResultCacheEntries {
		t.Fatalf("default cap not applied")
	}
}
