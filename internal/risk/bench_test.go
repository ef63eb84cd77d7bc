package risk

import (
	"fmt"
	"testing"

	"entitlement/internal/flow"
	"entitlement/internal/topology"
)

// benchAssessSetup builds the workload every Assess benchmark shares: the
// default 12-region backbone, 8 hose-scale demands, 400 scenarios.
func benchAssessSetup(b *testing.B) (*topology.Topology, []flow.Demand, Options) {
	b.Helper()
	topo, err := topology.Backbone(topology.DefaultBackboneOptions())
	if err != nil {
		b.Fatal(err)
	}
	regions := topo.RegionsSorted()
	demands := make([]flow.Demand, 0, 8)
	for i := 0; i < 8; i++ {
		src := regions[i%len(regions)]
		dst := regions[(i+3)%len(regions)]
		demands = append(demands, flow.Demand{
			Key: string(src) + ">" + string(dst) + string(rune('a'+i)),
			Src: src, Dst: dst, Rate: 400e9, Class: i % 4,
		})
	}
	return topo, demands, Options{Scenarios: 400, Seed: 3, Workers: 1}
}

// BenchmarkAssessCold is the from-scratch Monte-Carlo pass: sample every
// scenario, partition the states, route each distinct one. routed/op against
// the scenario count is the dedupe factor, which grows with the sample: more
// draws mostly repeat states already seen.
func BenchmarkAssessCold(b *testing.B) {
	for _, scenarios := range []int{100, 400, 2000} {
		b.Run(fmt.Sprintf("scenarios=%d", scenarios), func(b *testing.B) {
			topo, demands, opts := benchAssessSetup(b)
			opts.Scenarios = scenarios
			routed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Assess(topo, demands, opts)
				if err != nil {
					b.Fatal(err)
				}
				routed += res.Routed
			}
			b.ReportMetric(float64(routed)/float64(b.N), "routed/op")
		})
	}
}

// BenchmarkAssessWarm replays an unchanged cached assessment: no sampling,
// no routing, the cached curves handed back.
func BenchmarkAssessWarm(b *testing.B) {
	topo, demands, opts := benchAssessSetup(b)
	opts.Cache = NewResultCache(2)
	if _, err := Assess(topo, demands, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Assess(topo, demands, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Routed != 0 {
			b.Fatalf("warm replay routed %d states", res.Routed)
		}
	}
}
