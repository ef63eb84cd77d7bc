// Package entitlement's root benchmarks regenerate every figure of the
// paper's evaluation (one benchmark per figure, §6–§7) plus the ablations
// DESIGN.md calls out. Each benchmark reports the figure's headline metrics
// via b.ReportMetric; `go run ./cmd/benchgen` prints the full series.
package entitlement_test

import (
	"testing"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/experiments"
	"entitlement/internal/flow"
	"entitlement/internal/kvstore"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// benchScale keeps drill-backed figures quick enough to iterate on.
var benchScale = experiments.DrillScale{Hosts: 24, StageTicks: 40}

// report copies an experiment's headline metrics onto the benchmark.
func report(b *testing.B, r func() *experiments.Result) {
	b.Helper()
	var last map[string]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = r().Headline
	}
	b.StopTimer()
	for k, v := range last {
		b.ReportMetric(v, k)
	}
}

func BenchmarkFig01ServiceDistributionHighQoS(b *testing.B) {
	report(b, func() *experiments.Result {
		return experiments.ServiceDistribution(contract.ClassA, 60)
	})
}

func BenchmarkFig02ServiceDistributionLowQoS(b *testing.B) {
	report(b, func() *experiments.Result {
		return experiments.ServiceDistribution(contract.ClassB, 60)
	})
}

func BenchmarkFig03StoragePatterns(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.StoragePatterns(7) })
}

func BenchmarkFig04MisbehavingSpike(b *testing.B) {
	report(b, experiments.MisbehavingSpike)
}

func BenchmarkFig05InducedLoss(b *testing.B) {
	report(b, experiments.InducedLoss)
}

func BenchmarkFig07SourceConcentration(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.SourceConcentration(8) })
}

func BenchmarkFig11DrillLoss(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.DrillLoss(benchScale) })
}

func BenchmarkFig12DrillRate(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.DrillRate(benchScale) })
}

func BenchmarkFig13DrillRTT(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.DrillRTT(benchScale) })
}

func BenchmarkFig14DrillSYN(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.DrillSYN(benchScale) })
}

func BenchmarkFig15ReadLatency(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.DrillReadLatency(benchScale) })
}

func BenchmarkFig16WriteLatency(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.DrillWriteLatency(benchScale) })
}

func BenchmarkFig17BlockErrors(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.DrillBlockErrors(benchScale) })
}

func BenchmarkFig18ForecastAccuracyA(b *testing.B) {
	report(b, func() *experiments.Result {
		return experiments.ForecastAccuracy(contract.ClassA, 16, 3)
	})
}

func BenchmarkFig19ForecastAccuracyB(b *testing.B) {
	report(b, func() *experiments.Result {
		return experiments.ForecastAccuracy(contract.ClassB, 16, 4)
	})
}

func BenchmarkFig20SegmentedHoseEfficiency(b *testing.B) {
	report(b, func() *experiments.Result {
		return experiments.SegmentedHoseEfficiency(8, 6, 150, 3000, 11)
	})
}

func BenchmarkFig21CoverageVsTMs(b *testing.B) {
	report(b, func() *experiments.Result {
		return experiments.CoverageVsTMs(6, 200, 3000, 13)
	})
}

func BenchmarkFig22ApprovalVsSLO(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.ApprovalVsSLO(60, 17) })
}

func BenchmarkFig23StatelessInstant(b *testing.B) {
	report(b, experiments.StatelessInstant)
}

func BenchmarkFig24StatelessAverage(b *testing.B) {
	report(b, experiments.StatelessAverage)
}

func BenchmarkFig25StatefulConvergence(b *testing.B) {
	report(b, experiments.StatefulConvergence)
}

func BenchmarkAblationRemarkPolicy(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.AblationRemarkPolicy(benchScale) })
}

func BenchmarkAblationMeter(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.AblationMeter(benchScale) })
}

func BenchmarkAblationSegments(b *testing.B) {
	report(b, func() *experiments.Result { return experiments.AblationSegments(19) })
}

func BenchmarkAblationReservation(b *testing.B) {
	report(b, experiments.AblationReservation)
}

func BenchmarkAblationArchitecture(b *testing.B) {
	report(b, func() *experiments.Result {
		return experiments.AblationArchitecture(500, 2000, 23)
	})
}

func BenchmarkAblationGenerations(b *testing.B) {
	report(b, func() *experiments.Result {
		return experiments.AblationGenerations(10, 29)
	})
}

// --- Hot-path micro-benchmarks ------------------------------------------------
//
// Observability guard: several of the paths below (BPF egress, meter,
// agent cycle, flow allocate) are instrumented with internal/obs counters
// and histograms. Those instruments are budgeted at <50ns/op uncontended —
// BenchmarkObsCounter and BenchmarkObsHistogram in internal/obs/bench_test.go
// pin that budget. If the figures here regress after touching internal/obs,
// run `go test -bench 'BenchmarkObs' ./internal/obs/` first: a fattened
// counter or histogram taxes every metric site in the repo at once.

// BenchmarkBPFEgress measures the per-packet classification cost — the path
// every egress packet of O(100k) hosts traverses.
func BenchmarkBPFEgress(b *testing.B) {
	m := bpf.NewMap()
	m.Update(bpf.MapKey{NPG: "Cold", Class: contract.C4Low, Region: "A"},
		bpf.Action{Mode: bpf.MarkHosts, NonConformGroups: 37})
	prog := bpf.NewProgram(m)
	pkt := bpf.Packet{
		NPG: "Cold", Class: contract.C4Low, Region: "A",
		Host: "host-123", FlowHash: 0xDEADBEEF,
		DSCP: bpf.DSCPForClass(contract.C4Low), Bytes: 1500,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Egress(pkt)
	}
}

// BenchmarkStatefulMeter measures one metering decision.
func BenchmarkStatefulMeter(b *testing.B) {
	m := enforce.NewStateful()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ConformRatio(5e12, 10e12, 6e12)
	}
}

// BenchmarkKVStoreAggregation measures the SumPrefix an agent issues per
// cycle. dirs=1: 10k published host rates, all in the queried flow set.
// fleet_large: the end-to-end workload's store, 7168 keys of 31 other flow
// sets (62 directories, total and conforming rates) beside the queried flow
// set's 512 hosts × 2 keys — a store that scans every key per query is ~70×
// slower here than one that visits only the flow set.
func BenchmarkKVStoreAggregation(b *testing.B) {
	prefix := kvstore.RatePrefix("Cold", "c4_low", "A")
	b.Run("dirs=1", func(b *testing.B) {
		s := kvstore.New()
		for i := 0; i < 10000; i++ {
			s.Put(kvstore.RateKey("Cold", "c4_low", "A", hostName(i)), 1e9, 0)
		}
		benchSumPrefix(b, s, prefix)
	})
	b.Run("fleet_large", func(b *testing.B) {
		s := kvstore.New()
		for k := 0; k < 7168/2; k++ {
			npg, h := "Cold-bg"+hostName(k%31), "b"+hostName(k/31)
			s.Put(kvstore.RateKey(npg, "c4_low", "A", h), 1e9, 0)
			s.Put("conform/"+npg+"/c4_low/A/"+h, 1e9, 0)
		}
		for i := 0; i < 512; i++ {
			s.Put(kvstore.RateKey("Cold", "c4_low", "A", hostName(i)), 1e9, 30*time.Second)
			s.Put("conform/Cold/c4_low/A/"+hostName(i), 1e9, 30*time.Second)
		}
		benchSumPrefix(b, s, prefix)
	})
}

func benchSumPrefix(b *testing.B, s *kvstore.Store, prefix string) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SumPrefix(prefix); err != nil {
			b.Fatal(err)
		}
	}
}

func hostName(i int) string {
	const digits = "0123456789"
	return string([]byte{
		'h', digits[i/1000%10], digits[i/100%10], digits[i/10%10], digits[i%10],
	})
}

// BenchmarkAllocate measures one multi-commodity allocation over a mid-size
// backbone — the inner loop of every risk-simulation scenario.
func BenchmarkAllocate(b *testing.B) {
	opts := topology.DefaultBackboneOptions()
	topo, err := topology.Backbone(opts)
	if err != nil {
		b.Fatal(err)
	}
	regions := topo.RegionsSorted()
	var demands []flow.Demand
	for i := 0; i < 24; i++ {
		src := regions[i%len(regions)]
		dst := regions[(i+3)%len(regions)]
		demands = append(demands, flow.Demand{
			Key: string(src) + ">" + string(dst) + hostName(i),
			Src: src, Dst: dst, Rate: 200e9, Class: i % 4,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.Allocate(topo, topo.AllUp(), demands, flow.AllocateOptions{Rounds: 8})
	}
}

// BenchmarkAllocateRunner is BenchmarkAllocate with the scratch buffers
// amortized across calls via a flow.Runner — the steady state each risk
// worker runs in across its scenarios.
func BenchmarkAllocateRunner(b *testing.B) {
	opts := topology.DefaultBackboneOptions()
	topo, err := topology.Backbone(opts)
	if err != nil {
		b.Fatal(err)
	}
	regions := topo.RegionsSorted()
	var demands []flow.Demand
	for i := 0; i < 24; i++ {
		src := regions[i%len(regions)]
		dst := regions[(i+3)%len(regions)]
		demands = append(demands, flow.Demand{
			Key: string(src) + ">" + string(dst) + hostName(i),
			Src: src, Dst: dst, Rate: 200e9, Class: i % 4,
		})
	}
	runner := flow.NewRunner(topo)
	state := topo.AllUp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Allocate(state, demands, flow.AllocateOptions{Rounds: 8})
	}
}

// riskBenchSetup builds the mid-size backbone and demand set shared by the
// risk-assessment benchmarks.
func riskBenchSetup(b *testing.B) (*topology.Topology, []flow.Demand) {
	b.Helper()
	opts := topology.DefaultBackboneOptions()
	topo, err := topology.Backbone(opts)
	if err != nil {
		b.Fatal(err)
	}
	regions := topo.RegionsSorted()
	var demands []flow.Demand
	for i := 0; i < 24; i++ {
		src := regions[i%len(regions)]
		dst := regions[(i+3)%len(regions)]
		demands = append(demands, flow.Demand{
			Key: string(src) + ">" + string(dst) + hostName(i),
			Src: src, Dst: dst, Rate: 200e9, Class: i % 4,
		})
	}
	return topo, demands
}

// BenchmarkRiskAssess measures one full Monte-Carlo risk assessment (200
// failure scenarios on a mid-size backbone) on the serial path (Workers: 1).
func BenchmarkRiskAssess(b *testing.B) {
	topo, demands := riskBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := risk.Assess(topo, demands, risk.Options{Scenarios: 200, Seed: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRiskAssessParallel is the same assessment fanned out over all
// cores (Workers: 0 = GOMAXPROCS); the output is byte-identical to the
// serial run, so ns/op differences are pure scenario-parallel speedup.
func BenchmarkRiskAssessParallel(b *testing.B) {
	topo, demands := riskBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := risk.Assess(topo, demands, risk.Options{Scenarios: 200, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// newBenchDB builds a contract store with one active Coldstorage egress
// entitlement.
func newBenchDB(b *testing.B, now time.Time) *contractdb.Store {
	b.Helper()
	db := contractdb.NewStore()
	err := db.Put(contract.Contract{
		NPG: "Cold", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: "Cold", Class: contract.C4Low, Region: "A",
			Direction: contract.Egress, Rate: 5e9,
			Start: now.Add(-time.Hour), End: now.Add(90 * 24 * time.Hour),
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkAgentCycle measures one full enforcement-agent cycle against
// in-process contract DB and rate store.
func BenchmarkAgentCycle(b *testing.B) {
	now := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	db := newBenchDB(b, now)
	rates := kvstore.New()
	prog := bpf.NewProgram(bpf.NewMap())
	agent, err := enforce.NewAgent(enforce.AgentConfig{
		Host: "h1", NPG: "Cold", Class: contract.C4Low, Region: "A",
		DB: db, Rates: rates, Meter: enforce.NewStateful(), Prog: prog,
		Policy: enforce.HostBased,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Cycle(now, 10e9, 9e9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJointRealizations(b *testing.B) {
	report(b, func() *experiments.Result {
		return experiments.AblationJointRealizations(31)
	})
}
