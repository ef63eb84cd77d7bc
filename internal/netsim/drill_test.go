package netsim

import (
	"math"
	"testing"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/enforce"
	"entitlement/internal/stats"
)

// smallDrill runs a reduced drill for tests.
func smallDrill(t *testing.T, mutate func(*DrillOptions)) *DrillReport {
	t.Helper()
	opts := DefaultDrillOptions()
	opts.Hosts = 20
	opts.FlowsPerHost = 2
	opts.StageTicks = 40
	if mutate != nil {
		mutate(&opts)
	}
	rep, err := RunDrill(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// stageWindow returns the last half of a stage (steady state).
func stageWindow(r *DrillReport, name string) (int, int) {
	for _, s := range r.Stages {
		if s.Name == name {
			mid := s.Start + (s.End-s.Start)/2
			return mid, s.End
		}
	}
	return 0, 0
}

func TestDrillValidation(t *testing.T) {
	bad := DefaultDrillOptions()
	bad.Hosts = 0
	if _, err := RunDrill(bad); err == nil {
		t.Error("zero hosts accepted")
	}
	bad = DefaultDrillOptions()
	bad.Entitled = 0
	if _, err := RunDrill(bad); err == nil {
		t.Error("zero entitlement accepted")
	}
}

func TestDrillConformingLossStaysZero(t *testing.T) {
	// Figure 11: "the loss ratio of conforming traffic remains close to 0%
	// throughout the test".
	rep := smallDrill(t, nil)
	conforming, _ := rep.LossSeries()
	for i, v := range conforming {
		if v > 0.02 {
			t.Errorf("tick %d (%s): conforming loss = %v", i, rep.StageOf(i).Name, v)
		}
	}
}

func TestDrillNonConformingLossTracksACLStages(t *testing.T) {
	// Figure 11: non-conforming loss shows four distinct stages at 0%,
	// 12.5%, 50%, 100%.
	rep := smallDrill(t, nil)
	_, non := rep.LossSeries()
	for _, stage := range []struct {
		name string
		want float64
	}{
		{"acl-12.5", 0.125},
		{"acl-50", 0.5},
		{"acl-100", 1.0},
	} {
		lo, hi := stageWindow(rep, stage.name)
		var vals []float64
		for i := lo; i < hi; i++ {
			// Skip ticks where no non-conforming traffic was sent.
			if ts := rep.Sim.Metrics.Series(GroupKey{Class: drillClass, Conforming: false})[i]; ts.SentRate > 0 {
				vals = append(vals, non[i])
			}
		}
		if len(vals) == 0 {
			t.Errorf("stage %s: no non-conforming traffic observed", stage.name)
			continue
		}
		avg := stats.Mean(vals)
		if math.Abs(avg-stage.want) > 0.15 {
			t.Errorf("stage %s: non-conforming loss = %v, want ~%v", stage.name, avg, stage.want)
		}
	}
}

func TestDrillRateDescendsToEntitlement(t *testing.T) {
	// Figure 12: as drops intensify, the total rate decreases until it
	// matches the entitled rate; after rollback it returns to demand.
	rep := smallDrill(t, nil)
	total, conform, entitled := rep.ServiceRates()
	if len(total) != len(conform) || len(total) != len(entitled) {
		t.Fatal("misaligned series")
	}
	// Baseline: total ≈ demand, all conforming.
	lo, hi := stageWindow(rep, "baseline")
	baseTotal := stats.Mean(total[lo:hi])
	if math.Abs(baseTotal-rep.Options.Demand)/rep.Options.Demand > 0.15 {
		t.Errorf("baseline total = %v, want ~%v", baseTotal, rep.Options.Demand)
	}
	// During acl-100: total ≈ entitled (non-conforming fully suppressed).
	lo, hi = stageWindow(rep, "acl-100")
	endTotal := stats.Mean(total[lo:hi])
	if math.Abs(endTotal-rep.Options.Entitled)/rep.Options.Entitled > 0.25 {
		t.Errorf("acl-100 total = %v, want ~entitled %v", endTotal, rep.Options.Entitled)
	}
	// Conforming rate stays near the entitled rate under enforcement.
	confAvg := stats.Mean(conform[lo:hi])
	if math.Abs(confAvg-rep.Options.Entitled)/rep.Options.Entitled > 0.25 {
		t.Errorf("acl-100 conforming = %v, want ~%v", confAvg, rep.Options.Entitled)
	}
	// Rollback: rate recovers toward demand.
	lo, hi = stageWindow(rep, "rollback")
	backTotal := stats.Mean(total[lo:hi])
	if backTotal < rep.Options.Demand*0.7 {
		t.Errorf("rollback total = %v, want near demand %v", backTotal, rep.Options.Demand)
	}
}

func TestDrillRTTConformingUnaffected(t *testing.T) {
	// Figure 13: conforming RTT flat; non-conforming slightly elevated
	// under partial loss.
	rep := smallDrill(t, nil)
	conf, non := rep.RTTSeries()
	lo, hi := stageWindow(rep, "baseline")
	base := stats.Mean(conf[lo:hi])
	lo, hi = stageWindow(rep, "acl-50")
	during := stats.Mean(conf[lo:hi])
	if during > base*1.2 {
		t.Errorf("conforming RTT rose from %v to %v", base, during)
	}
	var nonVals []float64
	for i := lo; i < hi; i++ {
		if non[i] > 0 {
			nonVals = append(nonVals, non[i])
		}
	}
	if len(nonVals) > 0 && stats.Mean(nonVals) < base {
		t.Errorf("non-conforming RTT %v below conforming baseline %v", stats.Mean(nonVals), base)
	}
}

func TestDrillSYNStormAtFullDrop(t *testing.T) {
	// Figure 14: SYN attempts on non-conforming traffic rise as the drop
	// percentage increases, and recover after rollback.
	rep := smallDrill(t, nil)
	_, non := rep.SYNSeries()
	sumWindow := func(name string) int {
		lo, hi := stageWindow(rep, name)
		s := 0
		for i := lo; i < hi; i++ {
			s += non[i]
		}
		return s
	}
	quiet := sumWindow("entitlement-reduced")
	storm := sumWindow("acl-100")
	if storm <= quiet {
		t.Errorf("SYN attempts at 100%% drop (%d) not above no-drop stage (%d)", storm, quiet)
	}
}

func TestDrillAppReadLatencyResilientBelow50(t *testing.T) {
	// Figure 15: "when the drop percentage is less than 50%, there is
	// little impact on the application read latency" thanks to host-level
	// remarking + failover.
	rep := smallDrill(t, nil)
	base := appWindowAvg(rep, "baseline", func(a AppTick) float64 { return a.AvgReadLatency.Seconds() })
	at125 := appWindowAvg(rep, "acl-12.5", func(a AppTick) float64 { return a.AvgReadLatency.Seconds() })
	if at125 > base*2 {
		t.Errorf("read latency at 12.5%% drop = %v, base %v — failover failed", at125, base)
	}
	// At 100%: remarked hosts can't connect at all, healthy hosts serve —
	// latency falls back toward base after failover completes.
	at100 := appWindowAvg(rep, "acl-100", func(a AppTick) float64 { return a.AvgReadLatency.Seconds() })
	if at100 > base*3 {
		t.Errorf("read latency at 100%% = %v, want near base %v after failover", at100, base)
	}
}

func TestDrillAppWriteImpactSevere(t *testing.T) {
	// Figure 16/17: writes are stateful; latency grows with drops and
	// block errors peak when connections cannot establish.
	rep := smallDrill(t, nil)
	baseW := appWindowAvg(rep, "baseline", func(a AppTick) float64 { return a.AvgWriteLatency.Seconds() })
	at50 := appWindowAvg(rep, "acl-50", func(a AppTick) float64 { return a.AvgWriteLatency.Seconds() })
	if at50 <= baseW {
		t.Errorf("write latency at 50%% (%v) not above baseline (%v)", at50, baseW)
	}
	blockErrors := 0
	lo, hi := stageWindow(rep, "acl-100")
	for i := lo; i < hi && i < len(rep.App.Series); i++ {
		blockErrors += rep.App.Series[i].BlockErrors
	}
	if blockErrors == 0 {
		t.Error("no block errors during 100% drop stage")
	}
	// Errors subside after rollback.
	lo, hi = stageWindow(rep, "rollback")
	late := 0
	for i := lo; i < hi && i < len(rep.App.Series); i++ {
		late += rep.App.Series[i].BlockErrors
	}
	if late >= blockErrors && blockErrors > 0 {
		t.Errorf("block errors did not subside after rollback: %d vs %d", late, blockErrors)
	}
}

func appWindowAvg(r *DrillReport, stage string, fn func(AppTick) float64) float64 {
	lo, hi := stageWindow(r, stage)
	if hi > len(r.App.Series) {
		hi = len(r.App.Series)
	}
	if lo >= hi {
		return 0
	}
	sum := 0.0
	for _, a := range r.App.Series[lo:hi] {
		sum += fn(a)
	}
	return sum / float64(hi-lo)
}

func TestDrillHostBasedBeatsFlowBasedForApp(t *testing.T) {
	// §5.3 / §7: host-based remarking lets the application fail over;
	// flow-based marking degrades every host a little, so reads cannot
	// route around the damage.
	latency := func(policy enforce.Policy) float64 {
		rep := smallDrill(t, func(o *DrillOptions) { o.Policy = policy; o.Seed = 5 })
		return appWindowAvg(rep, "acl-50", func(a AppTick) float64 { return a.AvgReadLatency.Seconds() })
	}
	host := latency(enforce.HostBased)
	flow := latency(enforce.FlowBased)
	if host >= flow {
		t.Errorf("host-based read latency %v not below flow-based %v", host, flow)
	}
}

func TestDrillStatefulKeepsConformNearEntitlement(t *testing.T) {
	// The agent's conform ratio must settle near entitled/demand = 0.5.
	rep := smallDrill(t, nil)
	lo, hi := stageWindow(rep, "acl-100")
	ratio := stats.Mean(rep.ConformRatio[lo:hi])
	want := rep.Options.Entitled / rep.Options.Demand
	if math.Abs(ratio-want) > 0.2 {
		t.Errorf("conform ratio = %v, want ~%v", ratio, want)
	}
}

func TestDrillStageBookkeeping(t *testing.T) {
	rep := smallDrill(t, nil)
	if rep.StageOf(0).Name != "baseline" {
		t.Error("tick 0 not in baseline")
	}
	last := rep.Stages[len(rep.Stages)-1]
	if rep.StageOf(last.End-1).Name != "rollback" {
		t.Error("last tick not in rollback")
	}
	if rep.StageOf(last.End) != nil {
		t.Error("tick beyond end has a stage")
	}
	if rep.Sim.Metrics.Ticks() != last.End {
		t.Errorf("ticks recorded = %d, want %d", rep.Sim.Metrics.Ticks(), last.End)
	}
	if len(rep.Entitled) != last.End || len(rep.ConformRatio) != last.End {
		t.Error("per-tick report series misaligned")
	}
}

func TestIncidentReproducesFigures4And5(t *testing.T) {
	opts := DefaultIncidentOptions()
	rep, err := RunIncident(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: the culprit's rate peaks ~50% above the predicted volume.
	peak := 0.0
	for _, v := range rep.CulpritRate {
		if v > peak {
			peak = v
		}
	}
	if peak < opts.CulpritRate*1.3 {
		t.Errorf("culprit peak = %v, want >= 1.3× predicted %v", peak, opts.CulpritRate)
	}
	// Pre-incident: no loss anywhere.
	for i := 0; i < rep.SpikeStart-5; i++ {
		if rep.LossA[i] > 0.01 || rep.LossB[i] > 0.01 {
			t.Errorf("pre-incident loss at tick %d: A=%v B=%v", i, rep.LossA[i], rep.LossB[i])
		}
	}
	// Figure 5: both classes see loss during the spike (QoS isolation does
	// not protect within-class victims).
	if rep.PeakLoss(contract.ClassA) <= 0.005 {
		t.Errorf("class A peak loss = %v, want > 0", rep.PeakLoss(contract.ClassA))
	}
	if rep.PeakLoss(contract.ClassB) <= 0.005 {
		t.Errorf("class B peak loss = %v, want > 0", rep.PeakLoss(contract.ClassB))
	}
	// Loss subsides after the incident.
	tail := rep.LossB[len(rep.LossB)-5:]
	if stats.Mean(tail) > 0.05 {
		t.Errorf("loss persists after rollback: %v", stats.Mean(tail))
	}
}

func TestIncidentValidation(t *testing.T) {
	bad := DefaultIncidentOptions()
	bad.LinkCapacity = 0
	if _, err := RunIncident(bad); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestStorageAppHealthyBaseline(t *testing.T) {
	sim := New(Options{Tick: time.Second, Seed: 9})
	link := sim.AddLink("L", 100e9, 10*time.Millisecond)
	hosts := make([]*Host, 4)
	for i := range hosts {
		hosts[i] = sim.AddHost(string(rune('a'+i)), "A", "Cold", contract.C4Low)
		sim.AddFlow(hosts[i], "B", []*Link{link}, 1e9)
	}
	app := NewStorageApp(hosts, DefaultStorageOptions())
	sim.Run(10)
	for i := 0; i < 10; i++ {
		sim.Step()
		tick := app.Step()
		if i > 5 {
			if tick.HealthyHosts != 4 {
				t.Errorf("healthy hosts = %d, want 4", tick.HealthyHosts)
			}
			if tick.ReadFailures != 0 || tick.BlockErrors != 0 {
				t.Errorf("failures on a healthy network: %+v", tick)
			}
			if tick.AvgReadLatency > 2*DefaultStorageOptions().BaseReadLatency {
				t.Errorf("read latency inflated: %v", tick.AvgReadLatency)
			}
		}
	}
}

func TestLatencyUnderLoss(t *testing.T) {
	base := 100 * time.Millisecond
	if got := latencyUnderLoss(base, 0, 3); got != base {
		t.Errorf("zero loss latency = %v", got)
	}
	mid := latencyUnderLoss(base, 0.5, 3)
	if mid <= base {
		t.Errorf("latency under 50%% loss = %v, want > base", mid)
	}
	// Capped at the timeout factor.
	high := latencyUnderLoss(base, 0.999, 3)
	if high > 50*base {
		t.Errorf("latency uncapped: %v", high)
	}
	if got := latencyUnderLoss(base, -1, 3); got != base {
		t.Errorf("negative loss latency = %v", got)
	}
}

func TestDrillMeetsContractSLO(t *testing.T) {
	// The drill's contract carries SLO 0.999; conforming traffic must have
	// been admitted essentially always.
	rep := smallDrill(t, nil)
	// Uptime (§1): the share of ticks carrying conforming traffic whose
	// conforming loss stayed under 1%.
	up, ticks := 0, 0
	for _, ts := range rep.Sim.Metrics.Series(GroupKey{Class: drillClass, Conforming: true}) {
		if ts.SentRate <= 0 {
			continue
		}
		ticks++
		if ts.LossRatio < 0.01 {
			up++
		}
	}
	if avail := float64(up) / float64(ticks); ticks == 0 || avail < 0.999 {
		t.Errorf("measured availability = %v, below the 0.999 SLO", avail)
	}
}
