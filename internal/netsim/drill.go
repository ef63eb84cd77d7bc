package netsim

import (
	"fmt"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/faults"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs/trace"
	"entitlement/internal/slo"
	"entitlement/internal/topology"
)

// DrillOptions configures the §6 end-to-end enforcement drill: Coldstorage's
// egress entitled rate is reduced, then switch ACLs drop a growing
// percentage (0%, 12.5%, 50%, 100%) of its non-conforming traffic to mimic
// congestion, then everything is rolled back.
type DrillOptions struct {
	Hosts        int     // Coldstorage hosts in the region under test
	FlowsPerHost int     // TCP flows per host
	Demand       float64 // aggregate service demand, bits/s
	Entitled     float64 // reduced egress entitled rate, bits/s
	LinkCapacity float64 // backbone capacity (≥ demand: the ACLs, not the
	// link, produce the drops — as in the paper's methodology)
	StageTicks  int // ticks per drill stage
	AgentPeriod int // agents run every this many ticks
	Policy      enforce.Policy
	// NewMeter builds each agent's meter; default stateful (the drill
	// "uses the stateful host based remarking algorithm").
	NewMeter func() enforce.Meter
	App      StorageOptions
	Tick     time.Duration
	Seed     int64

	// Conformance, when set, turns the drill into an SLO test bench: agents
	// record their per-cycle grant/usage samples into the engine's flight
	// recorder, the simulator records per-tick ground-truth goodput samples
	// (segment "<region>/net"), contract objectives are loaded from the
	// drill database, and the engine is evaluated once per tick on the
	// simulated clock.
	Conformance *slo.Engine
	// Incident, when set, injects a network fault that blackholes a
	// fraction of ALL the drill service's traffic (conforming included) for
	// a tick range — unlike the drill's own NonConformOnly ACL stages, this
	// is a pure network-attributed SLO breach.
	Incident *DrillIncident
	// Spans, when set, receives every agent's per-cycle trace-stamped span —
	// the incident black box's attribution feed.
	Spans slo.SpanSink
	// Tracer, when set, collects every agent's cycle span tree instead of
	// the process-wide default collector — a drill runs hundreds of cycles
	// and callers usually want its traces isolated and queryable.
	Tracer *trace.Collector
	// OnTick, when set, runs after every simulated tick (after conformance
	// evaluation), letting callers sample engine state mid-run.
	OnTick func(tick int)
}

// DrillIncident is an injected network fault: drop DropFraction of every
// drill-service packet, conforming or not, during ticks [StartTick, EndTick).
type DrillIncident struct {
	StartTick    int
	EndTick      int
	DropFraction float64

	// FailAgents, when positive, makes the first N drill agents lose their
	// rate-store and contract-database dependencies for the incident window
	// (drill-clock outage via a faults.Injector), with a staleness budget
	// short enough that they fail open mid-incident — the agent-attribution
	// evidence the black box's envelope must name.
	FailAgents int
	// Links, when set, is told the blackholed link (the drill's one
	// backbone link, ID 0, "TEST->REMOTE", in shared-risk group SRLG) goes
	// down at StartTick and comes back at EndTick — the black box's network
	// attribution feed.
	Links slo.LinkSink
	SRLG  int
}

// Active reports whether the incident covers tick.
func (d *DrillIncident) Active(tick int) bool {
	return d != nil && tick >= d.StartTick && tick < d.EndTick
}

// DefaultDrillOptions returns a compressed version of the September-2021
// drill: the paper's O(10k) hosts and ~35-minute stages become 40 hosts and
// configurable stage lengths, preserving every mechanism.
func DefaultDrillOptions() DrillOptions {
	return DrillOptions{
		Hosts:        40,
		FlowsPerHost: 3,
		Demand:       2e12, // 2 Tbps service demand
		Entitled:     1e12, // reduced to 1 Tbps (Figure 12's "entitled rate")
		LinkCapacity: 4e12, // uncongested without ACLs
		StageTicks:   60,
		AgentPeriod:  2,
		Policy:       enforce.HostBased,
		App:          DefaultStorageOptions(),
		Tick:         time.Second,
		Seed:         42,
	}
}

// DrillStage names one phase of the drill and its tick range [Start, End).
type DrillStage struct {
	Name    string
	Start   int
	End     int
	ACLDrop float64 // fraction of non-conforming traffic dropped
}

// DrillReport holds everything the §6 figures are drawn from.
type DrillReport struct {
	Sim      *Sim
	App      *StorageApp
	Stages   []DrillStage
	Entitled []float64 // per-tick entitled rate as enforced
	// ConformRatio is agent 0's decided ratio per tick (0 before the first
	// agent cycle).
	ConformRatio []float64
	Options      DrillOptions

	lastRatio float64 // ratio carried between agent cycles
}

// StageOf returns the stage covering tick i.
func (r *DrillReport) StageOf(i int) *DrillStage {
	for s := range r.Stages {
		if i >= r.Stages[s].Start && i < r.Stages[s].End {
			return &r.Stages[s]
		}
	}
	return nil
}

const (
	drillNPG     = contract.NPG("Coldstorage")
	drillClass   = contract.C4Low
	bgNPG        = contract.NPG("Warmstorage")
	bgClass      = contract.ClassB
	testRegion   = topology.Region("TEST")
	clientRegion = topology.Region("REMOTE")
)

// RunDrill executes the full drill and returns the report.
func RunDrill(opts DrillOptions) (*DrillReport, error) {
	if opts.Hosts <= 0 || opts.FlowsPerHost <= 0 {
		return nil, fmt.Errorf("netsim: drill needs hosts and flows, got %d×%d", opts.Hosts, opts.FlowsPerHost)
	}
	if opts.Demand <= 0 || opts.Entitled <= 0 || opts.LinkCapacity <= 0 {
		return nil, fmt.Errorf("netsim: drill rates must be positive")
	}
	if opts.StageTicks <= 0 {
		opts.StageTicks = 60
	}
	if opts.AgentPeriod <= 0 {
		opts.AgentPeriod = 2
	}
	if opts.NewMeter == nil {
		opts.NewMeter = func() enforce.Meter { return enforce.NewStateful() }
	}
	if opts.Tick <= 0 {
		opts.Tick = time.Second
	}

	sim := New(Options{Tick: opts.Tick, Seed: opts.Seed})
	link := sim.AddLink("TEST->REMOTE", opts.LinkCapacity, 30*time.Millisecond)

	// Contract database: Coldstorage entitled generously at first (no
	// marking), reduced at the drill's start.
	db := contractdb.NewStore()
	putEntitlement := func(rate float64) {
		db.Put(contract.Contract{
			NPG: drillNPG, SLO: 0.999, Approved: true,
			Entitlements: []contract.Entitlement{{
				NPG: drillNPG, Class: drillClass, Region: testRegion,
				Direction: contract.Egress, Rate: rate,
				Start: sim.Now().Add(-time.Hour), End: sim.Now().Add(24 * time.Hour),
			}},
		})
	}
	putEntitlement(opts.Demand * 2)
	// The bystander service holds its own approved contract (and SLO) so
	// the conformance plane can witness it staying conformant while the
	// drill service breaches.
	db.Put(contract.Contract{
		NPG: bgNPG, SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: bgNPG, Class: bgClass, Region: testRegion,
			Direction: contract.Egress, Rate: opts.LinkCapacity * 0.2,
			Start: sim.Now().Add(-time.Hour), End: sim.Now().Add(24 * time.Hour),
		}},
	})

	rates := kvstore.NewWithClock(sim.Now)

	var rec *slo.Recorder
	if opts.Conformance != nil {
		rec = opts.Conformance.Recorder()
		for npg, obj := range db.Objectives() {
			opts.Conformance.SetObjective(npg, obj)
		}
	}

	// An injected dependency outage for the incident's failing agents,
	// timed on the drill clock to cover the incident window exactly.
	var outage *faults.Injector
	if opts.Incident != nil && opts.Incident.FailAgents > 0 {
		outage = faults.NewInjector(opts.Seed, sim.Now)
		t0 := sim.Now()
		outage.AddOutage(
			t0.Add(time.Duration(opts.Incident.StartTick)*opts.Tick),
			t0.Add(time.Duration(opts.Incident.EndTick)*opts.Tick),
		)
	}

	// Hosts, flows, agents.
	perFlowDemand := opts.Demand / float64(opts.Hosts*opts.FlowsPerHost)
	agents := make([]*enforce.Agent, 0, opts.Hosts)
	for i := 0; i < opts.Hosts; i++ {
		h := sim.AddHost(fmt.Sprintf("cold-%03d", i), testRegion, drillNPG, drillClass)
		for j := 0; j < opts.FlowsPerHost; j++ {
			sim.AddFlow(h, clientRegion, []*Link{link}, perFlowDemand)
		}
		cfg := enforce.AgentConfig{
			Host: h.ID, NPG: drillNPG, Class: drillClass, Region: testRegion,
			DB: db, Rates: rates, Meter: opts.NewMeter(), Prog: h.Prog,
			Policy: opts.Policy, RateTTL: 10 * opts.Tick * time.Duration(opts.AgentPeriod),
			Conformance: rec, Spans: opts.Spans, Tracer: opts.Tracer,
		}
		if outage != nil && i < opts.Incident.FailAgents {
			// This agent loses both dependencies for the incident window and
			// carries a staleness budget of two agent periods, so it walks
			// the full fail-static → fail-open lifecycle mid-incident.
			cfg.DB = &faults.FlakyDB{Inner: db, Inj: outage}
			cfg.Rates = &faults.FlakyRates{Inner: rates, Inj: outage}
			cfg.StalenessBudget = 2 * opts.Tick * time.Duration(opts.AgentPeriod)
		}
		a, err := enforce.NewAgent(cfg)
		if err != nil {
			return nil, err
		}
		agents = append(agents, a)
	}
	// A well-behaved background service shares the link within its
	// entitlement, to witness that conforming traffic is protected.
	bg := sim.AddHost("warm-000", testRegion, bgNPG, bgClass)
	sim.AddFlow(bg, clientRegion, []*Link{link}, opts.LinkCapacity*0.1)

	app := NewStorageApp(sim.Hosts()[:opts.Hosts], opts.App)

	st := opts.StageTicks
	stages := []DrillStage{
		{Name: "baseline", Start: 0, End: st, ACLDrop: 0},
		{Name: "entitlement-reduced", Start: st, End: 2 * st, ACLDrop: 0},
		{Name: "acl-12.5", Start: 2 * st, End: 3 * st, ACLDrop: 0.125},
		{Name: "acl-50", Start: 3 * st, End: 4 * st, ACLDrop: 0.5},
		{Name: "acl-100", Start: 4 * st, End: 5 * st, ACLDrop: 1.0},
		{Name: "rollback", Start: 5 * st, End: 6 * st, ACLDrop: 0},
	}
	report := &DrillReport{Sim: sim, App: app, Stages: stages, Options: opts}

	totalTicks := stages[len(stages)-1].End
	for tick := 0; tick < totalTicks; tick++ {
		// Stage transitions.
		switch tick {
		case stages[1].Start:
			putEntitlement(opts.Entitled) // the drill's entitlement cut
		case stages[5].Start:
			putEntitlement(opts.Demand * 2) // rollback
		}
		if inc := opts.Incident; inc != nil && inc.Links != nil && (tick == inc.StartTick || tick == inc.EndTick) {
			inc.Links.RecordLink(slo.LinkEvent{
				At: sim.Now(), ID: 0, Name: link.Name, SRLG: inc.SRLG, Down: tick == inc.StartTick,
			})
		}
		// ACLs are rebuilt every tick so the stage rule and an injected
		// incident compose (drop fractions stack multiplicatively on the
		// link).
		link.ClearACLs()
		if s := report.StageOf(tick); s != nil && s.ACLDrop > 0 {
			link.AddACL(ACL{NPG: drillNPG, NonConformOnly: true, DropFraction: s.ACLDrop})
		}
		if opts.Incident.Active(tick) {
			link.AddACL(ACL{NPG: drillNPG, DropFraction: opts.Incident.DropFraction})
		}
		// Agents run on their period, using last tick's host measurements.
		if tick%opts.AgentPeriod == 0 {
			for i, a := range agents {
				total, conform := sim.Hosts()[i].EgressRates(opts.Tick)
				rep, _ := a.Cycle(sim.Now(), total, conform)
				if i == 0 {
					report.lastRatio = rep.ConformRatio
				}
			}
		}
		sim.Step()
		app.Step()
		entitled, _, _ := db.EntitledRate(drillNPG, drillClass, testRegion, contract.Egress, sim.Now())
		report.Entitled = append(report.Entitled, entitled)
		report.ConformRatio = append(report.ConformRatio, report.lastRatio)
		if opts.Conformance != nil {
			bgEntitled, _, _ := db.EntitledRate(bgNPG, bgClass, testRegion, contract.Egress, sim.Now())
			recordGroundTruth(opts.Conformance, sim, drillNPG, drillClass, entitled)
			recordGroundTruth(opts.Conformance, sim, bgNPG, bgClass, bgEntitled)
			opts.Conformance.Evaluate(sim.Now())
		}
		if opts.OnTick != nil {
			opts.OnTick(tick)
		}
	}
	return report, nil
}

// recordGroundTruth emits one network-ground-truth SLO sample for npg: the
// conforming goodput the fabric actually delivered versus what conforming
// senders offered. The shortfall goes in Sample.Throttled — in-contract
// traffic the network failed to carry, the §3.3 network-attributed
// quantity — while demand beyond the entitlement goes in Overage
// (service-attributed).
func recordGroundTruth(eng *slo.Engine, sim *Sim, npg contract.NPG, class contract.Class, entitled float64) {
	series := sim.Metrics.NPGSeries(npg)
	if len(series) == 0 {
		return
	}
	nt := series[len(series)-1]
	throttled := nt.ConformRate - nt.ConformDeliveredRate
	if throttled < 0 {
		throttled = 0
	}
	over := nt.TotalRate - entitled
	if over < 0 {
		over = 0
	}
	eng.Record(slo.Key{
		Contract: string(npg),
		Segment:  string(testRegion) + "/net",
		Class:    class.String(),
	}, slo.Sample{
		At:        sim.Now(),
		Granted:   entitled,
		Used:      nt.ConformDeliveredRate,
		Throttled: throttled,
		Overage:   over,
	})
}

// ServiceRates returns the drill service's per-tick total and conforming
// rates plus the entitled rate — the Figure 12 triple.
func (r *DrillReport) ServiceRates() (total, conform, entitled []float64) {
	series := r.Sim.Metrics.NPGSeries(drillNPG)
	total = make([]float64, len(series))
	conform = make([]float64, len(series))
	for i, s := range series {
		total[i] = s.TotalRate
		conform[i] = s.ConformRate
	}
	return total, conform, r.Entitled
}

// LossSeries returns per-tick loss ratios for conforming and non-conforming
// drill traffic — the Figure 11 pair.
func (r *DrillReport) LossSeries() (conforming, nonConforming []float64) {
	conf := r.Sim.Metrics.Series(GroupKey{Class: drillClass, Conforming: true})
	non := r.Sim.Metrics.Series(GroupKey{Class: drillClass, Conforming: false})
	conforming = make([]float64, len(conf))
	for i, ts := range conf {
		conforming[i] = ts.LossRatio
	}
	nonConforming = make([]float64, len(non))
	for i, ts := range non {
		nonConforming[i] = ts.LossRatio
	}
	return conforming, nonConforming
}

// RTTSeries returns per-tick average RTTs (seconds) for conforming and
// non-conforming drill traffic — Figure 13.
func (r *DrillReport) RTTSeries() (conforming, nonConforming []float64) {
	conf := r.Sim.Metrics.Series(GroupKey{Class: drillClass, Conforming: true})
	non := r.Sim.Metrics.Series(GroupKey{Class: drillClass, Conforming: false})
	conforming = make([]float64, len(conf))
	for i, ts := range conf {
		conforming[i] = ts.AvgRTT.Seconds()
	}
	nonConforming = make([]float64, len(non))
	for i, ts := range non {
		nonConforming[i] = ts.AvgRTT.Seconds()
	}
	return conforming, nonConforming
}

// SYNSeries returns per-tick SYN attempts for conforming and non-conforming
// drill traffic — Figure 14.
func (r *DrillReport) SYNSeries() (conforming, nonConforming []int) {
	conf := r.Sim.Metrics.Series(GroupKey{Class: drillClass, Conforming: true})
	non := r.Sim.Metrics.Series(GroupKey{Class: drillClass, Conforming: false})
	conforming = make([]int, len(conf))
	for i, ts := range conf {
		conforming[i] = ts.SynSent
	}
	nonConforming = make([]int, len(non))
	for i, ts := range non {
		nonConforming[i] = ts.SynSent
	}
	return conforming, nonConforming
}
