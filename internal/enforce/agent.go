package enforce

import (
	"fmt"
	"math"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs/trace"
	"entitlement/internal/slo"
	"entitlement/internal/topology"
)

// Policy selects the remarking granularity (§5.3).
type Policy int

// Policies. Host-based is the production default: "many applications have
// builtin mechanisms to react to host failures, but not individual flow
// failures".
const (
	HostBased Policy = iota
	FlowBased
)

// String names the policy.
func (p Policy) String() string {
	if p == FlowBased {
		return "flow-based"
	}
	return "host-based"
}

// markMode converts a policy to its BPF action mode.
func (p Policy) markMode() bpf.MarkMode {
	if p == FlowBased {
		return bpf.MarkFlows
	}
	return bpf.MarkHosts
}

// NonConformGroups converts a conform ratio to the number of non-conforming
// buckets out of bpf.NumGroups (Figure 10: NonConformRatio 0.02 → 2 groups).
func NonConformGroups(conformRatio float64) uint32 {
	n := int(math.Round((1 - conformRatio) * bpf.NumGroups))
	if n < 0 {
		n = 0
	}
	if n > bpf.NumGroups {
		n = bpf.NumGroups
	}
	return uint32(n)
}

// AgentConfig wires one enforcement agent. Every field is required unless
// noted.
type AgentConfig struct {
	Host   string // this host's ID
	NPG    contract.NPG
	Class  contract.Class
	Region topology.Region

	DB    contractdb.Database // contract queries
	Rates kvstore.RateStore   // distributed rate aggregation
	Meter Meter
	Prog  *bpf.Program // this host's egress classifier

	Policy Policy
	// RateTTL bounds staleness of published rates; entries from dead hosts
	// age out. Default 30s.
	RateTTL time.Duration
	// StalenessBudget bounds degraded-mode operation. When the rate store
	// or contract database is unreachable, the agent keeps enforcing from
	// its last-known-good data (fail-static: the programmed marking keeps
	// applying, which is what a marking-only datapath affords). Once the
	// data in use is older than this budget the agent fails open instead —
	// it deletes its marking action rather than keep acting on a world
	// view that may be arbitrarily wrong. Default 3×RateTTL.
	StalenessBudget time.Duration
	// RotatePeriod, when positive, rotates WHICH hosts (or flow groups) are
	// marked: the marking salt changes every period, derived from the
	// shared clock so every agent in the fleet agrees without coordination.
	// Zero disables rotation (the marked set is pinned, maximally visible).
	RotatePeriod time.Duration
	// Conformance, when set, receives one SLO sample per enforcement cycle
	// (this agent's contract-level grant/usage view) on the series
	// (NPG, Region/Host, Class). Optional; nil disables emission.
	Conformance *slo.Recorder
	// Spans, when set, receives one trace-stamped CycleSpan per enforcement
	// cycle — the incident black box's attribution feed (which host
	// degraded or failed open, when, under which trace ID). Optional; nil
	// disables emission.
	Spans slo.SpanSink
	// Tracer is the span collector cycles record into. Nil uses the
	// process-wide trace.Default() — which is also where the wire clients
	// record, so leave it nil unless the test needs an isolated collector
	// (and can live without the wire spans joining the tree).
	Tracer *trace.Collector
}

// spanSetter is what the agent needs from a dependency to tie its RPCs to
// the cycle: the wire-backed kvstore and contractdb clients implement it
// (their calls are parented under the cycle's phase spans, and their
// request IDs carry the cycle's trace ID); in-process stores don't, and
// don't need to.
type spanSetter interface{ SetSpan(trace.Context) }

// Agent is the per-host enforcement agent of Figure 9's user-space
// component: it publishes this host's rates, reads the service aggregate,
// queries the contract, runs the meter, and programs the BPF map. Agents
// are fully distributed — no controller exists in the second-generation
// architecture (§5.1).
//
// Like the meter it drives, an Agent is single-goroutine state: one caller
// of Cycle per agent.
type Agent struct {
	cfg AgentConfig
	key bpf.MapKey
	// One cycle's rate-store exchange, built once: the keys this host
	// publishes under (total, then conforming; each cycle sets only the
	// values) and the prefixes it aggregates, whose sums land in sums. The
	// identity fields they derive from never change after NewAgent.
	puts     [2]kvstore.Publish
	prefixes [2]string
	sums     [2]float64

	// Last-known-good cache for degraded-mode cycles: the newest aggregate
	// and contract answers that actually arrived, stamped with when.
	aggAt      time.Time
	aggOK      bool
	aggTotal   float64
	aggConform float64
	entAt      time.Time
	entOK      bool
	entRate    float64
	entFound   bool

	// Previous cycle's mode, for metric transition tracking (gauges count
	// agents in a mode; counters count entries into it).
	wasDegraded   bool
	wasFailedOpen bool

	// cycleSeq numbers this agent's cycles (annotated on the root span);
	// dbSpan/ratesSpan are the dependencies' SetSpan hooks when wire-backed
	// (nil otherwise), resolved once at construction. tracer is the
	// resolved span collector.
	cycleSeq  uint64
	dbSpan    spanSetter
	ratesSpan spanSetter
	tracer    *trace.Collector
	// sloSeries is the cached flight-recorder handle (nil when Conformance
	// is unset); caching keeps the record path off the sync.Map lookup.
	sloSeries *slo.Series
}

// NewAgent validates the configuration and builds an agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Host == "" || cfg.NPG == "" || cfg.Region == "" {
		return nil, fmt.Errorf("enforce: agent config missing identity: %+v", cfg)
	}
	if cfg.DB == nil || cfg.Rates == nil || cfg.Meter == nil || cfg.Prog == nil {
		return nil, fmt.Errorf("enforce: agent config missing dependencies")
	}
	if cfg.RateTTL <= 0 {
		cfg.RateTTL = 30 * time.Second
	}
	if cfg.StalenessBudget <= 0 {
		cfg.StalenessBudget = 3 * cfg.RateTTL
	}
	npg, class, region := string(cfg.NPG), cfg.Class.String(), string(cfg.Region)
	a := &Agent{
		cfg: cfg,
		key: bpf.MapKey{NPG: cfg.NPG, Class: cfg.Class, Region: cfg.Region},
		puts: [2]kvstore.Publish{
			{Key: kvstore.RateKey(npg, class, region, cfg.Host), TTL: cfg.RateTTL},
			{Key: conformRateKey(npg, class, region, cfg.Host), TTL: cfg.RateTTL},
		},
		prefixes: [2]string{kvstore.RatePrefix(npg, class, region), conformRatePrefix(npg, class, region)},
	}
	if ss, ok := cfg.DB.(spanSetter); ok {
		a.dbSpan = ss
	}
	if ss, ok := cfg.Rates.(spanSetter); ok {
		a.ratesSpan = ss
	}
	a.tracer = cfg.Tracer
	if a.tracer == nil {
		a.tracer = trace.Default()
	}
	if cfg.Conformance != nil {
		a.sloSeries = cfg.Conformance.Series(slo.Key{
			Contract: string(cfg.NPG),
			Segment:  string(cfg.Region) + "/" + cfg.Host,
			Class:    cfg.Class.String(),
		})
	}
	return a, nil
}

// CycleReport captures one enforcement cycle's observations and decision.
type CycleReport struct {
	EntitledRate     float64
	TotalRate        float64 // aggregate across all hosts of the service
	ConformRate      float64
	ConformRatio     float64
	NonConformGroups uint32
	Enforced         bool // false when no entitlement applies

	// Degraded reports that at least one dependency (rate store or
	// contract DB) failed this cycle and the decision leaned on cached or
	// partial data.
	Degraded bool
	// StaleFor is the age of the oldest cached datum the decision used;
	// zero when everything was fresh this cycle.
	StaleFor time.Duration
	// FailedOpen reports that the staleness budget was exhausted (or no
	// good data ever arrived): the agent deleted its marking action and
	// enforced nothing rather than act on an arbitrarily old world view.
	FailedOpen bool
	// Faults lists the dependency errors behind a degraded cycle.
	Faults []string
	// TraceID is this cycle's 32-hex trace ID: the cycle is a real root span
	// (with kv.exchange / db.fetch / meter.apply children, and the wire RPCs
	// under the first two), the ID prefixes every RPC request ID the cycle
	// issued (grep the servers' logs for it), and it is attached to the
	// agent's own cycle log line. Minted from the per-process random
	// trace identity, so two hosts that happen to share a name can never
	// collide the way the old "<host>-c<seq>" tokens could.
	TraceID string
}

// fault records a dependency failure on the report.
func (r *CycleReport) fault(op string, err error) {
	r.Degraded = true
	r.Faults = append(r.Faults, fmt.Sprintf("%s: %v", op, err))
}

// Cycle runs one enforcement iteration at time now. localTotal and
// localConform are this host's measured egress rates (bits/s) for the flow
// set, total and conforming respectively.
//
// Cycle degrades instead of aborting: a failed rate exchange still lets the
// contract query run; a failed exchange or contract query falls back to the
// last-known-good answers while they are younger than
// AgentConfig.StalenessBudget (fail-static); beyond the budget the agent
// fails open. Every cycle makes a decision, so the returned error is
// always nil: inspect CycleReport.Degraded/StaleFor/FailedOpen for the mode.
func (a *Agent) Cycle(now time.Time, localTotal, localConform float64) (CycleReport, error) {
	a.cycleSeq++
	root := a.tracer.StartRoot("enforce.cycle")
	root.SetService(a.cfg.Host)
	root.SetContract(string(a.cfg.NPG))
	root.Annotate(fmt.Sprintf("cycle %d host %s", a.cycleSeq, a.cfg.Host))
	traceID := root.TraceID()
	start := time.Now()
	rep := a.cycle(now, localTotal, localConform, root.Context())
	rep.TraceID = traceID
	if rep.Degraded {
		root.Flag(trace.FlagDegraded)
	}
	if rep.FailedOpen {
		root.Flag(trace.FlagFailOpen)
	}
	root.Finish()
	a.observeCycle(now, rep, time.Since(start))
	if a.cfg.Spans != nil {
		sp := slo.CycleSpan{
			At:         now,
			Host:       a.cfg.Host,
			Contract:   string(a.cfg.NPG),
			TraceID:    traceID,
			Degraded:   rep.Degraded,
			FailedOpen: rep.FailedOpen,
			StaleFor:   rep.StaleFor,
			Enforced:   rep.EntitledRate,
			Faults:     rep.Faults,
		}
		// Attach the full span tree when tail sampling retained the trace —
		// incident cycles (degraded/fail-open) always are, so replay
		// can print the causal path inside the cycle.
		if t, ok := a.tracer.Tree(traceID); ok {
			sp.Tree = t.Spans
		}
		a.cfg.Spans.RecordSpan(sp)
	}
	if a.sloSeries != nil {
		// The agent's own conformance view: what the contract granted, what
		// the service's conforming traffic used, and how far total demand
		// overshot the grant (service-attributed per the §3.3 demarcation).
		// Loss between marking and delivery is the network's to report
		// (ground truth comes from the simulator or drill harness).
		over := rep.TotalRate - rep.EntitledRate
		if !rep.Enforced || over < 0 {
			over = 0
		}
		a.sloSeries.Record(slo.Sample{
			At:      now,
			Granted: rep.EntitledRate,
			Used:    rep.ConformRate,
			Overage: over,
		})
	}
	return rep, nil
}

// observeCycle maintains the enforcement metrics after one cycle: the
// duration histogram, per-mode counters, and the transition-tracked
// degraded/fail-open gauges.
func (a *Agent) observeCycle(now time.Time, rep CycleReport, took time.Duration) {
	mCycles.Inc()
	mCycleSeconds.ObserveDuration(took)
	if !rep.Degraded {
		// Sub-second resolution: chaos tests assert this gauge freezes
		// during an outage and strictly advances on recovery, with cycle
		// periods well under a second.
		mLastSuccess.With(a.cfg.Host).Set(float64(now.UnixNano()) / 1e9)
	}
	if rep.Degraded {
		mDegradedCycles.Inc()
	}
	if rep.Degraded != a.wasDegraded {
		if rep.Degraded {
			mDegradedAgents.Inc()
		} else {
			mDegradedAgents.Dec()
		}
		a.wasDegraded = rep.Degraded
	}
	if rep.FailedOpen && !a.wasFailedOpen {
		mFailOpenTrans.Inc()
	}
	if rep.FailedOpen != a.wasFailedOpen {
		if rep.FailedOpen {
			mFailOpenAgents.Inc()
		} else {
			mFailOpenAgents.Dec()
		}
		a.wasFailedOpen = rep.FailedOpen
	}
	mStaleSeconds.With(a.cfg.Host).Set(rep.StaleFor.Seconds())
}

// startPhase opens one cycle-phase child span and points the wire-backed
// dependency (if any) at it, so the phase's RPCs parent under the phase.
func (a *Agent) startPhase(tc trace.Context, name string, dep spanSetter) trace.Span {
	sp := a.tracer.StartChild(tc, name)
	sp.SetService(a.cfg.Host)
	if dep != nil {
		dep.SetSpan(sp.Context())
	}
	return sp
}

// cycle is the uninstrumented cycle body; see Cycle. tc is the cycle root
// span's context; each phase below is a child span under it.
func (a *Agent) cycle(now time.Time, localTotal, localConform float64, tc trace.Context) CycleReport {
	var rep CycleReport
	// 1. Publish this host's rates and read the service-wide aggregates in
	// one exchange (the sums include this publish); cache on success. A
	// failed exchange loses both halves: losing a publish only fades this
	// host out of the remote aggregate once its TTL passes, and the
	// aggregate falls back to the cache below.
	ex := a.startPhase(tc, "kv.exchange", a.ratesSpan)
	a.puts[0].Value, a.puts[1].Value = localTotal, localConform
	if err := kvstore.Exchange(a.cfg.Rates, a.puts[:], a.prefixes[:], a.sums[:]); err != nil {
		mExchangeFails.Inc()
		rep.fault("rate exchange", err)
		ex.SetError(err)
	} else {
		a.aggAt, a.aggOK = now, true
		a.aggTotal, a.aggConform = a.sums[0], a.sums[1]
	}
	ex.Finish()
	// 2. Query the contract; cache on success.
	fetch := a.startPhase(tc, "db.fetch", a.dbSpan)
	entitled, found, err := a.cfg.DB.EntitledRate(a.cfg.NPG, a.cfg.Class, a.cfg.Region, contract.Egress, now)
	if err != nil {
		mContractFails.Inc()
		rep.fault("contract query", err)
		fetch.SetError(err)
	} else {
		a.entAt, a.entOK = now, true
		a.entRate, a.entFound = entitled, found
	}
	fetch.Finish()
	// 3. Decide from the freshest data available, within the budget.
	if !a.aggOK || !a.entOK {
		// Never had a good answer (e.g. servers down since startup):
		// nothing to be fail-static about — fail open.
		return a.failOpen(rep)
	}
	if stale := now.Sub(a.aggAt); stale > rep.StaleFor {
		rep.StaleFor = stale
	}
	if stale := now.Sub(a.entAt); stale > rep.StaleFor {
		rep.StaleFor = stale
	}
	if rep.StaleFor > a.cfg.StalenessBudget {
		return a.failOpen(rep)
	}
	rep.TotalRate, rep.ConformRate = a.aggTotal, a.aggConform
	if !a.entFound {
		// No contract: fail open — delete any action and remark nothing.
		a.cfg.Prog.Actions.Delete(a.key)
		a.cfg.Meter.Reset()
		rep.ConformRatio = 1
		return rep
	}
	rep.Enforced = true
	rep.EntitledRate = a.entRate
	// 4. Meter, then program the kernel map.
	apply := a.startPhase(tc, "meter.apply", nil)
	ratio := a.cfg.Meter.ConformRatio(a.entRate, rep.TotalRate, rep.ConformRate)
	rep.ConformRatio = ratio
	rep.NonConformGroups = NonConformGroups(ratio)
	a.cfg.Prog.Actions.Update(a.key, bpf.Action{
		Mode:             a.cfg.Policy.markMode(),
		NonConformGroups: rep.NonConformGroups,
		Salt:             a.rotationSalt(now),
	})
	apply.Annotate(fmt.Sprintf("conform_ratio %.3f groups %d", ratio, rep.NonConformGroups))
	apply.Finish()
	return rep
}

// failOpen clears the marking action and reports an un-enforced cycle. The
// meter is reset so recovery restarts from ConformRatio 1 instead of a
// throttle ratio frozen from before the outage.
func (a *Agent) failOpen(rep CycleReport) CycleReport {
	a.cfg.Prog.Actions.Delete(a.key)
	a.cfg.Meter.Reset()
	rep.FailedOpen = true
	rep.Enforced = false
	rep.ConformRatio = 1
	return rep
}

// rotationSalt derives the fleet-consistent marking salt for time now.
func (a *Agent) rotationSalt(now time.Time) uint32 {
	if a.cfg.RotatePeriod <= 0 {
		return 0
	}
	return uint32(now.Unix() / int64(a.cfg.RotatePeriod.Seconds()))
}

func conformRateKey(npg, class, region, host string) string {
	return fmt.Sprintf("conform/%s/%s/%s/%s", npg, class, region, host)
}

func conformRatePrefix(npg, class, region string) string {
	return fmt.Sprintf("conform/%s/%s/%s/", npg, class, region)
}
