// Package risk is the reproduction's Risk Simulation System (RSS) — the
// component §4.3 uses to "generate the bandwidth availability curves based
// on the network capacity and reliability". It Monte-Carlo samples failure
// scenarios (independent link failures and SRLG fiber cuts) from the
// topology, routes the pipe demands under each scenario with the flow
// allocator, and summarizes each pipe's admitted bandwidth into an
// availability curve:
//
//	availability(b) = P(admitted bandwidth >= b)
//
// The approval pipeline then reads the curve at the contract's SLO target to
// find the admittable volume ("the Pipe approval is calculated by finding
// the flow volume associated with the desired SLO target").
//
// Link failures are rare, so most sampled scenarios are the same failure
// state (usually all-up). The allocator is a pure function of (state, demands,
// options), so the scenario pass (Simulate, engine.go) routes each distinct
// state once and hands it to a visitor with its multiplicity; Assess is the
// visitor that fills availability curves, planner.Analyze the one that charges
// saturated links.
package risk

import (
	"errors"
	"math"
	"sort"

	"entitlement/internal/flow"
	"entitlement/internal/topology"
)

// Curve is a bandwidth availability curve for one pipe: the empirical
// distribution of admitted bandwidth across sampled failure scenarios.
type Curve struct {
	sorted []float64 // admitted bandwidth per scenario, ascending
}

// NewCurve builds a curve from per-scenario admitted bandwidth samples.
func NewCurve(samples []float64) *Curve {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &Curve{sorted: s}
}

// Scenarios returns the number of scenarios behind the curve.
func (c *Curve) Scenarios() int { return len(c.sorted) }

// bwTol is the comparison tolerance for bandwidth values: a small absolute
// floor plus a relative term, so Tbps-scale rates (1e11–1e13 bits/s, where a
// fixed 1e-9 is meaningless) still absorb float accumulation error.
func bwTol(b float64) float64 {
	return 1e-9 + 1e-12*math.Abs(b)
}

// RateAtAvailability returns the largest bandwidth admitted in at least slo
// fraction of scenarios — the volume the network can guarantee at that SLO.
// It returns 0 when the SLO is unattainable (e.g. more stringent than 1-1/n).
func (c *Curve) RateAtAvailability(slo float64) float64 {
	n := len(c.sorted)
	if n == 0 || slo <= 0 {
		return 0
	}
	// Need k = ceil(slo*n) scenarios admitting the rate; the best such rate
	// is the (n-k)-th order statistic.
	k := int(slo * float64(n))
	if float64(k) < slo*float64(n) {
		k++
	}
	if k > n {
		return 0
	}
	return c.sorted[n-k]
}

// Options configures a risk assessment.
type Options struct {
	// Scenarios is the number of Monte-Carlo failure scenarios; more
	// scenarios resolve higher SLO targets (resolving availability a needs
	// on the order of 1/(1-a) scenarios). Default 500. The no-failure state
	// is always assessed as one extra scenario, which stabilizes the top of
	// the curve.
	Scenarios int
	Seed      int64
	// Workers is the state-routing parallelism: 0 uses
	// runtime.GOMAXPROCS(0), 1 routes serially. Results are byte-identical
	// for every value because every scenario's state is a pure function of
	// (Seed, scenario) and visits run in class order.
	Workers int
	// Pool, when non-nil and bound to the assessed topology, supplies the
	// per-worker flow.Runners instead of constructing fresh ones, so a
	// long-running service reuses allocator scratch across assessments.
	// Pools bound to a different topology are ignored (AssessPhased
	// assesses two topologies with one Options value).
	Pool *flow.RunnerPool
	// Cache, when non-nil, lets Assess replay a repeat of a cached
	// (topology, demands, options) assessment without routing anything, and
	// share one sampled scenario set between assessments that differ only in
	// demands. An entry is valid for the topology epoch it was filled at.
	Cache *ResultCache
}

// Result holds per-pipe availability curves from one assessment.
type Result struct {
	Curves map[string]*Curve // keyed by flow.Demand.Key
	// Routed is the number of allocator runs behind the curves: one per
	// distinct failure state among the scenarios, 0 for a cache replay.
	Routed int
}

// Assess runs the Monte-Carlo risk simulation: for every sampled failure
// scenario it routes all demands (honoring QoS priority) and records each
// demand's admitted bandwidth. Demands passed as background (e.g. already
// approved higher-priority classes) compete for capacity and appear in the
// result like any other; callers pick the keys they care about.
func Assess(topo *topology.Topology, demands []flow.Demand, opts Options) (*Result, error) {
	if len(demands) == 0 {
		return &Result{Curves: map[string]*Curve{}}, nil
	}
	if opts.Scenarios <= 0 {
		opts.Scenarios = defaultScenarios
	}
	if err := checkDemandKeys(demands); err != nil {
		return nil, err
	}
	if opts.Cache != nil {
		return opts.Cache.assess(topo, demands, opts), nil
	}
	return assessSet(topo, demands, opts, sampleSet(topo, opts)), nil
}

// assessSet is Assess as a visitor of the scenario pass: each distinct
// state's admitted vector fills as many samples of every demand's column as
// scenarios drew that state.
func assessSet(topo *topology.Topology, demands []flow.Demand, opts Options, set *scenarioSet) *Result {
	total := opts.Scenarios + 1
	flat := make([]float64, len(demands)*total)
	at := 0
	set.run(topo, demands, opts, func(st *State) {
		for di, adm := range st.Admitted {
			col := flat[di*total+at:][:st.Count]
			for i := range col {
				col[i] = adm
			}
		}
		at += st.Count
	})
	res := &Result{Curves: make(map[string]*Curve, len(demands)), Routed: len(set.classes)}
	for di, d := range demands {
		col := flat[di*total : (di+1)*total : (di+1)*total]
		sort.Float64s(col)
		res.Curves[d.Key] = &Curve{sorted: col}
	}
	return res
}

// checkDemandKeys rejects duplicate demand keys (each key owns one curve).
func checkDemandKeys(demands []flow.Demand) error {
	seen := make(map[string]bool, len(demands))
	for _, d := range demands {
		if seen[d.Key] {
			return errors.New("risk: duplicate demand key " + d.Key)
		}
		seen[d.Key] = true
	}
	return nil
}

// GuaranteedRate returns the bandwidth guaranteed to demand key at the SLO,
// or 0 when the key is unknown.
func (r *Result) GuaranteedRate(key string, slo float64) float64 {
	c, ok := r.Curves[key]
	if !ok {
		return 0
	}
	return c.RateAtAvailability(slo)
}

// Samples returns a copy of the per-scenario admitted-bandwidth samples.
func (c *Curve) Samples() []float64 {
	out := make([]float64, len(c.sorted))
	copy(out, c.sorted)
	return out
}

// Merge combines curves (e.g. assessment phases) into one distribution.
func Merge(curves ...*Curve) *Curve {
	var all []float64
	for _, c := range curves {
		if c != nil {
			all = append(all, c.sorted...)
		}
	}
	return NewCurve(all)
}

// AssessPhased assesses demands across a planned topology change (§4.3:
// approval must "analyze possible network failures (e.g., fiber cuts) and
// changes (e.g., new links) in advance"): the entitlement period spends
// 1−fracAfter of its time on the current topology and fracAfter on the
// post-change topology. Scenario counts are split proportionally and the
// phase curves merged, so the availability guarantee covers the whole
// period including the change window. Each phase inherits Options.Workers,
// so both topologies' scenario sets fan out in parallel.
func AssessPhased(before, after *topology.Topology, fracAfter float64, demands []flow.Demand, opts Options) (*Result, error) {
	if fracAfter < 0 || fracAfter > 1 {
		return nil, errors.New("risk: fracAfter out of [0,1]")
	}
	if opts.Scenarios <= 0 {
		opts.Scenarios = defaultScenarios
	}
	afterScenarios := int(float64(opts.Scenarios) * fracAfter)
	beforeScenarios := opts.Scenarios - afterScenarios

	merged := &Result{Curves: make(map[string]*Curve, len(demands))}
	runPhase := func(t *topology.Topology, scenarios int, seedOffset int64) error {
		if scenarios <= 0 || t == nil {
			return nil
		}
		phaseOpts := opts
		phaseOpts.Scenarios = scenarios
		phaseOpts.Seed = opts.Seed + seedOffset
		res, err := Assess(t, demands, phaseOpts)
		if err != nil {
			return err
		}
		for k, c := range res.Curves {
			merged.Curves[k] = Merge(merged.Curves[k], c)
		}
		merged.Routed += res.Routed
		return nil
	}
	if err := runPhase(before, beforeScenarios, 0); err != nil {
		return nil, err
	}
	if err := runPhase(after, afterScenarios, 1_000_003); err != nil {
		return nil, err
	}
	return merged, nil
}
