// Package planner closes the loop the paper leaves to the network team:
// when approval cannot grant everything ("it is common for us to not be able
// to approve everything our users are asking for", §4.3), the operators
// either negotiate demand down (internal/approval.Negotiate) or build
// capacity. This package answers the build-side question: which links
// actually bind under failures, and which upgrades unlock the most demand.
//
// Analysis is a visitor of the risk engine's scenario pass (risk.Simulate):
// a link is charged as binding in a scenario when it is saturated while
// demand goes unmet. RecommendUpgrades greedily upgrades the most-binding
// link and re-evaluates, yielding an ordered augmentation plan.
package planner

import (
	"errors"
	"fmt"
	"sort"

	"entitlement/internal/flow"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// Options configures the analysis.
type Options struct {
	// Scenarios is the number of failure scenarios sampled; the healthy
	// network is always analyzed as one more. Default 200.
	Scenarios int
	Seed      int64
	// Workers is risk.Options.Workers: results are identical for every
	// value.
	Workers int
}

// saturationThreshold is the utilization at which a link counts as binding
// while demand is unmet.
const saturationThreshold = 0.999

func (o Options) withDefaults() Options {
	if o.Scenarios <= 0 {
		o.Scenarios = 200
	}
	return o
}

// LinkFinding summarizes one link's role in unmet demand.
type LinkFinding struct {
	LinkID   int
	Src, Dst topology.Region
	Capacity float64
	// BindFraction is the fraction of scenarios where the link saturated
	// while demand went unmet.
	BindFraction float64
	// AvgShortfall is the mean total unmet demand (bits/s) across the
	// scenarios where this link bound.
	AvgShortfall float64
}

// Report is the bottleneck analysis outcome.
type Report struct {
	// Findings are binding links, most frequently binding first.
	Findings []LinkFinding
	// TotalDemand is the sum of requested rates.
	TotalDemand float64
	// AvgAdmitted is the mean admitted volume across scenarios.
	AvgAdmitted float64
	// AvgShortfall = TotalDemand − AvgAdmitted.
	AvgShortfall float64
}

// AdmittedFraction returns AvgAdmitted/TotalDemand (1 for no demand).
func (r *Report) AdmittedFraction() float64 {
	if r.TotalDemand <= 0 {
		return 1
	}
	return r.AvgAdmitted / r.TotalDemand
}

// Analyze attributes unmet demand to binding links across failure scenarios.
func Analyze(topo *topology.Topology, demands []flow.Demand, opts Options) (*Report, error) {
	if topo == nil || topo.NumLinks() == 0 {
		return nil, errors.New("planner: empty topology")
	}
	if len(demands) == 0 {
		return nil, errors.New("planner: no demands")
	}
	o := opts.withDefaults()
	totalDemand := 0.0
	for _, d := range demands {
		totalDemand += d.Rate
	}

	// Scenarios in the same failure state have the same outcome, so each
	// distinct state is charged once with its multiplicity.
	bindCount := make([]int, topo.NumLinks())
	bindShortfall := make([]float64, topo.NumLinks())
	admittedSum, scenarios := 0.0, 0
	err := risk.Simulate(topo, demands, risk.Options{Scenarios: o.Scenarios, Seed: o.Seed, Workers: o.Workers},
		func(st *risk.State) {
			admitted := 0.0
			for _, a := range st.Admitted {
				admitted += a
			}
			scenarios += st.Count
			admittedSum += admitted * float64(st.Count)
			shortfall := totalDemand - admitted
			if shortfall <= 1e-6 {
				return
			}
			for id := range topo.Links {
				capacity := topo.Links[id].Capacity
				if st.Failure.IsUp(id) && capacity-st.Net.Residual(id) >= capacity*saturationThreshold {
					bindCount[id] += st.Count
					bindShortfall[id] += shortfall * float64(st.Count)
				}
			}
		})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		TotalDemand: totalDemand,
		AvgAdmitted: admittedSum / float64(scenarios),
	}
	rep.AvgShortfall = rep.TotalDemand - rep.AvgAdmitted
	for id, n := range bindCount {
		if n == 0 {
			continue
		}
		l := topo.Link(id)
		rep.Findings = append(rep.Findings, LinkFinding{
			LinkID: id, Src: l.Src, Dst: l.Dst, Capacity: l.Capacity,
			BindFraction: float64(n) / float64(scenarios),
			AvgShortfall: bindShortfall[id] / float64(n),
		})
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.BindFraction != b.BindFraction {
			return a.BindFraction > b.BindFraction
		}
		return a.LinkID < b.LinkID
	})
	return rep, nil
}

// Upgrade is one recommended capacity augmentation.
type Upgrade struct {
	LinkID      int
	Src, Dst    topology.Region
	OldCapacity float64
	NewCapacity float64
}

// RecommendUpgrades greedily plans up to maxUpgrades augmentations: each
// round upgrades the most-binding link (sizing the increment to the average
// shortfall, at least 25% of the link) on a cloned topology and re-analyzes.
// It stops early when no link binds or demand is fully admitted. The
// returned report reflects the upgraded topology, which is also returned
// for inspection.
func RecommendUpgrades(topo *topology.Topology, demands []flow.Demand, opts Options, maxUpgrades int) ([]Upgrade, *Report, *topology.Topology, error) {
	if maxUpgrades <= 0 {
		return nil, nil, nil, errors.New("planner: maxUpgrades must be positive")
	}
	work := topo.Clone()
	var plan []Upgrade
	rep, err := Analyze(work, demands, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	for round := 0; round < maxUpgrades; round++ {
		if len(rep.Findings) == 0 || rep.AvgShortfall <= 1e-6 {
			break
		}
		target := rep.Findings[0]
		increment := target.AvgShortfall
		if min := target.Capacity * 0.25; increment < min {
			increment = min
		}
		newCap := target.Capacity + increment
		if err := work.SetCapacity(target.LinkID, newCap); err != nil {
			return nil, nil, nil, fmt.Errorf("planner: upgrade link %d: %w", target.LinkID, err)
		}
		plan = append(plan, Upgrade{
			LinkID: target.LinkID, Src: target.Src, Dst: target.Dst,
			OldCapacity: target.Capacity, NewCapacity: newCap,
		})
		rep, err = Analyze(work, demands, opts)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return plan, rep, work, nil
}
