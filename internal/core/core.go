// Package core is the entitlement framework itself: the orchestration of
// §3.2's four-step process over the substrate packages.
//
//  1. Service demand forecast (internal/forecast): per-pipe SLI metrics from
//     traffic history, with high-touch services treated individually and the
//     long tail grouped into one low-touch service (§4.3).
//  2. Contract representation (internal/hose): pipes aggregate into hoses,
//     segmented with Algorithm 1 using the observed per-destination
//     deployment structure, then ingress/egress balanced (§8).
//  3. Contract approval (internal/granting.DecideBatch over internal/approval
//     and internal/risk): SLO-aware granting against the backbone topology,
//     with §8's counter-proposals for what it cannot grant.
//  4. Runtime enforcement: each Decision.Contract lands in the contract
//     database that the distributed agents (internal/enforce) query.
//
// This package owns steps 1–2 (PrepareRequests) and the bridge into step 3
// (GrantRequests); every contract is decided and built by internal/granting.
package core

import (
	"errors"
	"fmt"
	"sort"

	"entitlement/internal/contract"
	"entitlement/internal/forecast"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/timeseries"
	"entitlement/internal/topology"
	"entitlement/internal/trace"
)

// Options configures one entitlement round.
type Options struct {
	// Prophet configures the organic demand model.
	Prophet forecast.ProphetOptions
	// SLIKind maps NPGs to their SLI reduction; unlisted NPGs use
	// forecast.SLIDailyMean ("different services need different types of
	// daily data", §4.1).
	SLIKind map[contract.NPG]forecast.SLIKind
	// SLO maps NPGs to their availability targets; GrantRequests puts them
	// on the requests, and unlisted NPGs get the granting engine's default.
	SLO map[contract.NPG]contract.SLO
	// HighTouch lists the services entitled individually; every other NPG
	// aggregates into trace.LowTouchNPG. A nil map treats every NPG as
	// high-touch.
	HighTouch map[contract.NPG]bool
	// MinPipeRate drops forecast pipes below this rate (bits/s) to keep
	// the approval problem tractable; 0 keeps everything.
	MinPipeRate float64
}

// DefaultOptions returns a workable configuration for synthetic workloads.
func DefaultOptions() Options {
	return Options{Prophet: forecast.ProphetOptions{Changepoints: 4, WeeklyOrder: 2}}
}

// PipeForecast is one forecast pipe with its monthly demand detail.
type PipeForecast struct {
	Pipe    hose.PipeRequest
	Monthly [3]float64
}

// Report is the demand side of one entitlement round.
type Report struct {
	// Pipes are the forecast SLI demands (step 1).
	Pipes []PipeForecast
	// Hoses are the segmented, balanced contract representations (step 2).
	Hoses []hose.Request
}

// effectiveNPG applies the high-touch/low-touch grouping.
func effectiveNPG(npg contract.NPG, highTouch map[contract.NPG]bool) contract.NPG {
	if highTouch == nil || highTouch[npg] {
		return npg
	}
	return trace.LowTouchNPG
}

// PrepareRequests runs steps 1–2 of the granting pipeline over a backbone —
// demand forecast and segmented/balanced hose representation. GrantRequests
// turns the hoses into the requests granting.DecideBatch (in-process or
// behind grantd) decides.
func PrepareRequests(topo *topology.Topology, history *trace.DemandSet, opts Options) (*Report, error) {
	if topo == nil {
		return nil, errors.New("core: missing topology")
	}
	if history == nil || len(history.Flows) == 0 {
		return nil, errors.New("core: empty demand history")
	}

	// --- Step 1: demand forecast per (grouped NPG, class, src, dst). -----
	type pipeKey struct {
		npg      contract.NPG
		class    contract.Class
		src, dst topology.Region
	}
	merged := make(map[pipeKey]*timeseries.Series)
	var keys []pipeKey
	for i := range history.Flows {
		fl := &history.Flows[i]
		k := pipeKey{effectiveNPG(fl.NPG, opts.HighTouch), fl.Class, fl.Src, fl.Dst}
		if cur, ok := merged[k]; ok {
			for j, v := range fl.Series.Values {
				cur.Values[j] += v
			}
		} else {
			merged[k] = fl.Series.Clone()
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.npg != b.npg {
			return a.npg < b.npg
		}
		if a.class != b.class {
			return a.class < b.class
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})

	report := &Report{}
	// Historical per-destination series per (npg, class, src) for
	// segmentation (step 2 uses observed deployment structure).
	perDst := make(map[string]map[topology.Region]*timeseries.Series)
	hoseKey := func(npg contract.NPG, class contract.Class, src topology.Region) string {
		return fmt.Sprintf("%s/%s/%s", npg, class, src)
	}
	for _, k := range keys {
		raw := merged[k]
		kind := opts.SLIKind[k.npg]
		daily, err := forecast.DailySLI(raw, kind)
		if err != nil {
			return nil, fmt.Errorf("core: SLI for %v: %w", k, err)
		}
		res, err := forecast.ForecastQuarter(daily, opts.Prophet)
		if err != nil {
			return nil, fmt.Errorf("core: forecast for %v: %w", k, err)
		}
		if opts.MinPipeRate > 0 && res.Quarter < opts.MinPipeRate {
			continue
		}
		report.Pipes = append(report.Pipes, PipeForecast{
			Pipe: hose.PipeRequest{
				NPG: k.npg, Class: k.class, Src: k.src, Dst: k.dst, Rate: res.Quarter,
			},
			Monthly: res.Monthly,
		})
		hk := hoseKey(k.npg, k.class, k.src)
		if perDst[hk] == nil {
			perDst[hk] = make(map[topology.Region]*timeseries.Series)
		}
		perDst[hk][k.dst] = raw
	}
	if len(report.Pipes) == 0 {
		return nil, errors.New("core: no pipes above the minimum rate")
	}

	// --- Step 2: hose representation + segmentation + balancing. ---------
	pipes := make([]hose.PipeRequest, len(report.Pipes))
	for i := range report.Pipes {
		pipes[i] = report.Pipes[i].Pipe
	}
	hoses := hose.AggregatePipes(pipes)
	for i := range hoses {
		h := &hoses[i]
		if h.Direction != contract.Egress {
			continue
		}
		if pd := perDst[hoseKey(h.NPG, h.Class, h.Region)]; len(pd) >= 2 {
			*h = hose.SegmentHose(*h, pd)
		}
	}
	// Balance per class so global ingress equals egress (§8).
	regions := topo.RegionsSorted()
	byClass := make(map[contract.Class][]hose.Request)
	var classes []contract.Class
	for _, h := range hoses {
		if _, ok := byClass[h.Class]; !ok {
			classes = append(classes, h.Class)
		}
		byClass[h.Class] = append(byClass[h.Class], h)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var balanced []hose.Request
	for _, c := range classes {
		balanced = append(balanced, hose.BalanceHoses(byClass[c], regions, c)...)
	}
	report.Hoses = balanced
	return report, nil
}

// GrantRequests groups prepared hoses per NPG into granting requests — the
// bridge from the demand pipeline to the online admission service. Hoses
// keep their prepared order inside each request; requests come out sorted by
// NPG (the balancing filler rides along so the assessment matches the batch
// pipeline's competition exactly). Every request opts into the §8
// negotiation fallback, so a partially approved request still gets a
// contract, at the admittable volume of each hose.
func GrantRequests(hoses []hose.Request, opts Options, startUnix int64) []granting.Request {
	byNPG := make(map[contract.NPG]*granting.Request)
	var npgs []contract.NPG
	for _, h := range hoses {
		r := byNPG[h.NPG]
		if r == nil {
			r = &granting.Request{NPG: h.NPG, SLO: opts.SLO[h.NPG], StartUnix: startUnix, Negotiate: true}
			byNPG[h.NPG] = r
			npgs = append(npgs, h.NPG)
		}
		r.Hoses = append(r.Hoses, h)
	}
	sort.Slice(npgs, func(i, j int) bool { return npgs[i] < npgs[j] })
	out := make([]granting.Request, 0, len(npgs))
	for _, npg := range npgs {
		out = append(out, *byNPG[npg])
	}
	return out
}
