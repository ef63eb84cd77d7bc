// RAILS-style counter-proposal search (§8 + PAPERS.md: risk-aware iterated
// local search). Plain Negotiate answers an under-approved hose with the
// admittable volume — "scale the ask down". NegotiateSearch instead explores
// a small neighborhood of alternative asks — QoS class shifts at the full
// rate, then rate shrinks bisected between the admittable volume and the
// request — and prices every candidate with a real re-approval through the
// warm risk path (shared scenario sets, pooled runners), never a cold
// pass. The best fully-approvable alternative becomes the counter-offer.
//
// A candidate is acceptable only if the modified batch fully approves the
// candidate hose AND no other hose that was fully approved before loses that
// status: the search never funds one customer's counter-offer by degrading
// another's grant. Candidates are scored by offered rate (a full-rate class
// shift beats any shrink), tie-broken toward the original class.
//
// The search is deterministic: moves are enumerated in a fixed order and
// every evaluation is a seeded Approve, so the same inputs always produce
// the same counter-offers (the granting service memoizes decisions on that
// property).
package approval

import (
	"entitlement/internal/contract"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// NegotiateOptions configures the counter-proposal search; zero values mean
// the plain admittable-volume proposal (no search).
type NegotiateOptions struct {
	// Enabled turns on the local search; when false NegotiateSearch is
	// exactly Negotiate.
	Enabled bool
	// MaxEvals bounds re-approval evaluations per under-approved hose.
	// Default 8.
	MaxEvals int
}

const (
	// rateSteps bounds the bisection probes between the admittable rate and
	// the request: 4 resolves the admittable boundary to ~6% of the
	// shortfall. Capped by the remaining MaxEvals budget.
	rateSteps = 4
	// maxClassShift bounds how far from the requested QoS class the search
	// wanders, in class steps: one tier in either direction.
	maxClassShift = 2
)

// NegotiateSearch builds counter-proposals for every hose that was not fully
// approved in res (which must be Approve's result for exactly these hoses
// and options). With the search disabled it degrades to Negotiate. Each
// proposal may carry a CounterOffer: an alternative ask the network verified
// it can fully approve without degrading any other hose's full approval.
func NegotiateSearch(topo *topology.Topology, hoses []hose.Request, res *Result, opts Options) ([]CounterProposal, error) {
	proposals := Negotiate(res)
	if !opts.Negotiation.Enabled || len(proposals) == 0 {
		return proposals, nil
	}
	maxEvals := opts.Negotiation.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 8
	}

	// Candidate evaluations share one scenario set per risk seed through a
	// result cache scoped to this search, and the caller's runner pool, but
	// never the caller's result cache: a candidate's demand set is unique to
	// the search, and filling a shared LRU with throwaway entries would evict
	// the batch's real assessments.
	searchOpts := opts
	searchOpts.Negotiation = NegotiateOptions{}
	searchOpts.Risk.Cache = risk.NewResultCache(0)

	// Hose keys already in the batch: a class shift that collides with
	// another hose's flow set cannot be assessed (duplicate demand keys).
	taken := make(map[string]int, len(hoses))
	for i := range hoses {
		taken[hoses[i].Key()] = i
	}

	// evalCandidate re-approves the batch with hoses[idx] replaced by cand.
	evalCandidate := func(idx int, cand hose.Request) (bool, error) {
		mod := make([]hose.Request, len(hoses))
		copy(mod, hoses)
		mod[idx] = cand
		r2, err := Approve(topo, mod, searchOpts)
		if err != nil {
			return false, err
		}
		if !r2.Approvals[idx].FullyApproved {
			return false, nil
		}
		for j := range r2.Approvals {
			if j != idx && res.Approvals[j].FullyApproved && !r2.Approvals[j].FullyApproved {
				return false, nil
			}
		}
		return true, nil
	}

	propAt := 0
	for i := range res.Approvals {
		a := &res.Approvals[i]
		if a.FullyApproved {
			continue
		}
		cp := &proposals[propAt]
		propAt++
		orig := a.Request
		if orig.Rate <= 0 {
			continue
		}
		budget := maxEvals
		var best *hose.Request

		// Move class 1: QoS class shifts at the full requested rate, nearest
		// shift first (higher-priority direction preferred on ties — the
		// offer "buy one class up and your full ask fits"). The first success
		// is rate-maximal, so the class phase stops there.
		for shift := 1; shift <= maxClassShift && best == nil && budget > 0; shift++ {
			for _, c := range []contract.Class{orig.Class - contract.Class(shift), orig.Class + contract.Class(shift)} {
				if !c.Valid() || budget == 0 || best != nil {
					continue
				}
				cand := orig
				cand.Class = c
				if _, clash := taken[cand.Key()]; clash {
					continue
				}
				budget--
				ok, err := evalCandidate(i, cand)
				if err != nil {
					return nil, err
				}
				if ok {
					offer := cand
					best = &offer
				}
			}
		}

		// Move class 2: rate shrink at the original class, bisected over
		// (admittable, requested). Skipped when a full-rate class shift
		// already won — no shrink can offer more.
		if best == nil {
			lo, hi := a.ApprovedRate, orig.Rate
			steps := min(rateSteps, budget)
			for s := 0; s < steps && hi-lo > bwTolApproval(hi); s++ {
				mid := lo + (hi-lo)/2
				cand := orig
				cand.Rate = mid
				budget--
				ok, err := evalCandidate(i, cand)
				if err != nil {
					return nil, err
				}
				if ok {
					lo = mid
					offer := cand
					best = &offer
				} else {
					hi = mid
				}
			}
		}

		if best != nil && (best.Class != orig.Class || best.Rate > a.ApprovedRate+bwTolApproval(a.ApprovedRate)) {
			cp.CounterOffer = best
			cp.Evals = maxEvals - budget
		}
	}
	return proposals, nil
}

// bwTolApproval mirrors risk's bandwidth tolerance for rate comparisons.
func bwTolApproval(b float64) float64 {
	if b < 0 {
		b = -b
	}
	return 1e-9 + 1e-12*b
}
