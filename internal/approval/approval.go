// Package approval implements the contract-approval stage of §4.3 and
// Algorithm 2: Hose_Approval converts hose requests into representative pipe
// realizations (via the hose-polytope sampler, standing in for Meta's demand
// generation service [1]), Pipe_Approval assesses each realization with the
// risk simulator while enforcing strict QoS priority, and the hose approvals
// aggregate as "sum up ... and use the minimum of each as the final Hose
// approvals".
//
// The package also implements the §8 bandwidth-negotiation extension: when a
// request cannot be fully approved, Negotiate produces a counter-proposal
// with the admittable volume.
package approval

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"entitlement/internal/contract"
	"entitlement/internal/flow"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// Options configures the approval pipeline.
type Options struct {
	// RepresentativeTMs is the number of polytope realizations sampled per
	// hose ("narrow down infinite possible Pipe realizations into a small
	// set of representative ones"). Default 6.
	RepresentativeTMs int
	// SLOs maps each NPG to its contract SLO target; NPGs without an entry
	// use DefaultSLO.
	SLOs map[contract.NPG]contract.SLO
	// DefaultSLO applies when an NPG has no explicit target. Default 0.99.
	DefaultSLO contract.SLO
	// Risk configures the Monte-Carlo assessment per realization, including
	// Risk.Workers, the scenario-evaluation parallelism (0 = all cores):
	// every Pipe_Approval pass fans its failure scenarios out over that many
	// goroutines with byte-identical results.
	Risk risk.Options
	// JointRealizations samples each (NPG, class)'s hoses jointly — full
	// traffic matrices satisfying the egress AND ingress constraints at
	// once (Equation 1) via the Sinkhorn sampler — instead of independent
	// per-hose draws. Joint draws avoid counting the same traffic once for
	// its egress hose and again for its ingress hose.
	JointRealizations bool
	// PlannedTopology, when set, is the backbone after planned changes
	// (new links, decommissions) landing during the entitlement period;
	// ChangeFraction is the fraction of the period spent on it. Approval
	// then guarantees the SLO across both phases (§4.3: the process
	// "analyzes possible network failures ... and changes (e.g., new
	// links) in advance").
	PlannedTopology *topology.Topology
	ChangeFraction  float64
	// Seed drives TM sampling.
	Seed int64
	// Negotiation configures the RAILS-style counter-proposal search that
	// NegotiateSearch runs for under-approved hoses (see rails.go). The zero
	// value keeps the plain admittable-volume proposals.
	Negotiation NegotiateOptions
}

func (o Options) withDefaults() Options {
	if o.RepresentativeTMs <= 0 {
		o.RepresentativeTMs = 6
	}
	if o.DefaultSLO == 0 {
		o.DefaultSLO = 0.99
	}
	return o
}

func (o Options) slo(npg contract.NPG) float64 {
	if s, ok := o.SLOs[npg]; ok {
		return float64(s)
	}
	return float64(o.DefaultSLO)
}

// HoseApproval is the outcome for one hose request.
type HoseApproval struct {
	Request hose.Request
	// ApprovedRate is the bandwidth the network guarantees at the NPG's SLO:
	// min over realizations of the sum of approved pipe volumes.
	ApprovedRate float64
	// FullyApproved reports whether every pipe of every realization met the
	// SLO at its full requested volume (the Algorithm 2 batch rule: "only
	// when 100% of the flow meets SLO, the batch of flows is approved").
	FullyApproved bool
}

// Fraction returns approved/requested (1 for a zero-rate hose).
func (a *HoseApproval) Fraction() float64 {
	if a.Request.Rate <= 0 {
		return 1
	}
	return a.ApprovedRate / a.Request.Rate
}

// Result is the full approval outcome.
type Result struct {
	Approvals []HoseApproval
	// ByKey indexes approvals by hose key.
	ByKey map[string]*HoseApproval
}

// Approve runs the Hose_Approval pipeline over all hose requests. Egress
// hoses realize as pipes from the hose region to sampled destinations,
// ingress hoses as pipes from sampled sources. Realization k of every hose
// is assessed together (one network snapshot per k), so concurrent demand is
// modeled; classes compete with strict priority inside the allocator, which
// is Algorithm 2's per-class loop in allocator form.
func Approve(topo *topology.Topology, hoses []hose.Request, opts Options) (*Result, error) {
	o := opts.withDefaults()
	if len(hoses) == 0 {
		return &Result{ByKey: map[string]*HoseApproval{}}, nil
	}
	regions := topo.RegionsSorted()
	for i := range hoses {
		if !topo.HasRegion(hoses[i].Region) {
			return nil, fmt.Errorf("approval: hose %s references unknown region %s", hoses[i].Key(), hoses[i].Region)
		}
	}

	// Realization generators: independent per-hose samplers by default, or
	// joint per-(NPG, class) Sinkhorn samplers when requested and the group
	// has both directions.
	samplers := make([]*hose.Sampler, len(hoses))
	jointOf := make([]int, len(hoses)) // hose index → joint group, or -1
	var jointSamplers []*hose.JointSampler
	var jointMembers [][]int // group → hose indexes
	for i := range jointOf {
		jointOf[i] = -1
	}
	if o.JointRealizations {
		type groupKey struct {
			npg   contract.NPG
			class contract.Class
		}
		groups := make(map[groupKey][]int)
		var order []groupKey
		for i := range hoses {
			k := groupKey{hoses[i].NPG, hoses[i].Class}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], i)
		}
		for _, k := range order {
			members := groups[k]
			groupHoses := make([]hose.Request, len(members))
			hasEg, hasIn := false, false
			for j, idx := range members {
				groupHoses[j] = hoses[idx]
				if hoses[idx].Direction == contract.Egress {
					hasEg = true
				} else {
					hasIn = true
				}
			}
			if !hasEg || !hasIn {
				continue // joint sampling needs both directions; fall back
			}
			js, err := hose.NewJointSampler(groupHoses, o.Seed+int64(len(jointSamplers))*104729)
			if err != nil {
				return nil, fmt.Errorf("approval: joint sampler for %s/%s: %w", k.npg, k.class, err)
			}
			g := len(jointSamplers)
			jointSamplers = append(jointSamplers, js)
			jointMembers = append(jointMembers, members)
			for _, idx := range members {
				jointOf[idx] = g
			}
		}
	}
	for i := range hoses {
		if jointOf[i] < 0 {
			samplers[i] = hose.NewSampler(hoses[i], regions, o.Seed+int64(i)*7919)
		}
	}

	// Per hose, per realization: approved volume sum and full-approval flag.
	perTM := make([][]float64, len(hoses))
	fullOK := make([]bool, len(hoses))
	for i := range fullOK {
		fullOK[i] = true
		perTM[i] = make([]float64, 0, o.RepresentativeTMs)
	}

	hoseKeys := make([]string, len(hoses))
	for i := range hoses {
		hoseKeys[i] = hoses[i].Key()
	}

	for k := 0; k < o.RepresentativeTMs; k++ {
		demands := make([]flow.Demand, 0, len(hoses)*4)
		// pipeOwner[d] lists the hose indexes owning demands[d] (a joint pipe
		// counts toward its source's egress hose and destination's ingress
		// hose).
		pipeOwner := make([][]int, 0, len(hoses)*4)
		addDemand := func(key string, src, dst topology.Region, rate float64, class contract.Class, owners ...int) {
			demands = append(demands, flow.Demand{
				Key: key, Src: src, Dst: dst, Rate: rate, Class: int(class),
			})
			pipeOwner = append(pipeOwner, owners)
		}
		tmTag := "#" + strconv.Itoa(k) + "/"
		for i := range hoses {
			if jointOf[i] >= 0 {
				continue // produced by the joint sampler below
			}
			h := &hoses[i]
			keyPrefix := hoseKeys[i] + tmTag
			tm := samplers[i].Representative()
			for _, dst := range sortedRegions(tm.Rates) {
				rate := tm.Rates[dst]
				if rate <= 0 {
					continue
				}
				src, dstR := h.Region, dst
				if h.Direction == contract.Ingress {
					src, dstR = dst, h.Region
				}
				addDemand(keyPrefix+string(src)+">"+string(dstR), src, dstR, rate, h.Class, i)
			}
		}
		for g, js := range jointSamplers {
			members := jointMembers[g]
			// Index this group's hoses by (region, direction).
			byRegionDir := make(map[topology.Region][2]int) // [egress idx+1, ingress idx+1]
			for _, idx := range members {
				h := &hoses[idx]
				v := byRegionDir[h.Region]
				if h.Direction == contract.Egress {
					v[0] = idx + 1
				} else {
					v[1] = idx + 1
				}
				byRegionDir[h.Region] = v
			}
			tm := js.Sample(1)
			class := hoses[members[0]].Class
			npg := hoses[members[0]].NPG
			keyPrefix := "joint/" + string(npg) + "/" + class.String() + tmTag
			for _, p := range tm.Pipes(npg, class) {
				var owners []int
				if v := byRegionDir[p.Src]; v[0] > 0 {
					owners = append(owners, v[0]-1)
				}
				if v := byRegionDir[p.Dst]; v[1] > 0 {
					owners = append(owners, v[1]-1)
				}
				addDemand(keyPrefix+string(p.Src)+">"+string(p.Dst), p.Src, p.Dst, p.Rate, class, owners...)
			}
		}
		riskOpts := o.Risk
		riskOpts.Seed = o.Risk.Seed + int64(k)
		var res *risk.Result
		var err error
		if o.PlannedTopology != nil {
			res, err = risk.AssessPhased(topo, o.PlannedTopology, o.ChangeFraction, demands, riskOpts)
		} else {
			res, err = risk.Assess(topo, demands, riskOpts)
		}
		if err != nil {
			return nil, err
		}
		volume := make([]float64, len(hoses))
		for di, d := range demands {
			for _, i := range pipeOwner[di] {
				slo := o.slo(hoses[i].NPG)
				guaranteed := res.GuaranteedRate(d.Key, slo)
				if guaranteed > d.Rate {
					guaranteed = d.Rate
				}
				volume[i] += guaranteed
				// Relative tolerance: an absolute epsilon is meaningless
				// against 1e11-scale rates (ordinary float accumulation in
				// the water-filling loop exceeds it).
				if guaranteed < d.Rate-bwTolApproval(d.Rate) {
					fullOK[i] = false
				}
			}
		}
		for i := range hoses {
			perTM[i] = append(perTM[i], volume[i])
		}
	}

	result := &Result{
		Approvals: make([]HoseApproval, len(hoses)),
		ByKey:     make(map[string]*HoseApproval, len(hoses)),
	}
	for i := range hoses {
		approved := math.Inf(1)
		for _, v := range perTM[i] {
			if v < approved {
				approved = v
			}
		}
		if math.IsInf(approved, 1) {
			approved = 0
		}
		if approved > hoses[i].Rate {
			approved = hoses[i].Rate
		}
		result.Approvals[i] = HoseApproval{
			Request:       hoses[i],
			ApprovedRate:  approved,
			FullyApproved: fullOK[i] && approved >= hoses[i].Rate-bwTolApproval(hoses[i].Rate),
		}
		result.ByKey[hoseKeys[i]] = &result.Approvals[i]
	}
	return result, nil
}

func sortedRegions(m map[topology.Region]float64) []topology.Region {
	out := make([]topology.Region, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ApprovalFraction summarizes a result: total approved rate over total
// requested rate — the Figure 22 y-axis.
func (r *Result) ApprovalFraction() float64 {
	var req, app float64
	for i := range r.Approvals {
		req += r.Approvals[i].Request.Rate
		app += r.Approvals[i].ApprovedRate
	}
	if req == 0 {
		return 1
	}
	return app / req
}

// FractionByDirection splits ApprovalFraction into egress and ingress.
func (r *Result) FractionByDirection() (egress, ingress float64) {
	var reqE, appE, reqI, appI float64
	for i := range r.Approvals {
		a := &r.Approvals[i]
		if a.Request.Direction == contract.Egress {
			reqE += a.Request.Rate
			appE += a.ApprovedRate
		} else {
			reqI += a.Request.Rate
			appI += a.ApprovedRate
		}
	}
	egress, ingress = 1, 1
	if reqE > 0 {
		egress = appE / reqE
	}
	if reqI > 0 {
		ingress = appI / reqI
	}
	return egress, ingress
}

// --- Bandwidth negotiation (§8) ------------------------------------------

// CounterProposal is the automated answer to a rejected or under-approved
// request: the admittable volume plus alternative regions with headroom.
type CounterProposal struct {
	Hose hose.Request
	// AdmittableRate is the volume the network can guarantee today.
	AdmittableRate float64
	// Shortfall = requested − admittable.
	Shortfall float64
	// AlternativeRegions lists other regions (best first) whose hoses of
	// the same class were fully approved — candidates for "alternative
	// demand patterns (e.g. using different regions)".
	AlternativeRegions []topology.Region
	// CounterOffer, when non-nil, is the best alternative ask the RAILS
	// search (NegotiateSearch) verified the network can fully approve: the
	// original hose at a shifted QoS class, a shrunk rate, or both.
	CounterOffer *hose.Request
	// Evals is the number of re-approval evaluations the search spent on
	// this hose (0 when the search was disabled or found nothing).
	Evals int
}

// Negotiate builds counter-proposals for every hose that was not fully
// approved. Alternative regions are ranked by their approval fraction among
// same-class hoses in the result.
func Negotiate(res *Result) []CounterProposal {
	var out []CounterProposal
	for i := range res.Approvals {
		a := &res.Approvals[i]
		if a.FullyApproved {
			continue
		}
		cp := CounterProposal{
			Hose:           a.Request,
			AdmittableRate: a.ApprovedRate,
			Shortfall:      a.Request.Rate - a.ApprovedRate,
		}
		type cand struct {
			region topology.Region
			frac   float64
		}
		var cands []cand
		for j := range res.Approvals {
			b := &res.Approvals[j]
			if b.Request.Region == a.Request.Region || b.Request.Class != a.Request.Class ||
				b.Request.Direction != a.Request.Direction {
				continue
			}
			cands = append(cands, cand{b.Request.Region, b.Fraction()})
		}
		sort.Slice(cands, func(x, y int) bool {
			if cands[x].frac != cands[y].frac {
				return cands[x].frac > cands[y].frac
			}
			return cands[x].region < cands[y].region
		})
		seen := map[topology.Region]bool{}
		for _, c := range cands {
			if c.frac < 1-1e-9 || seen[c.region] {
				continue
			}
			seen[c.region] = true
			cp.AlternativeRegions = append(cp.AlternativeRegions, c.region)
		}
		out = append(out, cp)
	}
	return out
}
