package hose

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"entitlement/internal/contract"
	"entitlement/internal/stats"
	"entitlement/internal/topology"
)

// This file samples full traffic matrices from the GENERAL hose model of
// Equation 1 — the joint polytope where every region's egress row sum and
// ingress column sum are simultaneously constrained:
//
//	Σ_src f(src,dst) ≤ ingress[dst]   and   Σ_dst f(src,dst) ≤ egress[src]
//
// The per-hose Sampler treats each hose independently, which is fine for
// coverage experiments on one hose; approval over a whole service's hoses
// benefits from realizations that respect both directions at once. Sampling
// uses iterative proportional fitting (Sinkhorn scaling): draw a random
// positive seed matrix, then alternately scale rows and columns toward the
// constraint vector until both are (approximately) tight.

// FullTM is a complete traffic matrix over regions.
type FullTM struct {
	Rates map[topology.Region]map[topology.Region]float64
}

// Rate returns f(src, dst) (0 when absent).
func (tm FullTM) Rate(src, dst topology.Region) float64 { return tm.Rates[src][dst] }

// Pipes flattens the matrix into pipe requests for the given flow set.
func (tm FullTM) Pipes(npg contract.NPG, class contract.Class) []PipeRequest {
	var srcs []topology.Region
	for src := range tm.Rates {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	var out []PipeRequest
	for _, src := range srcs {
		var dsts []topology.Region
		for dst := range tm.Rates[src] {
			dsts = append(dsts, dst)
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		for _, dst := range dsts {
			if r := tm.Rates[src][dst]; r > 0 {
				out = append(out, PipeRequest{NPG: npg, Class: class, Src: src, Dst: dst, Rate: r})
			}
		}
	}
	return out
}

// JointSampler draws full TMs satisfying a set of egress and ingress hose
// constraints for one (NPG, class).
type JointSampler struct {
	regions []topology.Region
	egress  map[topology.Region]float64
	ingress map[topology.Region]float64
	rng     *rand.Rand
}

// NewJointSampler builds a sampler from the hoses of one flow set. Regions
// without an egress (ingress) hose get a zero constraint in that direction.
// At least one egress and one ingress hose are required.
func NewJointSampler(hoses []Request, seed int64) (*JointSampler, error) {
	js := &JointSampler{
		egress:  make(map[topology.Region]float64),
		ingress: make(map[topology.Region]float64),
		rng:     rand.New(rand.NewSource(seed)),
	}
	seen := make(map[topology.Region]bool)
	var npg contract.NPG
	var class contract.Class
	for i, h := range hoses {
		if i == 0 {
			npg, class = h.NPG, h.Class
		} else if h.NPG != npg || h.Class != class {
			return nil, fmt.Errorf("hose: joint sampler got mixed flow sets (%s/%s vs %s/%s)",
				npg, class, h.NPG, h.Class)
		}
		if h.Rate < 0 {
			return nil, fmt.Errorf("hose: negative hose rate %v", h.Rate)
		}
		if h.Direction == contract.Egress {
			js.egress[h.Region] += h.Rate
		} else {
			js.ingress[h.Region] += h.Rate
		}
		if !seen[h.Region] {
			seen[h.Region] = true
			js.regions = append(js.regions, h.Region)
		}
	}
	if len(js.egress) == 0 || len(js.ingress) == 0 {
		return nil, errors.New("hose: joint sampler needs both egress and ingress hoses")
	}
	sort.Slice(js.regions, func(i, j int) bool { return js.regions[i] < js.regions[j] })
	return js, nil
}

// sinkhornIters bounds the alternating scaling; the scaling converges
// geometrically, so a few dozen rounds give constraint error well below the
// tolerance used by callers.
const sinkhornIters = 60

// Sample draws one full TM: a random positive matrix is scaled until every
// row sum ≤ its egress constraint and every column sum ≤ its ingress
// constraint, with the binding direction tight (utilization 1 at the
// polytope surface). scale in (0, 1] shrinks the target sums for interior
// points.
func (js *JointSampler) Sample(scale float64) FullTM {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	n := len(js.regions)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				continue // no self traffic
			}
			// Exponential draws make the realization diverse; Dirichlet-like
			// after normalization.
			m[i][j] = js.rng.ExpFloat64() + 1e-9
		}
	}
	rowTarget := make([]float64, n)
	colTarget := make([]float64, n)
	var totalEg, totalIn float64
	for i, r := range js.regions {
		rowTarget[i] = js.egress[r] * scale
		colTarget[i] = js.ingress[r] * scale
		totalEg += rowTarget[i]
		totalIn += colTarget[i]
	}
	// A TM's grand total satisfies both Σrows and Σcols; aim for the
	// feasible common total (the smaller side) by shrinking the larger
	// side's targets proportionally — this is the §8 balancing applied at
	// sampling time.
	if totalEg > 0 && totalIn > 0 {
		switch {
		case totalEg > totalIn:
			for i := range rowTarget {
				rowTarget[i] *= totalIn / totalEg
			}
		case totalIn > totalEg:
			for i := range colTarget {
				colTarget[i] *= totalEg / totalIn
			}
		}
	}
	for iter := 0; iter < sinkhornIters; iter++ {
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += m[i][j]
			}
			if sum > 0 && rowTarget[i] >= 0 {
				f := rowTarget[i] / sum
				for j := 0; j < n; j++ {
					m[i][j] *= f
				}
			}
		}
		for j := 0; j < n; j++ {
			sum := 0.0
			for i := 0; i < n; i++ {
				sum += m[i][j]
			}
			if sum > 0 && colTarget[j] >= 0 {
				f := colTarget[j] / sum
				for i := 0; i < n; i++ {
					m[i][j] *= f
				}
			}
		}
	}
	// Final row pass may have been disturbed by the column pass; clamp any
	// residual overshoot so the sample is strictly feasible.
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += m[i][j]
		}
		if limit := js.egress[js.regions[i]] * scale; sum > limit && sum > 0 {
			f := limit / sum
			for j := 0; j < n; j++ {
				m[i][j] *= f
			}
		}
	}
	tm := FullTM{Rates: make(map[topology.Region]map[topology.Region]float64, n)}
	for i, src := range js.regions {
		row := make(map[topology.Region]float64, n-1)
		for j, dst := range js.regions {
			if i != j && m[i][j] > 0 {
				row[dst] = m[i][j]
			}
		}
		tm.Rates[src] = row
	}
	return tm
}

// Interior draws a strictly interior TM (random utilization, biased toward
// realistic partial load like Sampler.Interior).
func (js *JointSampler) Interior() FullTM {
	u := js.rng.Float64()
	return js.Sample(0.05 + 0.95*stats.Clamp(u*u, 0, 1))
}

// Regions returns the sampler's region universe.
func (js *JointSampler) Regions() []topology.Region {
	out := make([]topology.Region, len(js.regions))
	copy(out, js.regions)
	return out
}
