// Package hose implements the contract-representation layer of §4.2: the
// pipe-based and hose-based demand models, the segmented-hose enhancement
// with the paper's two-segment greedy algorithm (Algorithm 1), reserved
// capacity accounting (the Figure 6 example: 900G pipe / 3600G hose / 1800G
// segmented), representative traffic-matrix sampling from the hose polytope,
// and the hose-coverage metric used in §7.2 and §7.3.
//
// It also implements the §8 "unbalanced ingress and egress hoses"
// preprocessing (BalanceHoses).
package hose

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"entitlement/internal/contract"
	"entitlement/internal/stats"
	"entitlement/internal/timeseries"
	"entitlement/internal/topology"
)

// PipeRequest is a source/destination-pair demand — the SLI metric format
// (NPG, QoS, src_region, dst_region, bandwidth) of §4.1.
type PipeRequest struct {
	NPG   contract.NPG
	Class contract.Class
	Src   topology.Region
	Dst   topology.Region
	Rate  float64 // bits per second
}

// Key returns a stable identity for the pipe.
func (p PipeRequest) Key() string {
	return fmt.Sprintf("%s/%s/%s>%s", p.NPG, p.Class, p.Src, p.Dst)
}

// Segment is one piece of a segmented hose: a subset of target regions and
// the fraction Alpha of the hose constraint reserved for it (Equation 2).
type Segment struct {
	Targets []topology.Region
	Alpha   float64
}

// Request is a hose-based entitlement request: the aggregate ingress or
// egress rate of one (NPG, class, region). A nil Segments slice means the
// general hose model; otherwise the segments partition the target regions
// and their alphas sum to 1 (the paper: "the fractions sum up to 1 ...
// avoids over-provisioning").
type Request struct {
	NPG       contract.NPG
	Class     contract.Class
	Region    topology.Region
	Direction contract.Direction
	Rate      float64
	Segments  []Segment
}

// Key returns a stable identity for the hose.
func (h *Request) Key() string {
	return fmt.Sprintf("%s/%s/%s/%s", h.NPG, h.Class, h.Region, h.Direction)
}

// Validate checks segmentation invariants against the full target set.
func (h *Request) Validate(targets []topology.Region) error {
	if h.Rate < 0 {
		return fmt.Errorf("hose: negative rate %v", h.Rate)
	}
	if len(h.Segments) == 0 {
		return nil
	}
	seen := make(map[topology.Region]bool)
	alphaSum := 0.0
	for _, s := range h.Segments {
		if s.Alpha <= 0 || s.Alpha >= 1 {
			return fmt.Errorf("hose: segment alpha %v out of (0,1)", s.Alpha)
		}
		alphaSum += s.Alpha
		for _, r := range s.Targets {
			if seen[r] {
				return fmt.Errorf("hose: region %s in multiple segments", r)
			}
			seen[r] = true
		}
	}
	if math.Abs(alphaSum-1) > 1e-6 {
		return fmt.Errorf("hose: segment alphas sum to %v, want 1", alphaSum)
	}
	for _, r := range targets {
		if r != h.Region && !seen[r] {
			return fmt.Errorf("hose: region %s not covered by any segment", r)
		}
	}
	return nil
}

// AggregatePipes converts pipe requests into general hose requests by
// aggregating egress per (NPG, class, src) and ingress per (NPG, class, dst)
// — the Pipe→Hose conversion of §4.2 (Figure 6(c): 300+100+250+250 = 900G
// egress for A).
func AggregatePipes(pipes []PipeRequest) []Request {
	type key struct {
		npg    contract.NPG
		class  contract.Class
		region topology.Region
		dir    contract.Direction
	}
	acc := make(map[key]float64)
	var order []key
	add := func(k key, rate float64) {
		if _, ok := acc[k]; !ok {
			order = append(order, k)
		}
		acc[k] += rate
	}
	for _, p := range pipes {
		add(key{p.NPG, p.Class, p.Src, contract.Egress}, p.Rate)
		add(key{p.NPG, p.Class, p.Dst, contract.Ingress}, p.Rate)
	}
	out := make([]Request, 0, len(order))
	for _, k := range order {
		out = append(out, Request{
			NPG: k.npg, Class: k.class, Region: k.region,
			Direction: k.dir, Rate: acc[k],
		})
	}
	return out
}

// --- Reserved-capacity accounting (the Figure 6 comparison) --------------

// PipeReserved returns the capacity the network must reserve under the
// pipe-based model: the sum of every pipe's rate (Figure 6(b): 900G).
func PipeReserved(pipes []PipeRequest) float64 {
	s := 0.0
	for _, p := range pipes {
		s += p.Rate
	}
	return s
}

// GeneralHoseReserved returns the worst-case reservation for a general hose
// toward numTargets possible destinations: Rate × numTargets (Figure 6(c):
// 900G × 4 = 3600G).
func GeneralHoseReserved(h *Request, numTargets int) float64 {
	return h.Rate * float64(numTargets)
}

// SegmentedReserved returns the reservation for a segmented hose: for each
// segment, Alpha×Rate to each of its targets (Figure 6(d): 0.444×900×2 +
// 0.555×900×2 ≈ 400×2 + 500×2 = 1800G).
func SegmentedReserved(h *Request) float64 {
	s := 0.0
	for _, seg := range h.Segments {
		s += h.Rate * seg.Alpha * float64(len(seg.Targets))
	}
	return s
}

// --- Segmentation: ratios and Algorithm 1 --------------------------------

// RatioSeries computes R(S, t) = Σ_{dst∈S} F(dst,t) / Σ_{dst∈N} F(dst,t)
// (Equation 3) over the per-destination series. Instants where the total is
// zero are skipped.
func RatioSeries(perDst map[topology.Region]*timeseries.Series, s []topology.Region) []float64 {
	if len(perDst) == 0 {
		return nil
	}
	inS := make(map[topology.Region]bool, len(s))
	for _, r := range s {
		inS[r] = true
	}
	// Iterate destinations in sorted order: the sums below are float
	// accumulations, and map-iteration order would make the low bits of the
	// ratios (and everything downstream: segment alphas, sampled TMs,
	// borderline approval flags) vary run to run.
	dsts := make([]topology.Region, 0, len(perDst))
	for r := range perDst {
		dsts = append(dsts, r)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	n := perDst[dsts[0]].Len()
	out := make([]float64, 0, n)
	for t := 0; t < n; t++ {
		total, sel := 0.0, 0.0
		for _, r := range dsts {
			v := perDst[r].Values[t]
			total += v
			if inS[r] {
				sel += v
			}
		}
		if total == 0 {
			continue
		}
		out = append(out, sel/total)
	}
	return out
}

// AlphaMinus returns α−(S) = min_t R(S, t) (Equation 3). It returns 0 when
// there is no data.
func AlphaMinus(perDst map[topology.Region]*timeseries.Series, s []topology.Region) float64 {
	rs := RatioSeries(perDst, s)
	if len(rs) == 0 {
		return 0
	}
	return stats.Min(rs)
}

// AlphaPlus returns α+(S) = max_t R(S, t).
func AlphaPlus(perDst map[topology.Region]*timeseries.Series, s []topology.Region) float64 {
	rs := RatioSeries(perDst, s)
	if len(rs) == 0 {
		return 0
	}
	return stats.Max(rs)
}

// TwoSegments runs Algorithm 1: it ranks destination regions by decreasing
// single-node α− and greedily grows the first segment while α−(SEG) ≤ 0.5,
// meeting the "smallest set S such that α−(S) > 0.5" optimality condition
// (the split ratio scales volume reduction as α·(1−α), maximized near 0.5).
//
// The returned segments carry alphas (α−(SEG) bounded away from the
// endpoints, and its complement) that sum to 1. An error is returned when
// there are fewer than two destinations.
func TwoSegments(perDst map[topology.Region]*timeseries.Series) (seg1, seg2 Segment, err error) {
	if len(perDst) < 2 {
		return Segment{}, Segment{}, errors.New("hose: need at least two destinations to segment")
	}
	// Line 2-3: per-node α−.
	type ranked struct {
		region topology.Region
		r      float64
	}
	nodes := make([]ranked, 0, len(perDst))
	for r := range perDst {
		nodes = append(nodes, ranked{region: r, r: AlphaMinus(perDst, []topology.Region{r})})
	}
	// Line 4: sort non-increasing by α− (ties by name for determinism).
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].r != nodes[j].r {
			return nodes[i].r > nodes[j].r
		}
		return nodes[i].region < nodes[j].region
	})
	// Lines 5-9: greedy growth while α−(SEG) ≤ 0.5.
	var seg []topology.Region
	for _, n := range nodes {
		if AlphaMinus(perDst, seg) <= 0.5 {
			seg = append(seg, n.region)
		} else {
			break
		}
	}
	// Keep at least one region on each side.
	if len(seg) == len(perDst) {
		seg = seg[:len(seg)-1]
	}
	if len(seg) == 0 {
		seg = []topology.Region{nodes[0].region}
	}
	// Line 10: complement.
	inSeg := make(map[topology.Region]bool, len(seg))
	for _, r := range seg {
		inSeg[r] = true
	}
	var rest []topology.Region
	for r := range perDst {
		if !inSeg[r] {
			rest = append(rest, r)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })

	// The α+ of a segment is the share of the hose it may need at peak; using
	// it keeps every observed TM feasible under the segmented constraints.
	a := stats.Clamp(AlphaPlus(perDst, seg), 0.05, 0.95)
	return Segment{Targets: seg, Alpha: a}, Segment{Targets: rest, Alpha: 1 - a}, nil
}

// NSegments generalizes Algorithm 1 to n segments by recursively splitting
// the segment with the largest Alpha×|Targets| reservation. n must be >= 2;
// fewer segments than requested may be returned when targets run out.
func NSegments(perDst map[topology.Region]*timeseries.Series, n int) ([]Segment, error) {
	if n < 2 {
		return nil, errors.New("hose: NSegments needs n >= 2")
	}
	s1, s2, err := TwoSegments(perDst)
	if err != nil {
		return nil, err
	}
	segs := []Segment{s1, s2}
	for len(segs) < n {
		// Pick the most expensive splittable segment.
		best, bestIdx := -1.0, -1
		for i, s := range segs {
			if len(s.Targets) < 2 {
				continue
			}
			cost := s.Alpha * float64(len(s.Targets))
			if cost > best {
				best, bestIdx = cost, i
			}
		}
		if bestIdx < 0 {
			break
		}
		target := segs[bestIdx]
		sub := make(map[topology.Region]*timeseries.Series, len(target.Targets))
		for _, r := range target.Targets {
			if ser, ok := perDst[r]; ok {
				sub[r] = ser
			}
		}
		a, b, err := TwoSegments(sub)
		if err != nil {
			break
		}
		// Children split the parent's alpha.
		a.Alpha *= target.Alpha
		b.Alpha = target.Alpha - a.Alpha
		segs = append(segs[:bestIdx], segs[bestIdx+1:]...)
		segs = append(segs, a, b)
	}
	return segs, nil
}

// SegmentHose returns a copy of the general hose h with the two-segment
// split applied, or h unchanged (general hose) when segmentation is not
// possible.
func SegmentHose(h Request, perDst map[topology.Region]*timeseries.Series) Request {
	s1, s2, err := TwoSegments(perDst)
	if err != nil {
		return h
	}
	h.Segments = []Segment{s1, s2}
	return h
}

// --- Traffic-matrix sampling and coverage (§7.2, §7.3) -------------------

// TM is one realization of a hose: the per-destination rates of a single
// source hose (the paper evaluates egress hoses; §4.2 "for simplicity, we
// only consider egress traffic here").
type TM struct {
	Rates map[topology.Region]float64
}

// Total returns the TM's aggregate rate.
func (tm TM) Total() float64 {
	s := 0.0
	for _, v := range tm.Rates {
		s += v
	}
	return s
}

// Dominates reports whether tm admits every flow of other: component-wise
// tm ≥ other. A representative TM set "covers" the polytope points it
// dominates (the [24] coverage notion).
func (tm TM) Dominates(other TM) bool {
	for r, v := range other.Rates {
		if tm.Rates[r] < v-1e-9 {
			return false
		}
	}
	return true
}

// Sampler draws TMs from a hose's polytope.
type Sampler struct {
	Hose    Request
	Targets []topology.Region
	rng     *rand.Rand
}

// NewSampler builds a sampler for the hose over the given target regions
// (the hose's own region is excluded automatically).
func NewSampler(h Request, targets []topology.Region, seed int64) *Sampler {
	clean := make([]topology.Region, 0, len(targets))
	for _, r := range targets {
		if r != h.Region {
			clean = append(clean, r)
		}
	}
	sort.Slice(clean, func(i, j int) bool { return clean[i] < clean[j] })
	return &Sampler{Hose: h, Targets: clean, rng: rand.New(rand.NewSource(seed))}
}

// Representative draws a maximal TM: every hose (and segment) constraint is
// tight, so the TM sits on the polytope's dominant surface — the property
// representative TMs need to cover interior points.
func (s *Sampler) Representative() TM {
	return s.draw(1)
}

// Interior draws a TM strictly inside the polytope, with utilization factor
// drawn so points concentrate toward realistic (partially loaded) traffic.
func (s *Sampler) Interior() TM {
	u := math.Pow(s.rng.Float64(), 1.5)
	return s.draw(u)
}

func (s *Sampler) draw(scale float64) TM {
	tm := TM{Rates: make(map[topology.Region]float64, len(s.Targets))}
	if len(s.Targets) == 0 {
		return tm
	}
	if len(s.Hose.Segments) == 0 {
		split := stats.Dirichlet(s.rng, len(s.Targets), 1)
		for i, r := range s.Targets {
			tm.Rates[r] = s.Hose.Rate * scale * split[i]
		}
		return tm
	}
	for _, seg := range s.Hose.Segments {
		targets := make([]topology.Region, 0, len(seg.Targets))
		for _, r := range seg.Targets {
			if r != s.Hose.Region {
				targets = append(targets, r)
			}
		}
		if len(targets) == 0 {
			continue
		}
		split := stats.Dirichlet(s.rng, len(targets), 1)
		for i, r := range targets {
			tm.Rates[r] = s.Hose.Rate * seg.Alpha * scale * split[i]
		}
	}
	return tm
}

// TMsForCoverage draws representatives one at a time until the running set
// covers at least target of the sample set, returning the count used (or
// maxTMs if the target was never reached). This implements the Figure 20
// experiment: TMs needed to achieve 75% coverage.
func TMsForCoverage(s *Sampler, samples []TM, target float64, maxTMs int) int {
	if target <= 0 {
		return 0
	}
	covered := make([]bool, len(samples))
	nCovered := 0
	for k := 1; k <= maxTMs; k++ {
		rep := s.Representative()
		for i, sm := range samples {
			if !covered[i] && rep.Dominates(sm) {
				covered[i] = true
				nCovered++
			}
		}
		if float64(nCovered) >= target*float64(len(samples)) {
			return k
		}
	}
	return maxTMs
}

// --- Ingress/egress balancing (§8) ---------------------------------------

// DummyNPG tags the balancing filler demand.
const DummyNPG contract.NPG = "dummy-balance"

// BalanceHoses equalizes total ingress and egress demand: the shortage
// direction is inflated with a dummy service spread evenly across that
// direction's regions ("this delta of the demand is modeled as a dummy
// service and is evenly attributed to all regions", §8). The input is not
// modified; the balanced slice is returned.
func BalanceHoses(hoses []Request, regions []topology.Region, class contract.Class) []Request {
	egress, ingress := totalByDirection(hoses)
	out := make([]Request, len(hoses))
	copy(out, hoses)
	delta := egress - ingress
	if math.Abs(delta) < 1e-9 || len(regions) == 0 {
		return out
	}
	dir := contract.Egress
	if delta > 0 {
		dir = contract.Ingress
	}
	per := math.Abs(delta) / float64(len(regions))
	for _, r := range regions {
		out = append(out, Request{
			NPG: DummyNPG, Class: class, Region: r, Direction: dir, Rate: per,
		})
	}
	return out
}

// totalByDirection sums hose rates per direction.
func totalByDirection(hoses []Request) (egress, ingress float64) {
	for _, h := range hoses {
		if h.Direction == contract.Egress {
			egress += h.Rate
		} else {
			ingress += h.Rate
		}
	}
	return egress, ingress
}
