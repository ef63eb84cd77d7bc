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
// options), so an assessment partitions its scenario slots into classes of
// bit-for-bit equal states, routes one representative per class and copies
// its admitted column to the class's other slots (see scenarioSet). Classes
// are embarrassingly parallel: each representative writes only its own slot
// of the per-demand sample columns, so the result is byte-identical for any
// worker count (Options.Workers; 0 = GOMAXPROCS, 1 = serial).
package risk

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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

// AvailabilityAt returns the fraction of scenarios in which at least b
// bandwidth was admitted (within relative tolerance).
func (c *Curve) AvailabilityAt(b float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Count samples >= b: first index with sorted[i] >= b.
	tol := bwTol(b)
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] >= b-tol })
	return float64(len(c.sorted)-i) / float64(len(c.sorted))
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
	// on the order of 1/(1-a) scenarios). Default 500.
	Scenarios int
	// IncludeAllUp forces the no-failure scenario into the sample set,
	// which stabilizes the top of the curve. Default true via Assess.
	SkipAllUp bool
	Seed      int64
	// Workers is the scenario-evaluation parallelism: 0 uses
	// runtime.GOMAXPROCS(0), 1 forces the serial path. Results are
	// byte-identical for every value because every scenario's state is a
	// pure function of (Seed, scenario) and each routed state owns a
	// dedicated output slot.
	Workers int
	Alloc   flow.AllocateOptions

	// States, when non-nil, supplies the sampled failure scenarios instead
	// of drawing them: States[j] is used for sampled scenario j and must
	// have length Scenarios. SampleStates produces slot-for-slot exactly
	// what Assess would draw itself, so injecting its output is
	// byte-identical to sampling — this is how the granting service reuses
	// one scenario set across many admission decisions.
	States []*topology.FailureState
	// StatesFor, consulted when States is nil, resolves a scenario set for
	// the (topology, options) pair about to be assessed — the hook a
	// scenario cache plugs in. It composes through AssessPhased and the
	// approval pipeline, which vary Seed (and topology) per pass: the
	// callback sees the effective per-pass options. Returning nil falls
	// back to sampling.
	StatesFor func(topo *topology.Topology, opts Options) []*topology.FailureState
	// Pool, when non-nil and bound to the assessed topology, supplies the
	// per-worker flow.Runners instead of constructing fresh ones, so a
	// long-running service reuses allocator scratch across assessments.
	// Pools bound to a different topology are ignored (AssessPhased
	// assesses two topologies with one Options value).
	Pool *flow.RunnerPool

	// Cache, when non-nil, routes the assessment through the incremental
	// result cache: a repeat of a cached (topology, demands, options)
	// assessment replays without routing anything, and after topology
	// mutations only the scenarios the mutation delta dirties are
	// re-simulated, the rest spliced — byte-identical to a full recompute.
	// When set, States and StatesFor are ignored (the cache owns sampling).
	Cache *ResultCache
}

// SampleStates precomputes the failure scenarios Assess would sample for
// these options: scenario j is topology.SampleFailureAt(Seed, j), exactly
// what the assessment loop draws. The forced all-up scenario is not included
// (it is not sampled). The returned slice can be passed as Options.States to
// any number of assessments over the same topology with the same
// Seed/Scenarios, with byte-identical results.
//
// The draw is decomposable: link i's down-bit in scenario j depends only on
// (Seed, j, i) and the link's own failure inputs, never on the rest of the
// topology. That is what makes post-mutation delta re-assessment possible —
// a mutation perturbs only the touched links' bits (see ResultCache).
func SampleStates(topo *topology.Topology, opts Options) []*topology.FailureState {
	if opts.Scenarios <= 0 {
		opts.Scenarios = 500
	}
	states := make([]*topology.FailureState, opts.Scenarios)
	for j := range states {
		states[j] = topo.SampleFailureAt(opts.Seed, j)
	}
	return states
}

// Result holds per-pipe availability curves from one assessment.
type Result struct {
	Curves map[string]*Curve // keyed by flow.Demand.Key
	// Resimulated and Spliced report how many scenario slots were evaluated
	// anew vs. spliced unchanged from a ResultCache entry. Outside cache
	// use, Resimulated covers every slot and Spliced is 0.
	Resimulated int
	Spliced     int
	// Routed is the number of allocator runs behind the Resimulated slots:
	// one per distinct failure state among them, so Resimulated/Routed is
	// the dedupe factor of the class partition.
	Routed int
}

// Assess runs the Monte-Carlo risk simulation: for every sampled failure
// scenario it routes all demands (honoring QoS priority) and records each
// demand's admitted bandwidth. Demands passed as background (e.g. already
// approved higher-priority classes) compete for capacity and appear in the
// result like any other; callers pick the keys they care about.
//
// Scenarios fan out over Options.Workers goroutines, each holding its own
// flow.Runner; the shared topology is only read.
func Assess(topo *topology.Topology, demands []flow.Demand, opts Options) (*Result, error) {
	if len(demands) == 0 {
		return &Result{Curves: map[string]*Curve{}}, nil
	}
	if opts.Scenarios <= 0 {
		opts.Scenarios = 500
	}
	if err := checkDemandKeys(demands); err != nil {
		return nil, err
	}
	if opts.Cache != nil {
		return opts.Cache.assess(topo, demands, opts)
	}
	states := opts.States
	if states == nil && opts.StatesFor != nil {
		states = opts.StatesFor(topo, opts)
	}
	if states == nil {
		states = SampleStates(topo, opts)
	}
	if len(states) != opts.Scenarios {
		return nil, fmt.Errorf("risk: precomputed States length %d does not match Scenarios %d (topology epoch %d)",
			len(states), opts.Scenarios, topo.Epoch())
	}

	offset, total := slotLayout(opts)
	cols := newColumns(len(demands), total)
	routed := evalSlots(topo, demands, opts, &scenarioSet{states: states}, cols, offset, allSlots(total))
	return buildResult(demands, cols, total, 0, routed), nil
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

// slotLayout returns the scenario index space: slot 0 is the forced all-up
// scenario (unless skipped); sampled scenario j owns slot j+offset.
func slotLayout(opts Options) (offset, total int) {
	if !opts.SkipAllUp {
		offset = 1
	}
	return offset, opts.Scenarios + offset
}

// newColumns allocates per-demand sample columns backed by one flat slice.
func newColumns(demands, total int) [][]float64 {
	cols := make([][]float64, demands)
	flat := make([]float64, demands*total)
	for i := range cols {
		cols[i] = flat[i*total : (i+1)*total]
	}
	return cols
}

func allSlots(total int) []int {
	slots := make([]int, total)
	for i := range slots {
		slots[i] = i
	}
	return slots
}

// buildResult folds sample columns into availability curves.
func buildResult(demands []flow.Demand, cols [][]float64, resimulated, spliced, routed int) *Result {
	res := &Result{
		Curves:      make(map[string]*Curve, len(demands)),
		Resimulated: resimulated,
		Spliced:     spliced,
		Routed:      routed,
	}
	for i, d := range demands {
		res.Curves[d.Key] = NewCurve(cols[i])
	}
	return res
}

// scenarioSet is the sampled failure states of one (topology, epoch, seed,
// scenarios), plus — once a pass over all of them has computed it — their
// class partition.
type scenarioSet struct {
	states []*topology.FailureState
	// part partitions all of states, or is nil when that is not known (not yet
	// computed, or dropped because patchStates changed bits). A partition is
	// never written after it is built, so clones share it.
	part *partition
	// owners counts the ResultCache entries holding this set; the states of a
	// set with more than one owner are immutable, and patchStates clones the
	// set before writing them.
	owners int
}

// partition groups failure states into classes of bit-for-bit equal Down
// vectors. The allocator is a pure function of (state, demands, options), so
// equal states admit equal bandwidth and one allocator run serves a class.
type partition struct {
	classOf []int32 // classOf[j] is the class of states[j], for the classified j
	reps    []int32 // reps[c] is the first classified j in class c
}

// downBits returns a state's Down vector; a nil state (everything up,
// disabled links included) has none, so it never equals a sampled state.
func downBits(st *topology.FailureState) []bool {
	if st == nil {
		return nil
	}
	return st.Down
}

// classify partitions states[j] for the listed j. States are bucketed by a
// hash of their Down vector, but membership is decided by comparing the
// vectors themselves (length included), so a hash collision costs a
// comparison and can never merge two different states.
func classify(states []*topology.FailureState, listed []int) *partition {
	p := &partition{classOf: make([]int32, len(states))}
	byHash := make(map[uint64][]int32) // Down hash → classes with that hash
	for _, j := range listed {
		down := downBits(states[j])
		h := hashDown(down)
		c := int32(-1)
		for _, cand := range byHash[h] {
			if slices.Equal(downBits(states[p.reps[cand]]), down) {
				c = cand
				break
			}
		}
		if c < 0 {
			c = int32(len(p.reps))
			p.reps = append(p.reps, int32(j))
			byHash[h] = append(byHash[h], c)
		}
		p.classOf[j] = c
	}
	return p
}

// hashDown is FNV-1a over a Down vector and its length.
func hashDown(down []bool) uint64 {
	h := uint64(14695981039346656037) ^ uint64(len(down))
	for _, d := range down {
		if d {
			h ^= 1
		}
		h *= 1099511628211
	}
	return h
}

// clone returns a single-owner copy whose states can be patched without
// disturbing the entries still holding s.
func (s *scenarioSet) clone() *scenarioSet {
	c := &scenarioSet{states: make([]*topology.FailureState, len(s.states)), part: s.part, owners: 1}
	for j, st := range s.states {
		c.states[j] = &topology.FailureState{Down: slices.Clone(st.Down)}
	}
	return c
}

// evalSlots evaluates the given scenario slots, writing each demand's
// admitted bandwidth into cols[di][slot], and returns the number of allocator
// runs it took: the slots are grouped by failure-state class, one
// representative per class is routed, and its column is copied to the class's
// other listed slots. Slots not listed keep their prior column values (that
// is the splice). The forced all-up slot joins the sampled class it equals bit
// for bit, if any. Representatives fan out over Options.Workers goroutines,
// each holding its own flow.Runner; the shared topology is only read.
func evalSlots(topo *topology.Topology, demands []flow.Demand, opts Options, set *scenarioSet, cols [][]float64, offset int, slots []int) int {
	// Build the dense adjacency once before fan-out so workers don't race
	// to construct it (Dense is mutex-guarded, but pre-building keeps the
	// parallel section contention-free).
	topo.Dense()

	// The partition of the listed sampled slots: the set's own when it has
	// one, else computed here — and kept on the set when this pass lists every
	// sampled slot, so later passes over the same states skip the hashing.
	part := set.part
	if part == nil {
		listed := make([]int, 0, len(slots))
		for _, slot := range slots {
			if slot >= offset {
				listed = append(listed, slot-offset)
			}
		}
		part = classify(set.states, listed)
		if len(listed) == len(set.states) {
			set.part = part
		}
	}

	// repSlot[c] is the first listed slot of class c; the extra last class is
	// the all-up state's own when no sampled state equals it.
	var allUp *topology.FailureState
	allUpClass := len(part.reps)
	repSlot := make([]int, len(part.reps)+1)
	for c := range repSlot {
		repSlot[c] = -1
	}
	classOf := func(slot int) int {
		if slot < offset {
			return allUpClass
		}
		return int(part.classOf[slot-offset])
	}
	reps := make([]int, 0, len(repSlot))
	for _, slot := range slots {
		if slot < offset {
			allUp = topo.AllUp()
			for c, j := range part.reps {
				if slices.Equal(downBits(set.states[j]), allUp.Down) {
					allUpClass = c
					break
				}
			}
		}
		if c := classOf(slot); repSlot[c] < 0 {
			repSlot[c] = slot
			reps = append(reps, slot)
		}
	}

	route := func(r *flow.Runner, adm []float64, slot int) []float64 {
		begin := time.Now()
		state := allUp
		if slot >= offset {
			state = set.states[slot-offset]
		}
		adm = r.AllocateInto(state, demands, opts.Alloc, adm)
		for di := range demands {
			cols[di][slot] = adm[di]
		}
		mScenarioSeconds.ObserveSince(begin)
		return adm
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reps) {
		workers = len(reps)
	}
	// Per-worker Runners come from the caller's pool when it is bound to
	// this topology; otherwise they are built fresh. Either way Allocate
	// fully resets Runner state per scenario, so pooling cannot change
	// results.
	pool := opts.Pool
	if pool != nil && pool.Topology() != topo {
		pool = nil
	}
	getRunner := func() *flow.Runner {
		if pool != nil {
			return pool.Get()
		}
		return flow.NewRunner(topo)
	}
	putRunner := func(r *flow.Runner) {
		if pool != nil {
			pool.Put(r)
		}
	}
	assessStart := time.Now()
	var busyNanos int64 // summed per-worker solve time, for the utilization gauge
	if workers <= 1 {
		r := getRunner()
		var adm []float64
		for _, slot := range reps {
			adm = route(r, adm, slot)
		}
		putRunner(r)
		busyNanos = time.Since(assessStart).Nanoseconds()
	} else {
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				workerStart := time.Now()
				r := getRunner()
				var adm []float64
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= len(reps) {
						break
					}
					adm = route(r, adm, reps[i])
				}
				putRunner(r)
				atomic.AddInt64(&busyNanos, time.Since(workerStart).Nanoseconds())
			}()
		}
		wg.Wait()
	}
	for _, col := range cols {
		for _, slot := range slots {
			col[slot] = col[repSlot[classOf(slot)]]
		}
	}
	wall := time.Since(assessStart)
	mScenarios.Add(int64(len(slots)))
	mRoutedStates.Add(int64(len(reps)))
	mAssessSeconds.Observe(wall.Seconds())
	if wall > 0 && workers > 0 {
		mScenarioRate.Set(float64(len(slots)) / wall.Seconds())
		mWorkerUtil.Set(float64(busyNanos) / (wall.Seconds() * 1e9 * float64(workers)))
	}
	return len(reps)
}

// MeetsSLO reports whether the demand's full requested rate is available at
// the SLO target under the assessment.
func (r *Result) MeetsSLO(d flow.Demand, slo float64) bool {
	c, ok := r.Curves[d.Key]
	if !ok {
		return false
	}
	return c.RateAtAvailability(slo) >= d.Rate-bwTol(d.Rate)
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
		opts.Scenarios = 500
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
		merged.Resimulated += res.Resimulated
		merged.Spliced += res.Spliced
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
