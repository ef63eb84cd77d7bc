// The scenario engine: the only failure-scenario pass in the tree. It samples
// the scenarios of (topology, Seed) with topology.SampleFailureAt, partitions
// them into classes of bit-for-bit equal failure states, routes one
// representative per class on the worker pool and hands each class to a
// visitor. Visits run one at a time in class order — the forced all-up
// scenario's class first, then by first sampled scenario — whichever worker
// routed the class, so a visitor accumulates without locks and its floats sum
// in the same order at any worker count.
package risk

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"entitlement/internal/flow"
	"entitlement/internal/topology"
)

const defaultScenarios = 500

// State is one distinct failure state of a scenario pass as its visitor sees
// it. Admitted and Net belong to the worker that routed the state and are
// valid only during the visit.
type State struct {
	Failure  *topology.FailureState
	Count    int           // scenarios that drew this state (the forced all-up one included)
	Admitted []float64     // admitted rate of demands[i]
	Net      *flow.Network // residual network after routing the demands
}

// Simulate runs one scenario pass: Options.Scenarios sampled failure
// scenarios plus the forced all-up one, demands routed once per distinct
// state, visit called once per distinct state. The Counts visited sum to
// Scenarios+1. Options.Cache is Assess's and is not consulted.
func Simulate(topo *topology.Topology, demands []flow.Demand, opts Options, visit func(*State)) error {
	if opts.Scenarios <= 0 {
		opts.Scenarios = defaultScenarios
	}
	if err := checkDemandKeys(demands); err != nil {
		return err
	}
	sampleSet(topo, opts).run(topo, demands, opts, visit)
	return nil
}

// scenarioSet is the class partition of the scenarios of one (topology,
// epoch, seed, scenarios). It does not depend on the demands, so a
// ResultCache shares one set between entries.
type scenarioSet struct {
	seed      int64
	scenarios int
	classes   []scenarioClass
}

// scenarioClass is one distinct failure state and how many scenarios drew it.
// The allocator is a pure function of (state, demands, options), so equal
// states admit equal bandwidth and one allocator run serves the class.
type scenarioClass struct {
	down  *topology.FailureState
	count int
}

// sampleSet draws and partitions the scenarios.
func sampleSet(topo *topology.Topology, opts Options) *scenarioSet {
	set := &scenarioSet{seed: opts.Seed, scenarios: opts.Scenarios}
	byHash := make(map[uint64][]int)
	set.add(byHash, topo.AllUp())
	for j := 0; j < opts.Scenarios; j++ {
		set.add(byHash, topo.SampleFailureAt(opts.Seed, j))
	}
	return set
}

// add counts st into the class of its state. States are bucketed by a hash of
// their Down vector (byHash: hash → classes with that hash), but membership
// is decided by comparing the vectors themselves, length included, so a hash
// collision costs a comparison and can never merge two different states.
func (s *scenarioSet) add(byHash map[uint64][]int, st *topology.FailureState) {
	h := hashDown(st.Down)
	for _, c := range byHash[h] {
		if slices.Equal(s.classes[c].down.Down, st.Down) {
			s.classes[c].count++
			return
		}
	}
	byHash[h] = append(byHash[h], len(s.classes))
	s.classes = append(s.classes, scenarioClass{down: st, count: 1})
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

// run routes every class of the set and visits it. Classes fan out over
// Options.Workers goroutines, each holding its own flow.Runner; the shared
// topology is only read.
func (s *scenarioSet) run(topo *topology.Topology, demands []flow.Demand, opts Options, visit func(*State)) {
	// Build the dense adjacency once before fan-out so workers don't race
	// to construct it (Dense is mutex-guarded, but pre-building keeps the
	// parallel section contention-free).
	topo.Dense()

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.classes) {
		workers = len(s.classes)
	}
	// Per-worker Runners come from the caller's pool when it is bound to
	// this topology; otherwise they are built fresh. Either way Allocate
	// fully resets Runner state per state, so pooling cannot change results.
	pool := opts.Pool
	if pool != nil && pool.Topology() != topo {
		pool = nil
	}
	var (
		next, busyNanos atomic.Int64 // next class to route; summed per-worker time, for the utilization gauge
		mu              sync.Mutex
		turn            = sync.NewCond(&mu)
		visited         int // classes visited so far: the class whose turn it is
		wg              sync.WaitGroup
	)
	start := time.Now()
	worker := func() {
		var r *flow.Runner
		if pool != nil {
			r = pool.Get()
			defer pool.Put(r)
		} else {
			r = flow.NewRunner(topo)
		}
		st := State{Net: r.Network()}
		for c := int(next.Add(1)) - 1; c < len(s.classes); c = int(next.Add(1)) - 1 {
			begin := time.Now()
			st.Failure, st.Count = s.classes[c].down, s.classes[c].count
			st.Admitted = r.AllocateInto(st.Failure, demands, flow.AllocateOptions{}, st.Admitted)
			mScenarioSeconds.ObserveSince(begin)
			mu.Lock()
			for visited != c {
				turn.Wait()
			}
			mu.Unlock()
			visit(&st)
			mu.Lock()
			visited++
			turn.Broadcast()
			mu.Unlock()
		}
		busyNanos.Add(time.Since(start).Nanoseconds())
	}
	// The caller is one of the workers, so Workers=1 starts no goroutine.
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	wall := time.Since(start)
	mScenarios.Add(int64(s.scenarios + 1))
	mRoutedStates.Add(int64(len(s.classes)))
	mAssessSeconds.Observe(wall.Seconds())
	if wall > 0 {
		mScenarioRate.Set(float64(s.scenarios+1) / wall.Seconds())
		mWorkerUtil.Set(float64(busyNanos.Load()) / (wall.Seconds() * 1e9 * float64(workers)))
	}
}
