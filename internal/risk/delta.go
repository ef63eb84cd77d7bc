// Incremental re-assessment: the ResultCache keeps each assessment's sampled
// failure states and per-scenario admitted-bandwidth columns, and uses the
// topology's mutation journal (topology.DeltaSince) to re-simulate only the
// scenarios a mutation actually dirties, splicing every other scenario's
// result from cache. Because scenario sampling is decomposable (one hash draw
// per (seed, scenario, link)), patching the touched links' bits in the cached
// states reproduces exactly the states a fresh SampleStates would draw — so a
// spliced assessment is byte-identical to a full recompute.
//
// The sampled states depend on (topology, epoch, seed, scenarios) but not on
// the demands, so entries filled at the same epoch with the same seed share
// one scenarioSet (states plus class partition) instead of each re-drawing
// it; an entry clones the set only when a delta is about to patch it.
//
// Dirty rules per mutation class (see DESIGN.md §10 for the derivation):
//
//   - region add: nothing dirty — no link changed, routing unaffected.
//   - sampling change (FailProb, SRLG CutProb, Disabled toggle): redraw the
//     touched links' bits; a scenario is dirty only when a bit flips.
//   - capacity change on link L: dirty where L is up (a down link's capacity
//     cannot influence routing).
//   - link add: draw the new link's bits; dirty where the new link is up (a
//     down link carries nothing, so those scenarios splice).
//   - the forced all-up slot is re-simulated on every link-touching delta
//     (one scenario; not worth a finer rule).
//
// The dirty slots are then routed one representative per class of equal
// patched states (evalSlots), so a delta never routes more states than a
// cold pass over the same slots would.
package risk

import (
	"container/list"
	"math"
	"strconv"
	"sync"

	"entitlement/internal/flow"
	"entitlement/internal/topology"
)

// ResultCache caches full assessments — sampled states plus per-scenario
// results — keyed by (topology instance, demands, sampling options), and
// re-assesses incrementally after topology mutations. Wire it in through
// Options.Cache.
//
// The cache is safe for concurrent assess calls, but like every epoch-keyed
// cache it assumes the topology is not mutated concurrently with an
// assessment.
type ResultCache struct {
	mu    sync.Mutex
	max   int
	lru   *list.List // front = most recently used; values are *resultEntry
	byKey map[assessID]*list.Element
}

// resultEntry is one cached assessment: the exact sampled states it was
// computed from — possibly shared with other entries, and patched (after a
// clone if shared) on delta re-assessment, so set always holds what
// SampleStates(topo, seed) would draw at epoch — and the per-demand, per-slot
// admitted-bandwidth columns.
type resultEntry struct {
	id     assessID
	epoch  uint64
	seed   int64
	offset int
	total  int
	set    *scenarioSet
	cols   [][]float64
}

// DefaultResultCacheEntries bounds the cache when NewResultCache is given a
// non-positive max: one entry per distinct in-flight batch shape is plenty
// for a granting service, and entries hold O(scenarios × links) state.
const DefaultResultCacheEntries = 64

// NewResultCache creates a result cache holding at most max assessments
// (<= 0 means DefaultResultCacheEntries). Least-recently-used entries are
// evicted.
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		max = DefaultResultCacheEntries
	}
	return &ResultCache{max: max, lru: list.New(), byKey: make(map[assessID]*list.Element)}
}

// Len reports the number of cached assessments (for tests and stats).
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// assessID is the identity of an assessment: the topology instance plus a
// rendering of the sampling and allocation options and the full demand list.
// Workers is excluded — worker count never changes results.
type assessID struct {
	topo *topology.Topology
	rest string
}

func newAssessID(topo *topology.Topology, demands []flow.Demand, opts Options) assessID {
	b := make([]byte, 0, 64+64*len(demands))
	b = strconv.AppendInt(b, int64(opts.Scenarios), 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, opts.SkipAllUp)
	b = append(b, '|')
	b = strconv.AppendInt(b, opts.Seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(opts.Alloc.Rounds), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(opts.Alloc.MaxPathLen), 16)
	b = append(b, '|')
	for _, d := range demands {
		b = append(b, d.Key...)
		b = append(b, 0)
		b = append(b, d.Src...)
		b = append(b, 0)
		b = append(b, d.Dst...)
		b = append(b, 0)
		b = strconv.AppendUint(b, math.Float64bits(d.Rate), 16)
		b = append(b, 0)
		b = strconv.AppendInt(b, int64(d.Class), 10)
		b = append(b, 0x1f)
	}
	return assessID{topo: topo, rest: string(b)}
}

// assess is the Options.Cache entry point, reached from Assess with
// Scenarios defaulted and demands validated.
func (c *ResultCache) assess(topo *topology.Topology, demands []flow.Demand, opts Options) (*Result, error) {
	// The cache owns sampling and re-entry: inner assessments must not
	// consult caller-supplied state sources or recurse into the cache.
	opts.Cache = nil
	opts.States = nil
	opts.StatesFor = nil
	id := newAssessID(topo, demands, opts)

	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[id]
	if !ok {
		mResultCacheMisses.Inc()
		return c.fillLocked(id, demands, opts), nil
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*resultEntry)
	now := topo.Epoch()
	if e.epoch == now {
		// Pure replay: nothing changed, nothing is routed.
		mResultCacheHits.Inc()
		mDeltaSpliced.Add(int64(e.total))
		return buildResult(demands, e.cols, 0, e.total, 0), nil
	}
	delta, ok := topo.DeltaSince(e.epoch)
	if !ok {
		// Journal truncated past the entry's epoch: recompute wholesale.
		mResultCacheMisses.Inc()
		c.removeLocked(el)
		return c.fillLocked(id, demands, opts), nil
	}
	mResultCacheHits.Inc()
	if !delta.TouchesLinks() {
		// Region-only (or empty) delta: every scenario splices.
		e.epoch = now
		mDeltaSpliced.Add(int64(e.total))
		return buildResult(demands, e.cols, 0, e.total, 0), nil
	}
	dirty := patchStates(topo, e, delta)
	slots := make([]int, 0, len(dirty))
	for slot, d := range dirty {
		if d {
			slots = append(slots, slot)
		}
	}
	routed := evalSlots(topo, demands, opts, e.set, e.cols, e.offset, slots)
	e.epoch = now
	mDeltaResimulated.Add(int64(len(slots)))
	mDeltaSpliced.Add(int64(e.total - len(slots)))
	return buildResult(demands, e.cols, len(slots), e.total-len(slots), routed), nil
}

// fillLocked runs a full assessment, caches it, and returns the result.
func (c *ResultCache) fillLocked(id assessID, demands []flow.Demand, opts Options) *Result {
	topo := id.topo
	epoch := topo.Epoch()
	set := c.sharedSetLocked(topo, epoch, opts)
	if set == nil {
		set = &scenarioSet{states: SampleStates(topo, opts), owners: 1}
	}
	offset, total := slotLayout(opts)
	cols := newColumns(len(demands), total)
	routed := evalSlots(topo, demands, opts, set, cols, offset, allSlots(total))
	e := &resultEntry{
		id: id, epoch: epoch, seed: opts.Seed,
		offset: offset, total: total, set: set, cols: cols,
	}
	c.byKey[id] = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		c.removeLocked(c.lru.Back())
		mResultCacheEvictions.Inc()
	}
	mDeltaResimulated.Add(int64(total))
	return buildResult(demands, cols, total, 0, routed)
}

// sharedSetLocked returns, with one more owner, the scenario set of a cached
// entry that already holds what SampleStates(topo, opts) would draw now: same
// topology at the same epoch, same seed and scenario count (an entry's set is
// always current as of its epoch). A granting service decides every batch
// with the same few seeds, so after the first decision of an epoch no miss
// samples again.
func (c *ResultCache) sharedSetLocked(topo *topology.Topology, epoch uint64, opts Options) *scenarioSet {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*resultEntry)
		if e.id.topo == topo && e.epoch == epoch && e.seed == opts.Seed && len(e.set.states) == opts.Scenarios {
			e.set.owners++
			return e.set
		}
	}
	return nil
}

func (c *ResultCache) removeLocked(el *list.Element) {
	e := el.Value.(*resultEntry)
	e.set.owners--
	delete(c.byKey, e.id)
	c.lru.Remove(el)
}

// patchStates updates the entry's failure states for the mutation delta and
// returns the per-slot dirty mask. Untouched links keep their original bits,
// which equal a fresh draw's bits because the per-link hash inputs are
// unchanged; touched links are redrawn with LinkDownAt, the same predicate
// SampleFailureAt evaluates. A delta that can change bits first takes the
// entry off a shared set; one that did change bits drops the set's partition,
// so evalSlots classifies the dirty slots from the patched states.
func patchStates(topo *topology.Topology, e *resultEntry, delta *topology.Delta) []bool {
	dirty := make([]bool, e.total)
	if e.offset == 1 {
		// The forced all-up state is recomputed by evalSlots from the live
		// topology; any link-touching delta may change it (Disabled bits) or
		// its routing (capacities, new links).
		dirty[0] = true
	}
	if len(delta.AddedLinks) > 0 || len(delta.SampleTouched) > 0 {
		if e.set.owners > 1 {
			e.set.owners--
			e.set = e.set.clone()
		}
		states := e.set.states
		nl := topo.NumLinks()
		for _, st := range states {
			for len(st.Down) < nl {
				st.Down = append(st.Down, false)
			}
		}
		changed := len(delta.AddedLinks) > 0
		for _, id := range delta.AddedLinks {
			for j, st := range states {
				down := topo.LinkDownAt(e.seed, j, id)
				st.Down[id] = down
				if !down {
					dirty[j+e.offset] = true
				}
			}
		}
		for _, id := range delta.SampleTouched {
			for j, st := range states {
				down := topo.LinkDownAt(e.seed, j, id)
				if down != st.Down[id] {
					st.Down[id] = down
					dirty[j+e.offset] = true
					changed = true
				}
			}
		}
		if changed {
			e.set.part = nil
		}
	}
	for _, id := range delta.CapTouched {
		for j, st := range e.set.states {
			if !st.Down[id] {
				dirty[j+e.offset] = true
			}
		}
	}
	return dirty
}
