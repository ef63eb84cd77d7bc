// The result cache. An entry is valid for the topology epoch it was filled at:
// a repeat at that epoch replays without routing anything, and any epoch
// change is a miss followed by a full scenario pass (DESIGN.md §10). The
// sampled scenario set depends on (topology, epoch, seed, scenarios) but not
// on the demands, so entries filled at one epoch with one seed share it
// instead of each re-drawing it.
package risk

import (
	"container/list"
	"maps"
	"math"
	"strconv"
	"sync"

	"entitlement/internal/flow"
	"entitlement/internal/topology"
)

// ResultCache caches full assessments keyed by (topology instance, demands,
// sampling options). Wire it in through Options.Cache.
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

// resultEntry is one cached assessment: its curves, the epoch they hold at,
// and the scenario set they were computed from (possibly shared with other
// entries).
type resultEntry struct {
	id     assessID
	epoch  uint64
	set    *scenarioSet
	curves map[string]*Curve
}

// DefaultResultCacheEntries bounds the cache when NewResultCache is given a
// non-positive max: one entry per distinct in-flight batch shape is plenty
// for a granting service.
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
// rendering of the sampling options and the full demand list.
// Workers is excluded — worker count never changes results.
type assessID struct {
	topo *topology.Topology
	rest string
}

func newAssessID(topo *topology.Topology, demands []flow.Demand, opts Options) assessID {
	b := make([]byte, 0, 64+64*len(demands))
	b = strconv.AppendInt(b, int64(opts.Scenarios), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, opts.Seed, 10)
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
func (c *ResultCache) assess(topo *topology.Topology, demands []flow.Demand, opts Options) *Result {
	id := newAssessID(topo, demands, opts)
	epoch := topo.Epoch()

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[id]; ok {
		if e := el.Value.(*resultEntry); e.epoch == epoch {
			mResultCacheHits.Inc()
			c.lru.MoveToFront(el)
			return &Result{Curves: maps.Clone(e.curves)}
		}
		c.removeLocked(el)
	}
	mResultCacheMisses.Inc()
	set := c.sharedSetLocked(topo, epoch, opts)
	if set == nil {
		set = sampleSet(topo, opts)
	}
	res := assessSet(topo, demands, opts, set)
	c.byKey[id] = c.lru.PushFront(&resultEntry{id: id, epoch: epoch, set: set, curves: maps.Clone(res.Curves)})
	for c.lru.Len() > c.max {
		c.removeLocked(c.lru.Back())
		mResultCacheEvictions.Inc()
	}
	return res
}

// sharedSetLocked returns the scenario set of a cached entry that holds what
// sampleSet(topo, opts) would draw now: same topology at the same epoch, same
// seed and scenario count. A granting service decides every batch with the
// same few seeds, so after the first decision of an epoch no miss samples
// again.
func (c *ResultCache) sharedSetLocked(topo *topology.Topology, epoch uint64, opts Options) *scenarioSet {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*resultEntry)
		if e.id.topo == topo && e.epoch == epoch && e.set.seed == opts.Seed && e.set.scenarios == opts.Scenarios {
			return e.set
		}
	}
	return nil
}

func (c *ResultCache) removeLocked(el *list.Element) {
	delete(c.byKey, el.Value.(*resultEntry).id)
	c.lru.Remove(el)
}
