// Package flow implements the routing and admission engine the approval
// pipeline runs on: a priority-aware multi-commodity progressive-filling
// allocator that routes each pipe demand by repeated Dijkstra over the
// residual capacity of a (possibly failed) topology, and so determines how
// much of each demand the network can admit under a given failure state.
//
// The allocator is the substitute for the LP-based engines Meta runs in
// production: it routes each QoS class in strict priority order (c1 before
// c2, §4.3) and water-fills demands within a class, which yields the
// approximately max-min fair admissions the availability curves need.
//
// The hot path (Allocate inside the Monte-Carlo risk loop) runs entirely on
// the topology's dense CSR view (topology.Dense) with reusable int-indexed
// scratch buffers instead of map[Region] state: Dijkstra uses epoch-stamped
// visited arrays (no per-call clearing), the heap is a plain slice, and a
// Runner lets one goroutine reuse every buffer across scenarios. A Network
// (and therefore a Runner) is NOT safe for concurrent use; give each worker
// its own.
package flow

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"entitlement/internal/topology"
)

// Network is a mutable view of residual capacity over a topology under a
// failure state. A nil state means all links are up.
//
// Network owns reusable path-computation scratch, so a single Network must
// not be shared between goroutines. Use one Network (or Runner) per worker.
type Network struct {
	Topo     *topology.Topology
	State    *topology.FailureState
	residual []float64

	dense *topology.Dense
	sp    spScratch
}

// NewNetwork creates a residual network with full link capacities for every
// operational link and zero for failed ones.
func NewNetwork(t *topology.Topology, state *topology.FailureState) *Network {
	n := &Network{Topo: t}
	n.Reset(state)
	return n
}

// Reset re-initializes the network for a new failure state, reusing every
// internal buffer. It also picks up structural topology changes (new links
// or regions) made since the last reset.
func (n *Network) Reset(state *topology.FailureState) {
	n.State = state
	n.dense = n.Topo.Dense()
	nl := n.Topo.NumLinks()
	if cap(n.residual) < nl {
		n.residual = make([]float64, nl)
	}
	n.residual = n.residual[:nl]
	for i := 0; i < nl; i++ {
		if state.IsUp(i) {
			n.residual[i] = n.Topo.Links[i].Capacity
		} else {
			n.residual[i] = 0
		}
	}
	n.sp.ensure(n.Topo.NumRegions())
}

// Residual returns the remaining capacity of link id.
func (n *Network) Residual(id int) float64 { return n.residual[id] }

// Use consumes amount capacity along the path (a sequence of link IDs).
// It panics if any link lacks the capacity; callers must bound the amount by
// PathBottleneck first.
func (n *Network) Use(path []int, amount float64) {
	for _, id := range path {
		if n.residual[id] < amount-1e-9 {
			panic(fmt.Sprintf("flow: overcommit on link %d: %v < %v", id, n.residual[id], amount))
		}
		n.residual[id] -= amount
		if n.residual[id] < 0 {
			n.residual[id] = 0
		}
	}
}

// PathBottleneck returns the minimum residual along the path.
func (n *Network) PathBottleneck(path []int) float64 {
	if len(path) == 0 {
		return 0
	}
	m := n.residual[path[0]]
	for _, id := range path[1:] {
		if n.residual[id] < m {
			m = n.residual[id]
		}
	}
	return m
}

// --- Dijkstra over dense indexes -----------------------------------------

// spScratch holds the reusable Dijkstra state: epoch-stamped seen/done
// arrays avoid clearing between runs, the heap is a plain slice of values
// (no container/heap boxing), and the output path is written into a
// reusable buffer.
type spScratch struct {
	dist     []float64
	prevLink []int32
	seen     []uint64 // epoch when dist/prevLink became valid
	done     []uint64 // epoch when the region was finalized
	epoch    uint64

	heap spHeap
	path []int // last computed path, forward link IDs (reused)
}

func (s *spScratch) ensure(regions int) {
	if len(s.dist) >= regions {
		return
	}
	s.dist = make([]float64, regions)
	s.prevLink = make([]int32, regions)
	s.seen = make([]uint64, regions)
	s.done = make([]uint64, regions)
}

// spNode is one heap entry: a region index at a tentative distance.
type spNode struct {
	dist   float64
	region int32
}

// spHeap is a slice-backed binary min-heap on dist (lazy deletion).
type spHeap []spNode

func (h *spHeap) push(n spNode) {
	*h = append(*h, n)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist <= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *spHeap) pop() spNode {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old = old[:last]
	*h = old
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && old[l].dist < old[small].dist {
			small = l
		}
		if r < last && old[r].dist < old[small].dist {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// shortestPathDense runs Dijkstra from src to dst over dense region indexes,
// using only links with residual capacity left. On success the path is left
// in n.sp.path (valid until the next shortest-path computation on this
// Network).
func (n *Network) shortestPathDense(src, dst int32) (metric float64, ok bool) {
	s := &n.sp
	s.path = s.path[:0]
	if src == dst {
		return 0, true
	}
	if src < 0 || dst < 0 {
		return 0, false
	}
	d := n.dense
	links := n.Topo.Links
	s.epoch++
	s.heap = s.heap[:0]
	s.dist[src] = 0
	s.seen[src] = s.epoch
	s.heap.push(spNode{dist: 0, region: src})
	for len(s.heap) > 0 {
		cur := s.heap.pop()
		u := cur.region
		if s.done[u] == s.epoch {
			continue
		}
		s.done[u] = s.epoch
		if u == dst {
			break
		}
		du := s.dist[u]
		for _, id := range d.OutLinks[d.OutStart[u]:d.OutStart[u+1]] {
			if n.residual[id] <= 0 {
				continue
			}
			to := d.DstIdx[id]
			nd := du + links[id].Metric
			if s.seen[to] != s.epoch || nd < s.dist[to] {
				s.dist[to] = nd
				s.seen[to] = s.epoch
				s.prevLink[to] = id
				s.heap.push(spNode{dist: nd, region: to})
			}
		}
	}
	if s.done[dst] != s.epoch {
		return 0, false
	}
	// Reconstruct in reverse, then flip in place.
	at := dst
	for at != src {
		id := s.prevLink[at]
		s.path = append(s.path, int(id))
		at = d.SrcIdx[id]
	}
	for i, j := 0, len(s.path)-1; i < j; i, j = i+1, j-1 {
		s.path[i], s.path[j] = s.path[j], s.path[i]
	}
	return s.dist[dst], true
}

// --- Multi-commodity allocator --------------------------------------------

// Demand is one pipe's bandwidth request for the allocator.
type Demand struct {
	Key      string // caller-defined identity (e.g. "Ads/c2/A->B")
	Src, Dst topology.Region
	Rate     float64 // requested bits/s
	Class    int     // QoS class; lower allocates first (c1=0 ... c4=3)
}

// Allocation reports the admitted rate per demand key.
type Allocation struct {
	Admitted map[string]float64
	// LinkUsed holds the total allocated bandwidth per link ID.
	LinkUsed []float64
}

// AdmittedFraction returns admitted/requested for the demand, or 1 for a
// zero-rate demand.
func (a *Allocation) AdmittedFraction(d Demand) float64 {
	if d.Rate <= 0 {
		return 1
	}
	return a.Admitted[d.Key] / d.Rate
}

// AllocateOptions tunes the progressive-filling allocator.
type AllocateOptions struct {
	// Rounds is the number of water-filling rounds per class; more rounds
	// produce finer max-min fairness at linear cost. Default 16.
	Rounds int
}

// pathCache remembers a demand's last shortest path within one allocation.
// Because link metrics are static and links only leave the residual graph as
// they saturate (capacity is never returned mid-allocation), a cached path
// whose links all retain residual capacity is still a shortest path — so
// Dijkstra re-runs only when the cached path loses a link.
type pathCache struct {
	path  []int
	valid bool
	src   int32
	dst   int32
}

// Runner owns a Network plus per-allocation scratch, so repeated Allocate
// calls over one topology (the Monte-Carlo scenario loop) allocate almost
// nothing. A Runner is NOT safe for concurrent use; create one per worker.
type Runner struct {
	topo      *topology.Topology
	net       *Network
	order     []int
	remaining []float64
	caches    []pathCache
}

// NewRunner creates an allocator runner over the topology.
func NewRunner(t *topology.Topology) *Runner {
	return &Runner{topo: t, net: NewNetwork(t, nil)}
}

// Network exposes the runner's residual network for inspection after an
// allocation (e.g. residual-capacity probes).
func (r *Runner) Network() *Network { return r.net }

// Allocate routes demands over the runner's topology under the failure
// state, respecting strict priority between classes and approximate max-min
// fairness within a class. The returned Allocation is freshly allocated and
// remains valid after subsequent calls; all internal scratch is reused.
func (r *Runner) Allocate(state *topology.FailureState, demands []Demand, opts AllocateOptions) *Allocation {
	start := time.Now()
	defer func() {
		mAllocs.Inc()
		mAllocSeconds.ObserveSince(start)
	}()
	admitted := make([]float64, len(demands))
	r.allocateCore(state, demands, opts, admitted)
	t := r.topo
	alloc := &Allocation{Admitted: make(map[string]float64, len(demands)), LinkUsed: make([]float64, t.NumLinks())}
	for i := range demands {
		if admitted[i] > 0 {
			alloc.Admitted[demands[i].Key] += admitted[i]
		}
	}
	for i := range alloc.LinkUsed {
		if state.IsUp(i) {
			alloc.LinkUsed[i] = t.Links[i].Capacity - r.net.Residual(i)
		}
	}
	return alloc
}

// AllocateInto is the map-free form of Allocate for the Monte-Carlo scenario
// loop: the admitted rate of demands[i] is written to admitted[i] (the slice
// is grown as needed and returned), with no Admitted map and no LinkUsed
// build. The admitted rates are identical to Allocate's on the same inputs.
func (r *Runner) AllocateInto(state *topology.FailureState, demands []Demand, opts AllocateOptions, admitted []float64) []float64 {
	start := time.Now()
	defer func() {
		mAllocs.Inc()
		mAllocSeconds.ObserveSince(start)
	}()
	if cap(admitted) < len(demands) {
		admitted = make([]float64, len(demands))
	}
	admitted = admitted[:len(demands)]
	for i := range admitted {
		admitted[i] = 0
	}
	r.allocateCore(state, demands, opts, admitted)
	return admitted
}

// allocateCore runs the class-ordered water-filling allocation, accumulating
// each demand's admitted rate into admitted (indexed by demand position).
func (r *Runner) allocateCore(state *topology.FailureState, demands []Demand, opts AllocateOptions, admitted []float64) {
	if opts.Rounds <= 0 {
		opts.Rounds = 16
	}
	r.net.Reset(state)
	t := r.topo

	// Order demand indexes by class, preserving input order within a class
	// (what the former map-of-slices grouping produced).
	if cap(r.order) < len(demands) {
		r.order = make([]int, len(demands))
		r.remaining = make([]float64, len(demands))
		r.caches = make([]pathCache, len(demands))
	}
	r.order = r.order[:len(demands)]
	r.remaining = r.remaining[:len(demands)]
	r.caches = r.caches[:len(demands)]
	for i := range r.order {
		r.order[i] = i
	}
	sort.SliceStable(r.order, func(a, b int) bool {
		return demands[r.order[a]].Class < demands[r.order[b]].Class
	})

	for lo := 0; lo < len(r.order); {
		hi := lo
		class := demands[r.order[lo]].Class
		for hi < len(r.order) && demands[r.order[hi]].Class == class {
			hi++
		}
		run := r.order[lo:hi]
		lo = hi

		maxRem := 0.0
		for _, di := range run {
			d := &demands[di]
			r.remaining[di] = d.Rate
			if d.Rate > maxRem {
				maxRem = d.Rate
			}
			c := &r.caches[di]
			c.valid = false
			c.src = int32(t.RegionIndex(d.Src))
			c.dst = int32(t.RegionIndex(d.Dst))
		}
		if maxRem <= 0 {
			continue
		}
		quantum := maxRem / float64(opts.Rounds)
		for progress := true; progress; {
			progress = false
			for _, di := range run {
				if r.remaining[di] <= 1e-6 {
					continue
				}
				want := math.Min(r.remaining[di], quantum)
				pushed := r.pushDemand(di, want)
				if pushed > 1e-9 {
					r.remaining[di] -= pushed
					admitted[di] += pushed
					progress = true
				}
			}
		}
	}
}

// pushDemand routes up to want bits/s of demand di along shortest available
// paths, possibly splitting across several, and returns the amount placed.
// The demand's cached path is reused while every link on it retains residual
// capacity; Dijkstra re-runs only when the cached path loses a link.
func (r *Runner) pushDemand(di int, want float64) float64 {
	n := r.net
	c := &r.caches[di]
	placed := 0.0
	for placed < want-1e-9 {
		if c.valid {
			for _, id := range c.path {
				if n.residual[id] <= 0 {
					c.valid = false
					break
				}
			}
		}
		if !c.valid {
			if _, ok := n.shortestPathDense(c.src, c.dst); !ok || len(n.sp.path) == 0 {
				break
			}
			c.path = append(c.path[:0], n.sp.path...)
			c.valid = true
		}
		amt := math.Min(want-placed, n.PathBottleneck(c.path))
		if amt <= 1e-9 {
			break
		}
		n.Use(c.path, amt)
		placed += amt
	}
	return placed
}

// Allocate routes demands over the topology under the failure state; it is
// the one-shot form of Runner.Allocate. Callers in a scenario loop should
// hold a Runner instead to amortize the scratch buffers.
func Allocate(t *topology.Topology, state *topology.FailureState, demands []Demand, opts AllocateOptions) *Allocation {
	return NewRunner(t).Allocate(state, demands, opts)
}

// RunnerPool recycles Runners over one topology across successive risk
// passes, so a long-running granting service does not rebuild Dijkstra
// scratch and residual arrays for every admission decision. Allocate fully
// resets a Runner's state per call, so a recycled Runner produces
// byte-identical allocations to a fresh one.
//
// The pool is safe for concurrent Get/Put; individual Runners remain
// single-goroutine. The free list is capped so a one-off burst of workers
// does not pin scratch memory forever.
type RunnerPool struct {
	topo *topology.Topology
	mu   sync.Mutex
	free []*Runner
	// maxIdle bounds the free list; Put drops runners beyond it.
	maxIdle int
}

// NewRunnerPool creates a pool whose Runners allocate over t. maxIdle bounds
// the retained free list (<=0 means a default of 16).
func NewRunnerPool(t *topology.Topology, maxIdle int) *RunnerPool {
	if maxIdle <= 0 {
		maxIdle = 16
	}
	return &RunnerPool{topo: t, maxIdle: maxIdle}
}

// Topology returns the topology the pool's Runners are bound to. Callers
// sharing a pool across assessments must check it matches the topology they
// are about to assess (a Runner is topology-specific).
func (p *RunnerPool) Topology() *topology.Topology { return p.topo }

// Get returns a free Runner or creates one.
func (p *RunnerPool) Get() *Runner {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return r
	}
	p.mu.Unlock()
	return NewRunner(p.topo)
}

// Put returns a Runner to the pool. Only Runners obtained from Get (or built
// over the pool's topology) may be returned.
func (p *RunnerPool) Put(r *Runner) {
	if r == nil || r.topo != p.topo {
		return
	}
	p.mu.Lock()
	if len(p.free) < p.maxIdle {
		p.free = append(p.free, r)
	}
	p.mu.Unlock()
}
