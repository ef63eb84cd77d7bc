// Package topology models the WAN backbone the entitlement pipeline plans
// against: regions (PoPs/DCs), directed capacitated links, and shared-risk
// link groups (SRLGs) representing fiber paths whose cut takes down every
// member link at once (§4.3's "possible network failures, e.g. fiber cuts").
//
// The package also provides synthetic backbone builders, since the paper's
// production topology is proprietary: a heterogeneous ring-plus-chords
// backbone generator and the five-region example of Figure 6.
package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Region identifies a network region (a PoP site or data center).
type Region string

// Link is a directed capacitated edge between two regions.
type Link struct {
	ID       int // index into Topology.Links
	Src, Dst Region
	Capacity float64 // bits per second
	Metric   float64 // routing weight (latency-like); must be > 0
	// FailProb is the probability the link is independently down in a
	// sampled failure scenario (hardware failure, maintenance).
	FailProb float64
	// SRLG is the shared-risk link group (fiber) this link rides on, or -1.
	// A fiber cut fails every link in the group simultaneously.
	SRLG int
	// Disabled marks the link administratively down (a known fiber cut
	// awaiting repair): it is down in every failure scenario including the
	// forced all-up one. Toggled via SetLinkDisabled.
	Disabled bool
}

// SRLG is a shared-risk link group with its own cut probability.
type SRLG struct {
	ID      int
	CutProb float64
	Members []int // link IDs
}

// Topology is a directed multigraph over regions.
type Topology struct {
	Regions []Region
	Links   []Link
	SRLGs   []SRLG

	regionIdx map[Region]int

	// dense caches the CSR adjacency; rebuilt lazily after structural
	// mutations (AddRegion/AddLink). Safe for concurrent readers.
	dense   atomic.Pointer[Dense]
	denseMu sync.Mutex

	// epoch counts mutations through the package API (AddRegion/AddLink,
	// EnsureSRLG, SetCapacity, SetLinkFailProb, SetLinkDisabled). Caches
	// keyed on (instance, epoch) — the granting service's scenario and
	// result caches — stay coherent without hashing the whole graph. Direct
	// writes through Link() pointers bypass it.
	epoch atomic.Uint64

	// srlgIdx maps SRLG ID → index into SRLGs, for O(1) lookups in the
	// per-scenario sampling hot path.
	srlgIdx map[int]int
}

// Epoch returns the topology's mutation counter: any change made through the
// package API bumps it, so a cache entry computed at Epoch e is valid while
// Epoch() still returns e on the same instance.
func (t *Topology) Epoch() uint64 { return t.epoch.Load() }

// Dense is a CSR-style view of the topology over dense region indexes: the
// outgoing link IDs of region index r are OutLinks[OutStart[r]:OutStart[r+1]],
// in link-insertion order, so path tie-breaking follows insertion order.
// SrcIdx/DstIdx give each link's endpoint region indexes without
// map lookups. The flow engine's hot loops run entirely on this view.
//
// A Dense snapshot is immutable; structural mutations of the Topology produce
// a fresh snapshot on the next Dense() call.
type Dense struct {
	OutStart []int32 // len NumRegions+1; offsets into OutLinks
	OutLinks []int32 // link IDs grouped by source region index
	SrcIdx   []int32 // per link ID: source region index
	DstIdx   []int32 // per link ID: destination region index
}

// Dense returns the CSR adjacency snapshot, building it on first use and
// after structural changes. Concurrent callers are safe; the returned value
// must be treated as read-only.
func (t *Topology) Dense() *Dense {
	if d := t.dense.Load(); d != nil {
		return d
	}
	t.denseMu.Lock()
	defer t.denseMu.Unlock()
	if d := t.dense.Load(); d != nil {
		return d
	}
	d := &Dense{
		OutStart: make([]int32, len(t.Regions)+1),
		OutLinks: make([]int32, len(t.Links)),
		SrcIdx:   make([]int32, len(t.Links)),
		DstIdx:   make([]int32, len(t.Links)),
	}
	for i := range t.Links {
		l := &t.Links[i]
		d.SrcIdx[i] = int32(t.regionIdx[l.Src])
		d.DstIdx[i] = int32(t.regionIdx[l.Dst])
		d.OutStart[d.SrcIdx[i]+1]++
	}
	for r := 0; r < len(t.Regions); r++ {
		d.OutStart[r+1] += d.OutStart[r]
	}
	// Fill per-region link lists in insertion order (link IDs are assigned
	// in insertion order, so a forward scan preserves it).
	fill := make([]int32, len(t.Regions))
	copy(fill, d.OutStart[:len(t.Regions)])
	for i := range t.Links {
		s := d.SrcIdx[i]
		d.OutLinks[fill[s]] = int32(i)
		fill[s]++
	}
	t.dense.Store(d)
	return d
}

// invalidateDense drops the cached CSR snapshot after a structural change.
func (t *Topology) invalidateDense() {
	t.dense.Store(nil)
	t.epoch.Add(1)
}

// New creates an empty topology.
func New() *Topology {
	return &Topology{
		regionIdx: make(map[Region]int),
		srlgIdx:   make(map[int]int),
	}
}

// AddRegion registers a region. Adding an existing region is a no-op.
func (t *Topology) AddRegion(r Region) {
	if _, ok := t.regionIdx[r]; ok {
		return
	}
	t.regionIdx[r] = len(t.Regions)
	t.Regions = append(t.Regions, r)
	t.invalidateDense()
}

// HasRegion reports whether r is part of the topology.
func (t *Topology) HasRegion(r Region) bool {
	_, ok := t.regionIdx[r]
	return ok
}

// RegionIndex returns the dense index of r, or -1.
func (t *Topology) RegionIndex(r Region) int {
	if i, ok := t.regionIdx[r]; ok {
		return i
	}
	return -1
}

// AddLink adds a directed link and returns its ID. Unknown regions are
// registered automatically. Capacity must be positive; a non-positive metric
// defaults to 1.
func (t *Topology) AddLink(src, dst Region, capacity, failProb float64, srlg int) (int, error) {
	if src == dst {
		return 0, fmt.Errorf("topology: self-loop link at %s", src)
	}
	if capacity <= 0 {
		return 0, fmt.Errorf("topology: non-positive capacity %v on %s->%s", capacity, src, dst)
	}
	if failProb < 0 || failProb >= 1 {
		return 0, fmt.Errorf("topology: failure probability %v out of [0,1) on %s->%s", failProb, src, dst)
	}
	t.AddRegion(src)
	t.AddRegion(dst)
	id := len(t.Links)
	t.Links = append(t.Links, Link{
		ID: id, Src: src, Dst: dst, Capacity: capacity, Metric: 1,
		FailProb: failProb, SRLG: srlg,
	})
	t.invalidateDense()
	if srlg >= 0 {
		t.srlgByID(srlg).Members = append(t.srlgByID(srlg).Members, id)
	}
	return id, nil
}

// AddBidirectional adds a pair of opposite-direction links sharing capacity
// characteristics and the same SRLG, returning both IDs.
func (t *Topology) AddBidirectional(a, b Region, capacity, failProb float64, srlg int) (int, int, error) {
	ab, err := t.AddLink(a, b, capacity, failProb, srlg)
	if err != nil {
		return 0, 0, err
	}
	ba, err := t.AddLink(b, a, capacity, failProb, srlg)
	if err != nil {
		return 0, 0, err
	}
	return ab, ba, nil
}

// EnsureSRLG registers an SRLG with the given cut probability and returns its
// ID. Calling it again with the same ID updates the probability.
func (t *Topology) EnsureSRLG(id int, cutProb float64) int {
	g := t.srlgByID(id)
	g.CutProb = cutProb
	t.epoch.Add(1) // changes failure sampling, not the dense adjacency
	return g.ID
}

func (t *Topology) srlgByID(id int) *SRLG {
	if t.srlgIdx == nil {
		t.srlgIdx = make(map[int]int)
		for i := range t.SRLGs {
			t.srlgIdx[t.SRLGs[i].ID] = i
		}
	}
	if i, ok := t.srlgIdx[id]; ok {
		return &t.SRLGs[i]
	}
	t.srlgIdx[id] = len(t.SRLGs)
	t.SRLGs = append(t.SRLGs, SRLG{ID: id})
	return &t.SRLGs[len(t.SRLGs)-1]
}

// Link returns the link with the given ID.
func (t *Topology) Link(id int) *Link { return &t.Links[id] }

// NumRegions returns the region count.
func (t *Topology) NumRegions() int { return len(t.Regions) }

// NumLinks returns the link count.
func (t *Topology) NumLinks() int { return len(t.Links) }

// TotalCapacity returns the sum of all link capacities.
func (t *Topology) TotalCapacity() float64 {
	s := 0.0
	for _, l := range t.Links {
		s += l.Capacity
	}
	return s
}

// Validate checks structural invariants: every link endpoint registered,
// SRLG membership consistent.
func (t *Topology) Validate() error {
	for _, l := range t.Links {
		if !t.HasRegion(l.Src) || !t.HasRegion(l.Dst) {
			return fmt.Errorf("topology: link %d references unknown region", l.ID)
		}
		if l.Capacity <= 0 {
			return fmt.Errorf("topology: link %d has capacity %v", l.ID, l.Capacity)
		}
	}
	for _, g := range t.SRLGs {
		for _, id := range g.Members {
			if id < 0 || id >= len(t.Links) {
				return fmt.Errorf("topology: SRLG %d references unknown link %d", g.ID, id)
			}
			if t.Links[id].SRLG != g.ID {
				return fmt.Errorf("topology: SRLG %d membership inconsistent for link %d", g.ID, id)
			}
		}
	}
	return nil
}

// FailureState marks which links are down in one failure scenario.
type FailureState struct {
	Down []bool // indexed by link ID
}

// AllUp returns a failure state with every link operational except those
// administratively disabled (a known fiber cut is down even in the forced
// no-random-failure scenario).
func (t *Topology) AllUp() *FailureState {
	s := &FailureState{Down: make([]bool, len(t.Links))}
	for i := range t.Links {
		if t.Links[i].Disabled {
			s.Down[i] = true
		}
	}
	return s
}

// IsUp reports whether link id is operational under s. A nil state means
// everything is up.
func (s *FailureState) IsUp(id int) bool {
	if s == nil {
		return true
	}
	return !s.Down[id]
}

// --- Decomposable scenario sampling ---------------------------------------
//
// SampleFailureAt draws scenario j's failure state with one independent hash
// draw per (seed, scenario, entity), instead of one sequential RNG stream per
// scenario: each SRLG is cut with its CutProb (taking down all members), and
// each remaining link fails independently with its FailProb. The draw for link
// i depends only on (seed, j, i, FailProb_i) and its SRLG's (seed, j, groupID,
// CutProb), so scenarios can be drawn in any order, on any goroutine.

const (
	linkSalt = 0x6c696e6b5f646f77 // "link_dow"
	srlgSalt = 0x73726c675f637574 // "srlg_cut"
)

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// scenarioU01 maps (seed, scenario, salt, entity id) to a uniform in [0,1).
func scenarioU01(seed int64, scenario int, salt, id uint64) float64 {
	x := mix64(uint64(seed) ^ salt)
	x = mix64(x ^ mix64(uint64(scenario)+1))
	x = mix64(x ^ mix64(id+0x9e3779b97f4a7c15))
	return float64(x>>11) / (1 << 53)
}

// srlgCutAt reports whether SRLG g is cut in the given scenario.
func srlgCutAt(seed int64, scenario int, g *SRLG) bool {
	return g != nil && g.CutProb > 0 && scenarioU01(seed, scenario, srlgSalt, uint64(g.ID)) < g.CutProb
}

// SampleFailureAt draws the failure state of sampled scenario `scenario`
// under seed. It is random-access: scenario j's state is independent of how
// many scenarios were drawn before it.
func (t *Topology) SampleFailureAt(seed int64, scenario int) *FailureState {
	s := &FailureState{Down: make([]bool, len(t.Links))}
	for g := range t.SRLGs {
		if srlgCutAt(seed, scenario, &t.SRLGs[g]) {
			for _, id := range t.SRLGs[g].Members {
				s.Down[id] = true
			}
		}
	}
	for i := range t.Links {
		l := &t.Links[i]
		if l.Disabled {
			s.Down[i] = true
			continue
		}
		if s.Down[i] {
			continue
		}
		if l.FailProb > 0 && scenarioU01(seed, scenario, linkSalt, uint64(i)) < l.FailProb {
			s.Down[i] = true
		}
	}
	return s
}

// --- Synthetic builders -------------------------------------------------

// BackboneOptions configures the synthetic WAN generator.
type BackboneOptions struct {
	Regions    int     // number of regions (>= 3)
	Chords     int     // extra random bidirectional chords beyond the ring
	MinCapGbps float64 // per-direction capacity range
	MaxCapGbps float64
	LinkFail   float64 // per-link independent failure probability
	FiberCut   float64 // per-SRLG cut probability
	Seed       int64
}

// DefaultBackboneOptions mirrors a mid-size heterogeneous WAN: 12 regions,
// capacity spread of 4x between the smallest and largest links (the paper
// stresses WANs have "heterogeneous region capacities"), link availability
// around 99.8% and rarer fiber cuts.
func DefaultBackboneOptions() BackboneOptions {
	return BackboneOptions{
		Regions:    12,
		Chords:     10,
		MinCapGbps: 500,
		MaxCapGbps: 2000,
		LinkFail:   0.002,
		FiberCut:   0.001,
		Seed:       1,
	}
}

// Backbone generates a synthetic WAN: a resilient ring over all regions plus
// random chords, with heterogeneous capacities. Each bidirectional fiber is
// its own SRLG, so one cut takes both directions.
func Backbone(opts BackboneOptions) (*Topology, error) {
	if opts.Regions < 3 {
		return nil, errors.New("topology: backbone needs at least 3 regions")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	t := New()
	names := make([]Region, opts.Regions)
	for i := range names {
		names[i] = Region(fmt.Sprintf("R%02d", i))
		t.AddRegion(names[i])
	}
	srlg := 0
	addFiber := func(a, b Region) error {
		capGbps := opts.MinCapGbps + rng.Float64()*(opts.MaxCapGbps-opts.MinCapGbps)
		t.EnsureSRLG(srlg, opts.FiberCut)
		_, _, err := t.AddBidirectional(a, b, capGbps*1e9, opts.LinkFail, srlg)
		srlg++
		return err
	}
	for i := range names {
		if err := addFiber(names[i], names[(i+1)%len(names)]); err != nil {
			return nil, err
		}
	}
	// Random chords, avoiding duplicates of the ring.
	type pair struct{ a, b int }
	used := make(map[pair]bool)
	for i := range names {
		used[pair{i, (i + 1) % len(names)}] = true
		used[pair{(i + 1) % len(names), i}] = true
	}
	added := 0
	for attempts := 0; added < opts.Chords && attempts < opts.Chords*50; attempts++ {
		a := rng.Intn(len(names))
		b := rng.Intn(len(names))
		if a == b || used[pair{a, b}] {
			continue
		}
		used[pair{a, b}] = true
		used[pair{b, a}] = true
		if err := addFiber(names[a], names[b]); err != nil {
			return nil, err
		}
		added++
	}
	return t, nil
}

// FigureSix builds the five-region example of Figure 6 (regions A–E with the
// Ads service in A), as a full mesh so every pipe realization is routable.
// Capacities are generous; the figure's point is about reservations, not
// congestion.
func FigureSix() *Topology {
	t := New()
	regions := []Region{"A", "B", "C", "D", "E"}
	srlg := 0
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			t.EnsureSRLG(srlg, 0.001)
			// 1 Tbps per direction.
			if _, _, err := t.AddBidirectional(a, b, 1e12, 0.002, srlg); err != nil {
				panic(err) // unreachable for this fixed mesh
			}
			srlg++
		}
	}
	return t
}

// RegionsSorted returns the region list in lexical order (stable iteration
// for deterministic outputs).
func (t *Topology) RegionsSorted() []Region {
	out := make([]Region, len(t.Regions))
	copy(out, t.Regions)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the topology; planners mutate clones when
// evaluating candidate upgrades. The clone starts with a fresh epoch: caches
// keyed on (instance, epoch) treat it as a new instance, never as a mutation
// of the original.
func (t *Topology) Clone() *Topology {
	out := &Topology{
		Regions:   append([]Region(nil), t.Regions...),
		Links:     append([]Link(nil), t.Links...),
		SRLGs:     make([]SRLG, len(t.SRLGs)),
		regionIdx: make(map[Region]int, len(t.regionIdx)),
		srlgIdx:   make(map[int]int, len(t.srlgIdx)),
	}
	for i, g := range t.SRLGs {
		out.SRLGs[i] = SRLG{ID: g.ID, CutProb: g.CutProb, Members: append([]int(nil), g.Members...)}
		out.srlgIdx[g.ID] = i
	}
	for r, i := range t.regionIdx {
		out.regionIdx[r] = i
	}
	return out
}

// SetCapacity updates a link's capacity (planner upgrades).
func (t *Topology) SetCapacity(linkID int, capacity float64) error {
	if linkID < 0 || linkID >= len(t.Links) {
		return fmt.Errorf("topology: unknown link %d", linkID)
	}
	if capacity <= 0 {
		return fmt.Errorf("topology: non-positive capacity %v", capacity)
	}
	t.Links[linkID].Capacity = capacity
	t.epoch.Add(1) // changes allocation outcomes, not the dense adjacency
	return nil
}

// SetLinkFailProb updates a link's independent failure probability
// (maintenance windows, degrading hardware).
func (t *Topology) SetLinkFailProb(linkID int, p float64) error {
	if linkID < 0 || linkID >= len(t.Links) {
		return fmt.Errorf("topology: unknown link %d", linkID)
	}
	if p < 0 || p >= 1 {
		return fmt.Errorf("topology: failure probability %v out of [0,1)", p)
	}
	t.Links[linkID].FailProb = p
	t.epoch.Add(1) // changes failure sampling, not the dense adjacency
	return nil
}

// SetLinkDisabled marks a link administratively down (a confirmed fiber cut
// awaiting repair) or restores it. Disabled links are down in every failure
// scenario, including the forced all-up one. Setting the current value again
// is a no-op and does not bump the epoch.
func (t *Topology) SetLinkDisabled(linkID int, down bool) error {
	if linkID < 0 || linkID >= len(t.Links) {
		return fmt.Errorf("topology: unknown link %d", linkID)
	}
	if t.Links[linkID].Disabled == down {
		return nil
	}
	t.Links[linkID].Disabled = down
	t.epoch.Add(1) // changes failure sampling, not the dense adjacency
	return nil
}
