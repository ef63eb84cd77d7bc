package flow

import (
	"math"
	"testing"
	"testing/quick"

	"entitlement/internal/topology"
)

// lineTopo builds A -> B -> C with the given capacities.
func lineTopo(t *testing.T, capAB, capBC float64) *topology.Topology {
	t.Helper()
	topo := topology.New()
	if _, err := topo.AddLink("A", "B", capAB, 0, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddLink("B", "C", capBC, 0, -1); err != nil {
		t.Fatal(err)
	}
	return topo
}

// diamondTopo builds A->B->D and A->C->D.
func diamondTopo(t *testing.T, caps [4]float64) *topology.Topology {
	t.Helper()
	topo := topology.New()
	mustAdd := func(a, b topology.Region, c float64) int {
		id, err := topo.AddLink(a, b, c, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustAdd("A", "B", caps[0])
	mustAdd("B", "D", caps[1])
	mustAdd("A", "C", caps[2])
	mustAdd("C", "D", caps[3])
	return topo
}

func TestNetworkResidualAndUse(t *testing.T) {
	topo := lineTopo(t, 100, 50)
	net := NewNetwork(topo, topo.AllUp())
	if net.Residual(0) != 100 || net.Residual(1) != 50 {
		t.Errorf("residuals = %v %v", net.Residual(0), net.Residual(1))
	}
	path := []int{0, 1}
	if got := net.PathBottleneck(path); got != 50 {
		t.Errorf("bottleneck = %v, want 50", got)
	}
	net.Use(path, 30)
	if net.Residual(0) != 70 || net.Residual(1) != 20 {
		t.Errorf("after Use: %v %v", net.Residual(0), net.Residual(1))
	}
}

func TestNetworkUseOvercommitPanics(t *testing.T) {
	topo := lineTopo(t, 10, 10)
	net := NewNetwork(topo, topo.AllUp())
	defer func() {
		if recover() == nil {
			t.Fatal("overcommit did not panic")
		}
	}()
	net.Use([]int{0}, 20)
}

func TestNetworkFailedLinksHaveZeroResidual(t *testing.T) {
	topo := lineTopo(t, 100, 50)
	st := topo.AllUp()
	st.Down[0] = true
	net := NewNetwork(topo, st)
	if net.Residual(0) != 0 {
		t.Errorf("failed link residual = %v", net.Residual(0))
	}
}

// shortestPath runs the allocator's Dijkstra between two named regions and
// returns a copy of the path.
func shortestPath(n *Network, src, dst topology.Region) (path []int, metric float64, ok bool) {
	metric, ok = n.shortestPathDense(int32(n.Topo.RegionIndex(src)), int32(n.Topo.RegionIndex(dst)))
	return append([]int(nil), n.sp.path...), metric, ok
}

func TestShortestPathBasic(t *testing.T) {
	topo := diamondTopo(t, [4]float64{10, 10, 10, 10})
	net := NewNetwork(topo, topo.AllUp())
	path, metric, ok := shortestPath(net, "A", "D")
	if !ok || len(path) != 2 || metric != 2 {
		t.Errorf("path=%v metric=%v ok=%v", path, metric, ok)
	}
	// Same source/dest.
	path, metric, ok = shortestPath(net, "A", "A")
	if !ok || len(path) != 0 || metric != 0 {
		t.Error("self path wrong")
	}
	// Unreachable.
	if _, _, ok := shortestPath(net, "D", "A"); ok {
		t.Error("reverse path should not exist in this DAG")
	}
}

func TestShortestPathAvoidsSaturatedLinks(t *testing.T) {
	topo := diamondTopo(t, [4]float64{10, 10, 10, 10})
	net := NewNetwork(topo, topo.AllUp())
	first, _, _ := shortestPath(net, "A", "D")
	net.Use(first, 10) // saturate
	second, _, ok := shortestPath(net, "A", "D")
	if !ok {
		t.Fatal("alternate path not found")
	}
	if first[0] == second[0] || first[1] == second[1] {
		t.Errorf("shortest path %v reused a link of the saturated %v", second, first)
	}
}

func TestShortestPathPrefersLowMetric(t *testing.T) {
	topo := topology.New()
	ab, _ := topo.AddLink("A", "B", 10, 0, -1)
	bc, _ := topo.AddLink("B", "C", 10, 0, -1)
	ac, _ := topo.AddLink("A", "C", 10, 0, -1)
	// Make the direct link expensive.
	topo.Link(ac).Metric = 5
	net := NewNetwork(topo, topo.AllUp())
	path, metric, ok := shortestPath(net, "A", "C")
	if !ok || metric != 2 || len(path) != 2 || path[0] != ab || path[1] != bc {
		t.Errorf("path=%v metric=%v", path, metric)
	}
}

func TestAllocateSingleDemand(t *testing.T) {
	topo := lineTopo(t, 100, 50)
	a := Allocate(topo, topo.AllUp(), []Demand{{Key: "d", Src: "A", Dst: "C", Rate: 80, Class: 0}}, AllocateOptions{})
	if got := a.Admitted["d"]; math.Abs(got-50) > 1e-6 {
		t.Errorf("admitted = %v, want 50 (bottleneck)", got)
	}
	if f := a.AdmittedFraction(Demand{Key: "d", Rate: 80}); math.Abs(f-50.0/80) > 1e-6 {
		t.Errorf("fraction = %v", f)
	}
}

func TestAllocateFullySatisfiable(t *testing.T) {
	topo := lineTopo(t, 100, 100)
	a := Allocate(topo, topo.AllUp(), []Demand{{Key: "d", Src: "A", Dst: "C", Rate: 60, Class: 0}}, AllocateOptions{})
	if got := a.Admitted["d"]; math.Abs(got-60) > 1e-6 {
		t.Errorf("admitted = %v, want 60", got)
	}
	// LinkUsed reflects the allocation.
	if math.Abs(a.LinkUsed[0]-60) > 1e-6 {
		t.Errorf("LinkUsed = %v", a.LinkUsed)
	}
}

func TestAllocatePriorityStrictness(t *testing.T) {
	// One 50-capacity path, high-priority demand wants all of it.
	topo := lineTopo(t, 50, 50)
	demands := []Demand{
		{Key: "low", Src: "A", Dst: "C", Rate: 50, Class: 3},
		{Key: "high", Src: "A", Dst: "C", Rate: 50, Class: 0},
	}
	a := Allocate(topo, topo.AllUp(), demands, AllocateOptions{})
	if got := a.Admitted["high"]; math.Abs(got-50) > 1e-6 {
		t.Errorf("high admitted = %v, want 50", got)
	}
	if got := a.Admitted["low"]; got > 1e-6 {
		t.Errorf("low admitted = %v, want 0", got)
	}
}

func TestAllocateFairWithinClass(t *testing.T) {
	topo := lineTopo(t, 100, 100)
	demands := []Demand{
		{Key: "x", Src: "A", Dst: "C", Rate: 100, Class: 0},
		{Key: "y", Src: "A", Dst: "C", Rate: 100, Class: 0},
	}
	a := Allocate(topo, topo.AllUp(), demands, AllocateOptions{Rounds: 32})
	x, y := a.Admitted["x"], a.Admitted["y"]
	if math.Abs(x+y-100) > 1e-6 {
		t.Errorf("total admitted = %v, want 100", x+y)
	}
	// Approximate fairness: neither gets more than ~60%.
	if x > 62 || y > 62 {
		t.Errorf("unfair split: x=%v y=%v", x, y)
	}
}

func TestAllocateMultipath(t *testing.T) {
	topo := diamondTopo(t, [4]float64{30, 30, 30, 30})
	a := Allocate(topo, topo.AllUp(), []Demand{{Key: "d", Src: "A", Dst: "D", Rate: 60, Class: 0}}, AllocateOptions{})
	if got := a.Admitted["d"]; math.Abs(got-60) > 1e-6 {
		t.Errorf("multipath admitted = %v, want 60", got)
	}
}

func TestAllocateZeroDemand(t *testing.T) {
	topo := lineTopo(t, 10, 10)
	a := Allocate(topo, topo.AllUp(), []Demand{{Key: "z", Src: "A", Dst: "C", Rate: 0, Class: 0}}, AllocateOptions{})
	if a.Admitted["z"] != 0 {
		t.Errorf("zero demand admitted %v", a.Admitted["z"])
	}
	if a.AdmittedFraction(Demand{Key: "z", Rate: 0}) != 1 {
		t.Error("zero demand fraction should be 1")
	}
}

// Property: allocation never admits more than requested, never overcommits a
// link, and respects class priority (total admitted for class 0 with the
// network to itself >= what it gets sharing with lower classes).
func TestAllocateInvariantsProperty(t *testing.T) {
	f := func(seed int64, nDemandsRaw uint8) bool {
		opts := topology.DefaultBackboneOptions()
		opts.Seed = seed
		opts.Regions = 6
		opts.Chords = 3
		topo, err := topology.Backbone(opts)
		if err != nil {
			return false
		}
		regions := topo.RegionsSorted()
		nDemands := 1 + int(nDemandsRaw)%8
		demands := make([]Demand, 0, nDemands)
		r := seed
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			v := int((r >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		for i := 0; i < nDemands; i++ {
			s := regions[next(len(regions))]
			d := regions[next(len(regions))]
			if s == d {
				continue
			}
			demands = append(demands, Demand{
				Key: string(s) + ">" + string(d) + string(rune('0'+i)),
				Src: s, Dst: d,
				Rate:  float64(1+next(2000)) * 1e9,
				Class: next(4),
			})
		}
		if len(demands) == 0 {
			return true
		}
		a := Allocate(topo, topo.AllUp(), demands, AllocateOptions{Rounds: 8})
		for _, d := range demands {
			if a.Admitted[d.Key] > d.Rate+1e-3 {
				return false
			}
			if a.Admitted[d.Key] < 0 {
				return false
			}
		}
		for i, used := range a.LinkUsed {
			if used > topo.Links[i].Capacity+1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRunnerPoolRecycling checks the pool's reuse contract: recycled runners
// allocate byte-identically to fresh ones, Put respects the idle cap and the
// topology binding, and Get falls back to construction when empty.
func TestRunnerPoolRecycling(t *testing.T) {
	topo := topology.FigureSix()
	demands := []Demand{
		{Key: "x", Src: "A", Dst: "C", Rate: 800e9, Class: 0},
		{Key: "y", Src: "B", Dst: "E", Rate: 600e9, Class: 1},
	}
	state := topo.AllUp()
	state.Down[0] = true
	fresh := NewRunner(topo).Allocate(state, demands, AllocateOptions{})

	pool := NewRunnerPool(topo, 2)
	r1 := pool.Get()
	// Dirty the runner with a different allocation, recycle, and re-check.
	r1.Allocate(topo.AllUp(), demands[:1], AllocateOptions{})
	pool.Put(r1)
	r2 := pool.Get()
	if r2 != r1 {
		t.Fatal("pool did not recycle the returned runner")
	}
	got := r2.Allocate(state, demands, AllocateOptions{})
	for _, d := range demands {
		if got.Admitted[d.Key] != fresh.Admitted[d.Key] {
			t.Errorf("recycled runner admitted %v for %s, fresh %v",
				got.Admitted[d.Key], d.Key, fresh.Admitted[d.Key])
		}
	}

	// Idle cap: a third Put is dropped.
	pool.Put(NewRunner(topo))
	pool.Put(NewRunner(topo))
	pool.Put(NewRunner(topo))
	if n := len(pool.free); n != 2 {
		t.Errorf("idle = %d, want capped at 2", n)
	}
	// Foreign runners are refused.
	other := topology.FigureSix()
	empty := NewRunnerPool(topo, 2)
	empty.Put(NewRunner(other))
	if n := len(empty.free); n != 0 {
		t.Errorf("foreign runner retained (idle=%d)", n)
	}
}
