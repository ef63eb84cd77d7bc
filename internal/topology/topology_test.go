package topology

import (
	"testing"
	"testing/quick"
)

func TestAddRegionIdempotent(t *testing.T) {
	topo := New()
	topo.AddRegion("A")
	topo.AddRegion("A")
	if topo.NumRegions() != 1 {
		t.Errorf("NumRegions = %d, want 1", topo.NumRegions())
	}
	if !topo.HasRegion("A") || topo.HasRegion("B") {
		t.Error("HasRegion wrong")
	}
	if topo.RegionIndex("A") != 0 || topo.RegionIndex("B") != -1 {
		t.Error("RegionIndex wrong")
	}
}

func TestAddLink(t *testing.T) {
	topo := New()
	id, err := topo.AddLink("A", "B", 100, 0.01, -1)
	if err != nil {
		t.Fatal(err)
	}
	l := topo.Link(id)
	if l.Src != "A" || l.Dst != "B" || l.Capacity != 100 || l.Metric != 1 {
		t.Errorf("Link = %+v", l)
	}
	d := topo.Dense()
	a, b := topo.RegionIndex("A"), topo.RegionIndex("B")
	if out := d.OutLinks[d.OutStart[a]:d.OutStart[a+1]]; len(out) != 1 || int(out[0]) != id {
		t.Errorf("links out of A = %v", out)
	}
	if d.OutStart[b+1] != d.OutStart[b] {
		t.Error("B should have no outgoing links")
	}
}

func TestAddLinkValidation(t *testing.T) {
	topo := New()
	if _, err := topo.AddLink("A", "A", 100, 0, -1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := topo.AddLink("A", "B", 0, 0, -1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := topo.AddLink("A", "B", 100, 1.5, -1); err == nil {
		t.Error("failProb > 1 accepted")
	}
	if _, err := topo.AddLink("A", "B", 100, -0.1, -1); err == nil {
		t.Error("negative failProb accepted")
	}
}

func TestAddBidirectionalSharesSRLG(t *testing.T) {
	topo := New()
	topo.EnsureSRLG(7, 0.05)
	ab, ba, err := topo.AddBidirectional("A", "B", 100, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Link(ab).SRLG != 7 || topo.Link(ba).SRLG != 7 {
		t.Error("SRLG not propagated")
	}
	var g *SRLG
	for i := range topo.SRLGs {
		if topo.SRLGs[i].ID == 7 {
			g = &topo.SRLGs[i]
		}
	}
	if g == nil || len(g.Members) != 2 || g.CutProb != 0.05 {
		t.Errorf("SRLG = %+v", g)
	}
}

func TestValidate(t *testing.T) {
	topo := New()
	topo.EnsureSRLG(0, 0.01)
	if _, _, err := topo.AddBidirectional("A", "B", 100, 0.001, 0); err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate = %v", err)
	}
	// Corrupt SRLG membership.
	topo.SRLGs[0].Members = append(topo.SRLGs[0].Members, 99)
	if err := topo.Validate(); err == nil {
		t.Error("corrupt SRLG passed validation")
	}
}

func TestFailureState(t *testing.T) {
	topo := New()
	topo.EnsureSRLG(0, 0.5)
	ab, ba, _ := topo.AddBidirectional("A", "B", 100, 0, 0)
	cd, _, _ := topo.AddBidirectional("C", "D", 100, 0, -1)

	s := topo.AllUp()
	if !s.IsUp(ab) || !s.IsUp(cd) {
		t.Error("AllUp has down links")
	}
	var nilState *FailureState
	if !nilState.IsUp(0) {
		t.Error("nil state should be all-up")
	}
	s.Down[cd] = true
	if s.IsUp(cd) || !s.IsUp(ab) || !s.IsUp(ba) {
		t.Error("IsUp does not follow Down")
	}
}

func TestSampleFailuresSRLGAtomicity(t *testing.T) {
	// A fiber cut must take down both directions together: we never observe
	// exactly one member of an SRLG down due to the SRLG mechanism when
	// independent failure probability is zero.
	topo := New()
	topo.EnsureSRLG(0, 0.5)
	ab, ba, _ := topo.AddBidirectional("A", "B", 100, 0, 0)
	sawCut, sawUp := false, false
	for i := 0; i < 200; i++ {
		s := topo.SampleFailureAt(3, i)
		if s.Down[ab] != s.Down[ba] {
			t.Fatal("SRLG members failed independently")
		}
		if s.Down[ab] {
			sawCut = true
		} else {
			sawUp = true
		}
	}
	if !sawCut || !sawUp {
		t.Error("sampler never exercised both branches")
	}
}

func TestSampleFailuresIndependentRate(t *testing.T) {
	topo := New()
	id, _ := topo.AddLink("A", "B", 100, 0.25, -1)
	down := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if topo.SampleFailureAt(9, i).Down[id] {
			down++
		}
	}
	rate := float64(down) / n
	if rate < 0.2 || rate > 0.3 {
		t.Errorf("empirical failure rate %v, want ~0.25", rate)
	}
}

func TestBackboneGenerator(t *testing.T) {
	opts := DefaultBackboneOptions()
	topo, err := Backbone(opts)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumRegions() != opts.Regions {
		t.Errorf("regions = %d, want %d", topo.NumRegions(), opts.Regions)
	}
	// Ring gives 2*R directed links; chords add 2 each.
	minLinks := 2 * opts.Regions
	if topo.NumLinks() < minLinks {
		t.Errorf("links = %d, want >= %d", topo.NumLinks(), minLinks)
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate = %v", err)
	}
	for _, l := range topo.Links {
		gbps := l.Capacity / 1e9
		if gbps < opts.MinCapGbps-1e-6 || gbps > opts.MaxCapGbps+1e-6 {
			t.Errorf("link capacity %v Gbps out of range", gbps)
		}
	}
	if topo.TotalCapacity() <= 0 {
		t.Error("TotalCapacity must be positive")
	}
}

func TestBackboneDeterministic(t *testing.T) {
	a, _ := Backbone(DefaultBackboneOptions())
	b, _ := Backbone(DefaultBackboneOptions())
	if a.NumLinks() != b.NumLinks() {
		t.Fatal("same seed produced different topologies")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, a.Links[i], b.Links[i])
		}
	}
}

func TestBackboneTooSmall(t *testing.T) {
	opts := DefaultBackboneOptions()
	opts.Regions = 2
	if _, err := Backbone(opts); err == nil {
		t.Error("2-region backbone accepted")
	}
}

func TestFigureSix(t *testing.T) {
	topo := FigureSix()
	if topo.NumRegions() != 5 {
		t.Errorf("regions = %d", topo.NumRegions())
	}
	// Full mesh: 5*4 directed links.
	if topo.NumLinks() != 20 {
		t.Errorf("links = %d, want 20", topo.NumLinks())
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate = %v", err)
	}
}

func TestRegionsSorted(t *testing.T) {
	topo := New()
	topo.AddRegion("C")
	topo.AddRegion("A")
	topo.AddRegion("B")
	got := topo.RegionsSorted()
	if got[0] != "A" || got[1] != "B" || got[2] != "C" {
		t.Errorf("RegionsSorted = %v", got)
	}
	// Original order untouched.
	if topo.Regions[0] != "C" {
		t.Error("RegionsSorted mutated Regions")
	}
}

// Property: generated backbones always validate and have symmetric
// bidirectional fibers (every SRLG has exactly 2 members).
func TestBackboneInvariantProperty(t *testing.T) {
	f := func(seed int64, regionsRaw, chordsRaw uint8) bool {
		opts := DefaultBackboneOptions()
		opts.Seed = seed
		opts.Regions = 3 + int(regionsRaw)%12
		opts.Chords = int(chordsRaw) % 8
		topo, err := Backbone(opts)
		if err != nil {
			return false
		}
		if topo.Validate() != nil {
			return false
		}
		for _, g := range topo.SRLGs {
			if len(g.Members) != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig, err := Backbone(DefaultBackboneOptions())
	if err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	if err := clone.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Mutating the clone must not touch the original.
	if err := clone.SetCapacity(0, 42); err != nil {
		t.Fatal(err)
	}
	if orig.Links[0].Capacity == 42 {
		t.Error("clone shares link storage")
	}
	clone.SRLGs[0].Members[0] = 999
	if orig.SRLGs[0].Members[0] == 999 {
		t.Error("clone shares SRLG storage")
	}
	clone.AddRegion("EXTRA")
	if orig.HasRegion("EXTRA") {
		t.Error("clone shares region index")
	}
}

func TestSetCapacity(t *testing.T) {
	topo := New()
	id, _ := topo.AddLink("A", "B", 100, 0, -1)
	if err := topo.SetCapacity(id, 250); err != nil {
		t.Fatal(err)
	}
	if topo.Link(id).Capacity != 250 {
		t.Errorf("capacity = %v", topo.Link(id).Capacity)
	}
	if err := topo.SetCapacity(99, 10); err == nil {
		t.Error("unknown link accepted")
	}
	if err := topo.SetCapacity(id, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

// TestEpochTracksMutations pins the cache-invalidation contract: every
// mutation through the package API bumps Epoch, and reads leave it alone.
func TestEpochTracksMutations(t *testing.T) {
	topo := New()
	e0 := topo.Epoch()
	topo.AddRegion("A")
	if topo.Epoch() == e0 {
		t.Error("AddRegion did not bump epoch")
	}
	e1 := topo.Epoch()
	if _, err := topo.AddLink("A", "B", 1e12, 0.001, -1); err != nil {
		t.Fatal(err)
	}
	if topo.Epoch() <= e1 {
		t.Error("AddLink did not bump epoch")
	}
	e2 := topo.Epoch()
	topo.EnsureSRLG(7, 0.01)
	if topo.Epoch() <= e2 {
		t.Error("EnsureSRLG did not bump epoch")
	}
	e3 := topo.Epoch()
	if err := topo.SetCapacity(0, 2e12); err != nil {
		t.Fatal(err)
	}
	if topo.Epoch() <= e3 {
		t.Error("SetCapacity did not bump epoch")
	}
	e4 := topo.Epoch()
	topo.Dense()
	topo.RegionsSorted()
	topo.AllUp()
	if topo.Epoch() != e4 {
		t.Error("read-only accessors changed the epoch")
	}
}
