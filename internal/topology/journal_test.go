package topology

import (
	"math"
	"testing"
)

func journalTestTopo(t *testing.T) *Topology {
	t.Helper()
	topo := New()
	topo.EnsureSRLG(0, 0.1)
	if _, _, err := topo.AddBidirectional("A", "B", 100, 0.05, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddLink("B", "C", 100, 0.05, -1); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestDeltaSinceFoldsMutationClasses(t *testing.T) {
	topo := journalTestTopo(t)
	base := topo.Epoch()

	// Up-to-date span: empty delta, ok.
	d, ok := topo.DeltaSince(base)
	if !ok || !d.Empty() {
		t.Fatalf("up-to-date span: delta=%+v ok=%v, want empty/true", d, ok)
	}

	topo.AddRegion("Z")
	if err := topo.SetCapacity(2, 200); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetLinkFailProb(0, 0.2); err != nil {
		t.Fatal(err)
	}
	topo.EnsureSRLG(0, 0.3) // members: links 0, 1
	if err := topo.SetLinkDisabled(2, true); err != nil {
		t.Fatal(err)
	}

	d, ok = topo.DeltaSince(base)
	if !ok {
		t.Fatal("covered span reported as untraceable")
	}
	if d.From != base || d.To != topo.Epoch() {
		t.Errorf("span = (%d, %d], want (%d, %d]", d.From, d.To, base, topo.Epoch())
	}
	if !d.AddedRegions {
		t.Error("region add not folded")
	}
	if len(d.AddedLinks) != 0 {
		t.Errorf("AddedLinks = %v, want none", d.AddedLinks)
	}
	// Link 2: capacity change + disable. Links 0, 1: sampling changes
	// (FailProb on 0, SRLG cut prob on both).
	if got, want := d.CapTouched, []int{2}; !intsEqual(got, want) {
		t.Errorf("CapTouched = %v, want %v", got, want)
	}
	if got, want := d.SampleTouched, []int{0, 1, 2}; !intsEqual(got, want) {
		t.Errorf("SampleTouched = %v, want %v", got, want)
	}
}

func TestDeltaSinceExcludesLinksAddedInSpan(t *testing.T) {
	// A link born inside the span shows up ONLY in AddedLinks, even when the
	// same span later mutates it: the cache has no prior state to patch.
	topo := journalTestTopo(t)
	base := topo.Epoch()
	id, err := topo.AddLink("C", "A", 100, 0.05, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetCapacity(id, 300); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetLinkFailProb(id, 0.4); err != nil {
		t.Fatal(err)
	}
	d, ok := topo.DeltaSince(base)
	if !ok {
		t.Fatal("covered span reported as untraceable")
	}
	if got, want := d.AddedLinks, []int{id}; !intsEqual(got, want) {
		t.Errorf("AddedLinks = %v, want %v", got, want)
	}
	if len(d.CapTouched) != 0 || len(d.SampleTouched) != 0 {
		t.Errorf("in-span link leaked into CapTouched=%v SampleTouched=%v",
			d.CapTouched, d.SampleTouched)
	}
}

func TestDeltaSinceUntraceableSpans(t *testing.T) {
	topo := journalTestTopo(t)
	// since ahead of the current epoch: a cache keyed on another topology
	// instance must recompute, not splice.
	if _, ok := topo.DeltaSince(topo.Epoch() + 1); ok {
		t.Error("future epoch reported traceable")
	}
	// Overflow the journal ring: the oldest epochs become untraceable while
	// recent spans still answer.
	for i := 0; i < maxJournal+10; i++ {
		if err := topo.SetCapacity(0, float64(100+i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := topo.DeltaSince(0); ok {
		t.Error("pre-truncation epoch reported traceable")
	}
	recent := topo.Epoch()
	if err := topo.SetCapacity(1, 500); err != nil {
		t.Fatal(err)
	}
	d, ok := topo.DeltaSince(recent)
	if !ok || !intsEqual(d.CapTouched, []int{1}) {
		t.Errorf("post-truncation recent span: delta=%+v ok=%v", d, ok)
	}
}

func TestSetLinkDisabled(t *testing.T) {
	topo := journalTestTopo(t)
	ep := topo.Epoch()
	// Redundant toggle: no epoch bump, no journal entry.
	if err := topo.SetLinkDisabled(0, false); err != nil {
		t.Fatal(err)
	}
	if topo.Epoch() != ep {
		t.Fatal("no-op disable bumped the epoch")
	}
	if err := topo.SetLinkDisabled(0, true); err != nil {
		t.Fatal(err)
	}
	if topo.Epoch() != ep+1 {
		t.Fatal("disable did not bump the epoch")
	}
	if !topo.Link(0).Disabled {
		t.Fatal("link not disabled")
	}
	// Disabled links are down even in the forced all-up state and in every
	// sampled scenario.
	if topo.AllUp().IsUp(0) {
		t.Error("disabled link up in AllUp")
	}
	for j := 0; j < 20; j++ {
		if !topo.SampleFailureAt(1, j).Down[0] {
			t.Errorf("disabled link up in scenario %d", j)
		}
	}
	if err := topo.SetLinkDisabled(99, true); err == nil {
		t.Error("unknown link accepted")
	}
	d, ok := topo.DeltaSince(ep)
	if !ok || !intsEqual(d.SampleTouched, []int{0}) {
		t.Errorf("disable delta = %+v ok=%v, want SampleTouched [0]", d, ok)
	}
}

func TestSetLinkFailProbValidation(t *testing.T) {
	topo := journalTestTopo(t)
	if err := topo.SetLinkFailProb(0, -0.1); err == nil {
		t.Error("negative probability accepted")
	}
	if err := topo.SetLinkFailProb(0, 1); err == nil {
		t.Error("probability 1 accepted")
	}
	if err := topo.SetLinkFailProb(99, 0.5); err == nil {
		t.Error("unknown link accepted")
	}
	if err := topo.SetLinkFailProb(0, 0.25); err != nil {
		t.Fatal(err)
	}
	if topo.Link(0).FailProb != 0.25 {
		t.Fatal("probability not applied")
	}
}

// TestSampleFailureAtDecomposable: scenario j's state is random-access
// (independent of other scenarios) and link i's bit depends only on its own
// sampling inputs, so mutating one link perturbs no other link's bits in any
// scenario.
func TestSampleFailureAtDecomposable(t *testing.T) {
	opts := DefaultBackboneOptions()
	opts.Regions = 8
	opts.LinkFail = 0.1
	opts.FiberCut = 0.05
	topo, err := Backbone(opts)
	if err != nil {
		t.Fatal(err)
	}
	const seed, scenarios = 11, 40
	before := make([]*FailureState, scenarios)
	for j := range before {
		before[j] = topo.SampleFailureAt(seed, j)
	}
	for j := 0; j < scenarios; j++ {
		again := topo.SampleFailureAt(seed, j)
		for i := range before[j].Down {
			if before[j].Down[i] != again.Down[i] {
				t.Fatalf("scenario %d link %d not deterministic", j, i)
			}
		}
	}
	// Mutate one link's failure probability; every OTHER link's bit must be
	// unchanged in every scenario.
	const touched = 3
	if err := topo.SetLinkFailProb(touched, 0.9); err != nil {
		t.Fatal(err)
	}
	flips := 0
	for j := 0; j < scenarios; j++ {
		after := topo.SampleFailureAt(seed, j)
		for i := range after.Down {
			if i == touched {
				if after.Down[i] != before[j].Down[i] {
					flips++
				}
				continue
			}
			if after.Down[i] != before[j].Down[i] {
				t.Fatalf("scenario %d: untouched link %d flipped after mutating link %d",
					j, i, touched)
			}
		}
	}
	if flips == 0 {
		t.Error("raising FailProb 0.1 -> 0.9 flipped no bits in 40 scenarios")
	}
}

// TestSampleFailureAtRates checks the hash draws actually hit their target
// probabilities.
func TestSampleFailureAtRates(t *testing.T) {
	topo := New()
	topo.EnsureSRLG(0, 0.2)
	if _, _, err := topo.AddBidirectional("A", "B", 100, 0, 0); err != nil {
		t.Fatal(err)
	}
	solo, err := topo.AddLink("A", "C", 100, 0.3, -1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	cut, fail := 0, 0
	for j := 0; j < n; j++ {
		s := topo.SampleFailureAt(7, j)
		if s.Down[0] != s.Down[1] {
			t.Fatalf("scenario %d: SRLG members split (%v vs %v)", j, s.Down[0], s.Down[1])
		}
		if s.Down[0] {
			cut++
		}
		if s.Down[solo] {
			fail++
		}
	}
	if got := float64(cut) / n; math.Abs(got-0.2) > 0.01 {
		t.Errorf("SRLG cut rate = %v, want ~0.2", got)
	}
	if got := float64(fail) / n; math.Abs(got-0.3) > 0.01 {
		t.Errorf("independent failure rate = %v, want ~0.3", got)
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
