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

func TestSetLinkDisabled(t *testing.T) {
	topo := journalTestTopo(t)
	ep := topo.Epoch()
	// Redundant toggle: no epoch bump.
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
