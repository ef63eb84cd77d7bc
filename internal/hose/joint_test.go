package hose

import (
	"math"
	"testing"
	"testing/quick"

	"entitlement/internal/contract"
	"entitlement/internal/topology"
)

func jointHoses(rates map[topology.Region][2]float64) []Request {
	var out []Request
	var regions []topology.Region
	for r := range rates {
		regions = append(regions, r)
	}
	// Deterministic order.
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			if regions[j] < regions[i] {
				regions[i], regions[j] = regions[j], regions[i]
			}
		}
	}
	for _, r := range regions {
		eg, in := rates[r][0], rates[r][1]
		if eg > 0 {
			out = append(out, Request{NPG: "S", Class: contract.ClassB, Region: r,
				Direction: contract.Egress, Rate: eg})
		}
		if in > 0 {
			out = append(out, Request{NPG: "S", Class: contract.ClassB, Region: r,
				Direction: contract.Ingress, Rate: in})
		}
	}
	return out
}

func TestJointSamplerFeasibility(t *testing.T) {
	hoses := jointHoses(map[topology.Region][2]float64{
		"A": {900, 100}, "B": {200, 400}, "C": {100, 300}, "D": {50, 450},
	})
	js, err := NewJointSampler(hoses, 5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		tm := js.Sample(1)
		for _, r := range js.Regions() {
			if eg := tm.EgressSum(r); eg > 900+1e-6 && r == "A" {
				t.Fatalf("egress[%s] = %v exceeds hose", r, eg)
			}
		}
		// Every region's sums within its constraints.
		checks := map[topology.Region][2]float64{
			"A": {900, 100}, "B": {200, 400}, "C": {100, 300}, "D": {50, 450},
		}
		for r, lim := range checks {
			if got := tm.EgressSum(r); got > lim[0]*1.001+1e-6 {
				t.Fatalf("trial %d: egress[%s] = %v > %v", trial, r, got, lim[0])
			}
			if got := tm.IngressSum(r); got > lim[1]*1.001+1e-6 {
				t.Fatalf("trial %d: ingress[%s] = %v > %v", trial, r, got, lim[1])
			}
		}
		// No self traffic.
		for src, row := range tm.Rates {
			if _, ok := row[src]; ok {
				t.Fatal("self traffic present")
			}
		}
	}
}

func TestJointSamplerBindingDirectionTight(t *testing.T) {
	// Total egress 1250 vs total ingress 1250 (balanced): at scale 1 the
	// grand total should approach the common total.
	hoses := jointHoses(map[topology.Region][2]float64{
		"A": {900, 100}, "B": {200, 400}, "C": {100, 300}, "D": {50, 450},
	})
	js, err := NewJointSampler(hoses, 9)
	if err != nil {
		t.Fatal(err)
	}
	tm := js.Sample(1)
	total := 0.0
	for _, r := range js.Regions() {
		total += tm.EgressSum(r)
	}
	if total < 1250*0.95 {
		t.Errorf("grand total = %v, want ~1250 (tight)", total)
	}
}

func TestJointSamplerUnbalancedHoses(t *testing.T) {
	// Egress total 1000, ingress total 400: the feasible common total is
	// 400; samples must respect ingress exactly and leave egress slack.
	hoses := jointHoses(map[topology.Region][2]float64{
		"A": {800, 100}, "B": {200, 300},
	})
	js, err := NewJointSampler(hoses, 3)
	if err != nil {
		t.Fatal(err)
	}
	tm := js.Sample(1)
	if got := tm.IngressSum("A"); got > 100+1e-6 {
		t.Errorf("ingress[A] = %v > 100", got)
	}
	if got := tm.IngressSum("B"); got > 300+1e-6 {
		t.Errorf("ingress[B] = %v > 300", got)
	}
	total := tm.EgressSum("A") + tm.EgressSum("B")
	if total > 400+1e-6 {
		t.Errorf("grand total %v exceeds feasible 400", total)
	}
	if total < 350 {
		t.Errorf("grand total %v far below feasible 400", total)
	}
}

func TestJointSamplerInterior(t *testing.T) {
	hoses := jointHoses(map[topology.Region][2]float64{
		"A": {100, 100}, "B": {100, 100}, "C": {100, 100},
	})
	js, err := NewJointSampler(hoses, 7)
	if err != nil {
		t.Fatal(err)
	}
	sawPartial := false
	for i := 0; i < 30; i++ {
		tm := js.Interior()
		total := 0.0
		for _, r := range js.Regions() {
			if tm.EgressSum(r) > 100+1e-6 {
				t.Fatal("interior sample violates egress")
			}
			total += tm.EgressSum(r)
		}
		if total < 250 {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("interior samples never partial")
	}
}

func TestJointSamplerPipes(t *testing.T) {
	hoses := jointHoses(map[topology.Region][2]float64{
		"A": {100, 50}, "B": {50, 100},
	})
	js, err := NewJointSampler(hoses, 1)
	if err != nil {
		t.Fatal(err)
	}
	tm := js.Sample(1)
	pipes := tm.Pipes("S", contract.ClassB)
	if len(pipes) == 0 {
		t.Fatal("no pipes")
	}
	sum := 0.0
	for _, p := range pipes {
		if p.NPG != "S" || p.Class != contract.ClassB {
			t.Errorf("pipe identity = %+v", p)
		}
		if p.Src == p.Dst {
			t.Error("self pipe")
		}
		sum += p.Rate
	}
	want := tm.EgressSum("A") + tm.EgressSum("B")
	if math.Abs(sum-want) > 1e-9 {
		t.Errorf("pipes sum %v != matrix total %v", sum, want)
	}
}

func TestNewJointSamplerValidation(t *testing.T) {
	if _, err := NewJointSampler(nil, 1); err == nil {
		t.Error("empty hoses accepted")
	}
	onlyEgress := []Request{{NPG: "S", Region: "A", Direction: contract.Egress, Rate: 10}}
	if _, err := NewJointSampler(onlyEgress, 1); err == nil {
		t.Error("egress-only accepted")
	}
	mixed := []Request{
		{NPG: "S", Class: contract.ClassA, Region: "A", Direction: contract.Egress, Rate: 10},
		{NPG: "T", Class: contract.ClassA, Region: "B", Direction: contract.Ingress, Rate: 10},
	}
	if _, err := NewJointSampler(mixed, 1); err == nil {
		t.Error("mixed NPGs accepted")
	}
	negative := []Request{
		{NPG: "S", Region: "A", Direction: contract.Egress, Rate: -1},
		{NPG: "S", Region: "B", Direction: contract.Ingress, Rate: 10},
	}
	if _, err := NewJointSampler(negative, 1); err == nil {
		t.Error("negative rate accepted")
	}
}

// Property: every joint sample is feasible for arbitrary constraint vectors.
func TestJointSamplerFeasibilityProperty(t *testing.T) {
	f := func(seed int64, egRaw, inRaw [4]uint16) bool {
		rates := make(map[topology.Region][2]float64, 4)
		names := []topology.Region{"A", "B", "C", "D"}
		anyEg, anyIn := false, false
		for i, r := range names {
			eg := float64(egRaw[i])
			in := float64(inRaw[i])
			rates[r] = [2]float64{eg, in}
			anyEg = anyEg || eg > 0
			anyIn = anyIn || in > 0
		}
		if !anyEg || !anyIn {
			return true
		}
		js, err := NewJointSampler(jointHoses(rates), seed)
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			tm := js.Sample(1)
			for _, r := range names {
				if tm.EgressSum(r) > rates[r][0]*1.001+1e-6 {
					return false
				}
				if tm.IngressSum(r) > rates[r][1]*1.001+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// EgressSum returns the row sum for src.
func (tm FullTM) EgressSum(src topology.Region) float64 {
	s := 0.0
	for _, v := range tm.Rates[src] {
		s += v
	}
	return s
}

// IngressSum returns the column sum for dst.
func (tm FullTM) IngressSum(dst topology.Region) float64 {
	s := 0.0
	for _, row := range tm.Rates {
		s += row[dst]
	}
	return s
}
