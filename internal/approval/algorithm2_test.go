package approval

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"entitlement/internal/contract"
	"entitlement/internal/flow"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// The oracle below is Algorithm 2's PIPE_APPROVAL routine with the paper's
// explicit per-class loop: "it starts from Pipe requests of the most premium
// class (c1_low) and works on one class at a time until reaching the least
// premium one (c4_high)", carrying previously approved classes as background
// demand (the MERGE_REQS accumulation) and reading each pipe's availability
// curve at the SLO target.
//
// Approve (approval.go) reaches the same outcome by letting the allocator
// enforce class priority inside a single assessment, which is cheaper, so no
// production path runs this routine. It stays here as the oracle Approve is
// checked against (TestPipeApprovalAgainstApprove), faithful to the published
// pseudocode and to its strict batch rule ("only when 100% of the flow meets
// SLO, the batch of flows is approved").

// PipeDecision is one pipe's Algorithm 2 outcome.
type PipeDecision struct {
	Pipe hose.PipeRequest
	// ApprovedRate is the volume guaranteed at the NPG's SLO (0 when the
	// strict batch rule rejected the class batch).
	ApprovedRate float64
	// MetSLO reports whether the full requested rate met the SLO.
	MetSLO bool
}

// PipeApprovalOptions configures the explicit routine.
type PipeApprovalOptions struct {
	// SLOs maps NPG → availability target; DefaultSLO covers the rest.
	SLOs       map[contract.NPG]contract.SLO
	DefaultSLO contract.SLO
	Risk       risk.Options
	// StrictBatch applies the literal batch rule: if any pipe of a class
	// batch fails its SLO at the full requested rate, the whole batch is
	// rejected. When false (default), each pipe is approved at its
	// guaranteed volume — the behavior the rest of the pipeline uses.
	StrictBatch bool
}

func (o PipeApprovalOptions) slo(npg contract.NPG) float64 {
	if s, ok := o.SLOs[npg]; ok {
		return float64(s)
	}
	if o.DefaultSLO > 0 {
		return float64(o.DefaultSLO)
	}
	return 0.99
}

// PipeApproval runs Algorithm 2 lines 12–24 over one set of pipe requests.
// The result preserves the input order.
func PipeApproval(topo *topology.Topology, pipes []hose.PipeRequest, opts PipeApprovalOptions) ([]PipeDecision, error) {
	decisions := make([]PipeDecision, len(pipes))
	for i, p := range pipes {
		decisions[i] = PipeDecision{Pipe: p}
	}
	// Group pipe indexes per class (line 16's per-class iteration, most
	// premium first).
	byClass := make(map[contract.Class][]int)
	for i, p := range pipes {
		byClass[p.Class] = append(byClass[p.Class], i)
	}
	classes := make([]contract.Class, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	// tmp_requests: approved higher-priority demand carried as background.
	var background []flow.Demand
	for _, cos := range classes {
		idxs := byClass[cos]
		// COS_PIPES: this class's pipes plus the background context.
		demands := make([]flow.Demand, 0, len(background)+len(idxs))
		demands = append(demands, background...)
		keyOf := func(i int) string { return fmt.Sprintf("alg2/%d/%s", i, pipes[i].Key()) }
		for _, i := range idxs {
			p := pipes[i]
			demands = append(demands, flow.Demand{
				Key: keyOf(i), Src: p.Src, Dst: p.Dst, Rate: p.Rate, Class: int(p.Class),
			})
		}
		// ASSESS_RISK: availability curves under failures.
		res, err := risk.Assess(topo, demands, opts.Risk)
		if err != nil {
			return nil, fmt.Errorf("approval: class %v risk assessment: %w", cos, err)
		}
		// tmp_approvals: read each curve at the SLO target.
		batchOK := true
		for _, i := range idxs {
			slo := opts.slo(pipes[i].NPG)
			guaranteed := res.GuaranteedRate(keyOf(i), slo)
			if guaranteed > pipes[i].Rate {
				guaranteed = pipes[i].Rate
			}
			decisions[i].ApprovedRate = guaranteed
			decisions[i].MetSLO = guaranteed >= pipes[i].Rate-1e-9
			if !decisions[i].MetSLO {
				batchOK = false
			}
		}
		if opts.StrictBatch && !batchOK {
			// "If any flow fails, the batch is rejected."
			for _, i := range idxs {
				decisions[i].ApprovedRate = 0
			}
			continue // rejected batches contribute no background demand
		}
		// MERGE_REQS: the approved volumes become background for the next
		// (less premium) class.
		for _, i := range idxs {
			if decisions[i].ApprovedRate <= 0 {
				continue
			}
			p := pipes[i]
			background = append(background, flow.Demand{
				Key: "bg/" + keyOf(i), Src: p.Src, Dst: p.Dst,
				Rate: decisions[i].ApprovedRate, Class: int(p.Class),
			})
		}
	}
	return decisions, nil
}

// HoseApprovalFromPipes aggregates pipe decisions back into per-hose
// approvals (Algorithm 2 lines 7–9: sum pipe approvals per hose; callers
// with several realizations take the min across them).
func HoseApprovalFromPipes(decisions []PipeDecision) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range decisions {
		egress := hose.Request{
			NPG: d.Pipe.NPG, Class: d.Pipe.Class,
			Region: d.Pipe.Src, Direction: contract.Egress,
		}
		ingress := hose.Request{
			NPG: d.Pipe.NPG, Class: d.Pipe.Class,
			Region: d.Pipe.Dst, Direction: contract.Ingress,
		}
		out[egress.Key()] += d.ApprovedRate
		out[ingress.Key()] += d.ApprovedRate
	}
	return out
}

func alg2Opts() PipeApprovalOptions {
	return PipeApprovalOptions{
		DefaultSLO: 0.95,
		Risk:       risk.Options{Scenarios: 40, Seed: 3},
	}
}

func TestPipeApprovalSimple(t *testing.T) {
	topo := meshTopo(3, 1000, 0)
	pipes := []hose.PipeRequest{
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "B", Rate: 300},
	}
	dec, err := PipeApproval(topo, pipes, alg2Opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 1 || !dec[0].MetSLO || math.Abs(dec[0].ApprovedRate-300) > 1e-6 {
		t.Errorf("decision = %+v", dec)
	}
}

func TestPipeApprovalClassPriority(t *testing.T) {
	// One 100-capacity direct link A->B (mesh of 3 with cap 100 gives two
	// paths: direct 100 + via C 100 = 200 total). Premium demand 200 takes
	// everything; the low class gets nothing.
	topo := meshTopo(3, 100, 0)
	pipes := []hose.PipeRequest{
		{NPG: "Low", Class: contract.C4High, Src: "A", Dst: "B", Rate: 200},
		{NPG: "High", Class: contract.C1Low, Src: "A", Dst: "B", Rate: 200},
	}
	dec, err := PipeApproval(topo, pipes, alg2Opts())
	if err != nil {
		t.Fatal(err)
	}
	var high, low *PipeDecision
	for i := range dec {
		if dec[i].Pipe.NPG == "High" {
			high = &dec[i]
		} else {
			low = &dec[i]
		}
	}
	if math.Abs(high.ApprovedRate-200) > 1e-6 {
		t.Errorf("premium approved %v, want 200", high.ApprovedRate)
	}
	if low.ApprovedRate > 1e-6 {
		t.Errorf("low class approved %v despite exhausted capacity", low.ApprovedRate)
	}
}

func TestPipeApprovalHigherClassUnaffectedByLower(t *testing.T) {
	topo := meshTopo(4, 200, 0.05)
	premium := hose.PipeRequest{NPG: "P", Class: contract.C1Low, Src: "A", Dst: "B", Rate: 150}
	noise := []hose.PipeRequest{
		{NPG: "N1", Class: contract.C3Low, Src: "A", Dst: "C", Rate: 300},
		{NPG: "N2", Class: contract.C4Low, Src: "B", Dst: "D", Rate: 300},
	}
	alone, err := PipeApproval(topo, []hose.PipeRequest{premium}, alg2Opts())
	if err != nil {
		t.Fatal(err)
	}
	together, err := PipeApproval(topo, append([]hose.PipeRequest{premium}, noise...), alg2Opts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alone[0].ApprovedRate-together[0].ApprovedRate) > 1e-6 {
		t.Errorf("premium approval changed by lower classes: %v vs %v",
			alone[0].ApprovedRate, together[0].ApprovedRate)
	}
}

func TestPipeApprovalStrictBatch(t *testing.T) {
	// Two same-class pipes; one cannot be satisfied. Strict batching
	// rejects both ("if any flow fails, the batch is rejected").
	topo := meshTopo(3, 100, 0)
	pipes := []hose.PipeRequest{
		{NPG: "S", Class: contract.ClassB, Src: "A", Dst: "B", Rate: 50},
		{NPG: "S", Class: contract.ClassB, Src: "A", Dst: "C", Rate: 500}, // infeasible
	}
	strict := alg2Opts()
	strict.StrictBatch = true
	dec, err := PipeApproval(topo, pipes, strict)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if dec[i].ApprovedRate != 0 {
			t.Errorf("strict batch pipe %d approved %v, want 0", i, dec[i].ApprovedRate)
		}
	}
	// Without strict batching the feasible pipe is approved.
	loose, err := PipeApproval(topo, pipes, alg2Opts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loose[0].ApprovedRate-50) > 1e-6 {
		t.Errorf("loose pipe 0 approved %v, want 50", loose[0].ApprovedRate)
	}
	if loose[1].MetSLO {
		t.Error("infeasible pipe met SLO")
	}
}

func TestPipeApprovalAgainstApprove(t *testing.T) {
	// The explicit Algorithm 2 loop and the allocator-fused Approve must
	// agree on a simple scenario: one hose, full capacity.
	topo := meshTopo(4, 1000, 0)
	h := egressHose("Svc", "A", 600, contract.ClassB)
	res, err := Approve(topo, []hose.Request{h}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Same demand expressed as explicit pipes (uniform realization).
	pipes := []hose.PipeRequest{
		{NPG: "Svc", Class: contract.ClassB, Src: "A", Dst: "B", Rate: 200},
		{NPG: "Svc", Class: contract.ClassB, Src: "A", Dst: "C", Rate: 200},
		{NPG: "Svc", Class: contract.ClassB, Src: "A", Dst: "D", Rate: 200},
	}
	dec, err := PipeApproval(topo, pipes, alg2Opts())
	if err != nil {
		t.Fatal(err)
	}
	agg := HoseApprovalFromPipes(dec)
	got := agg[h.Key()]
	want := res.Approvals[0].ApprovedRate
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("Algorithm 2 hose approval %v != Approve %v", got, want)
	}
}

func TestHoseApprovalFromPipes(t *testing.T) {
	dec := []PipeDecision{
		{Pipe: hose.PipeRequest{NPG: "S", Class: contract.ClassA, Src: "A", Dst: "B"}, ApprovedRate: 100},
		{Pipe: hose.PipeRequest{NPG: "S", Class: contract.ClassA, Src: "A", Dst: "C"}, ApprovedRate: 50},
	}
	agg := HoseApprovalFromPipes(dec)
	eg := hose.Request{NPG: "S", Class: contract.ClassA, Region: "A", Direction: contract.Egress}
	if agg[eg.Key()] != 150 {
		t.Errorf("egress aggregate = %v, want 150", agg[eg.Key()])
	}
	inB := hose.Request{NPG: "S", Class: contract.ClassA, Region: "B", Direction: contract.Ingress}
	if agg[inB.Key()] != 100 {
		t.Errorf("ingress B = %v", agg[inB.Key()])
	}
}
