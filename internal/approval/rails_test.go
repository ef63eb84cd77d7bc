package approval

import (
	"math"
	"testing"

	"entitlement/internal/contract"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
)

func searchOptsForTest() Options {
	o := testOpts()
	o.Negotiation = NegotiateOptions{Enabled: true}
	return o
}

// TestNegotiateSearchDisabledIsPlain: with the search off, NegotiateSearch is
// exactly Negotiate — same proposals, no counter-offers, no evals.
func TestNegotiateSearchDisabledIsPlain(t *testing.T) {
	topo := meshTopo(4, 100, 0)
	hoses := []hose.Request{
		egressHose("Big", "A", 900, contract.ClassB),
		egressHose("Small", "B", 50, contract.ClassB),
	}
	res, err := Approve(topo, hoses, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NegotiateSearch(topo, hoses, res, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := Negotiate(res)
	if len(got) != len(want) {
		t.Fatalf("proposals = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].CounterOffer != nil || got[i].Evals != 0 {
			t.Errorf("disabled search produced counter-offer %+v (evals %d)",
				got[i].CounterOffer, got[i].Evals)
		}
		if got[i].AdmittableRate != want[i].AdmittableRate {
			t.Errorf("admittable %v != plain %v", got[i].AdmittableRate, want[i].AdmittableRate)
		}
	}
}

// TestNegotiateSearchClassShift: two same-class hoses splitting a 300-unit
// egress region get ~150 each; the search discovers that shifting one hose a
// class up frees its full 200 — and verifies the shift against the whole
// batch before offering it.
func TestNegotiateSearchClassShift(t *testing.T) {
	topo := meshTopo(4, 100, 0)
	hoses := []hose.Request{
		egressHose("X", "A", 200, contract.C2Low),
		egressHose("Y", "A", 200, contract.C2Low),
	}
	opts := searchOptsForTest()
	opts.Risk.Cache = risk.NewResultCache(0)
	res, err := Approve(topo, hoses, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Approvals {
		if res.Approvals[i].FullyApproved {
			t.Fatalf("hose %d unexpectedly fully approved (no competition?)", i)
		}
	}
	batchEntries := opts.Risk.Cache.Len()
	cps, err := NegotiateSearch(topo, hoses, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.Risk.Cache.Len(); got != batchEntries || got == 0 {
		t.Errorf("caller's result cache holds %d entries after the search, %d before: candidates must go to the search's own cache", got, batchEntries)
	}
	if len(cps) != 2 {
		t.Fatalf("counter-proposals = %d, want 2", len(cps))
	}
	for i, cp := range cps {
		if cp.CounterOffer == nil {
			t.Fatalf("proposal %d: no counter-offer found", i)
		}
		// The nearest higher-priority shift at the full rate wins first.
		if cp.CounterOffer.Class != contract.C1High {
			t.Errorf("proposal %d: offered class %v, want %v (one step up)",
				i, cp.CounterOffer.Class, contract.C1High)
		}
		if math.Abs(cp.CounterOffer.Rate-200) > 1e-9 {
			t.Errorf("proposal %d: offered rate %v, want the full 200", i, cp.CounterOffer.Rate)
		}
		if cp.Evals < 1 || cp.Evals > 8 {
			t.Errorf("proposal %d: evals = %d, want within (0, MaxEvals]", i, cp.Evals)
		}
	}
}

// TestNegotiateSearchNoDegradation: a shift that would fully approve the
// under-approved hose by stealing capacity from a previously fully-approved
// premium hose is rejected; capacity-bound shrinks cannot beat the admittable
// volume either, so no counter-offer survives.
func TestNegotiateSearchNoDegradation(t *testing.T) {
	topo := meshTopo(4, 100, 0)
	hoses := []hose.Request{
		egressHose("Premium", "A", 200, contract.C1High),
		egressHose("X", "A", 200, contract.C2Low),
	}
	opts := searchOptsForTest()
	res, err := Approve(topo, hoses, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approvals[0].FullyApproved {
		t.Fatal("premium hose not fully approved")
	}
	if res.Approvals[1].FullyApproved {
		t.Fatal("competing hose unexpectedly fully approved")
	}
	cps, err := NegotiateSearch(topo, hoses, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Fatalf("counter-proposals = %d, want 1", len(cps))
	}
	if cps[0].CounterOffer != nil {
		t.Errorf("search funded a counter-offer %+v by degrading the premium grant",
			cps[0].CounterOffer)
	}
	// Confirm the degradation is real: the shift the search rejected would
	// indeed have knocked out the premium hose.
	shifted := append([]hose.Request(nil), hoses...)
	shifted[1].Class = contract.C1Low
	r2, err := Approve(topo, shifted, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Approvals[1].FullyApproved || r2.Approvals[0].FullyApproved {
		t.Skip("scenario no longer exhibits the degradation trade-off")
	}
}

// TestNegotiateSearchCapacityBound: a lone oversized ask has no competition
// to shift around, and the allocator is monotone (asking less never unlocks
// more than the admittable volume), so the search must conclude plain
// Negotiate was right — no offer, nothing fabricated.
func TestNegotiateSearchCapacityBound(t *testing.T) {
	topo := meshTopo(4, 100, 0)
	hoses := []hose.Request{egressHose("Big", "A", 900, contract.ClassB)}
	opts := searchOptsForTest()
	res, err := Approve(topo, hoses, opts)
	if err != nil {
		t.Fatal(err)
	}
	cps, err := NegotiateSearch(topo, hoses, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Fatalf("counter-proposals = %d, want 1", len(cps))
	}
	if cps[0].CounterOffer != nil {
		t.Errorf("capacity-bound ask got counter-offer %+v (rate %v vs admittable %v)",
			cps[0].CounterOffer, cps[0].CounterOffer.Rate, cps[0].AdmittableRate)
	}
}

// TestNegotiateSearchDeterministic: the search is a fixed-order enumeration
// of seeded re-approvals, so identical inputs yield identical offers.
func TestNegotiateSearchDeterministic(t *testing.T) {
	topo := meshTopo(4, 100, 0)
	hoses := []hose.Request{
		egressHose("X", "A", 200, contract.C2Low),
		egressHose("Y", "A", 200, contract.C2Low),
		egressHose("Big", "B", 700, contract.ClassB),
	}
	opts := searchOptsForTest()
	res, err := Approve(topo, hoses, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NegotiateSearch(topo, hoses, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NegotiateSearch(topo, hoses, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("proposal counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Evals != b[i].Evals {
			t.Errorf("proposal %d: evals %d vs %d", i, a[i].Evals, b[i].Evals)
		}
		ca, cb := a[i].CounterOffer, b[i].CounterOffer
		if (ca == nil) != (cb == nil) {
			t.Fatalf("proposal %d: offer presence differs", i)
		}
		if ca != nil && (ca.Class != cb.Class || ca.Rate != cb.Rate) {
			t.Errorf("proposal %d: offer %+v vs %+v", i, *ca, *cb)
		}
	}
}

// TestNegotiateSearchFullBatch: nothing to negotiate means no proposals even
// with the search enabled.
func TestNegotiateSearchFullBatch(t *testing.T) {
	topo := meshTopo(3, 1000, 0)
	hoses := []hose.Request{egressHose("S", "A", 10, contract.ClassA)}
	opts := searchOptsForTest()
	res, err := Approve(topo, hoses, opts)
	if err != nil {
		t.Fatal(err)
	}
	cps, err := NegotiateSearch(topo, hoses, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 0 {
		t.Errorf("unexpected proposals: %v", cps)
	}
}
