package granting

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/hose"
	"entitlement/internal/topology"
)

// gridTopo builds a reliable full mesh for negotiation scenarios where the
// capacity arithmetic must be exact.
func gridTopo(n int, capacity float64) *topology.Topology {
	t := topology.New()
	names := make([]topology.Region, n)
	for i := range names {
		names[i] = topology.Region(string(rune('A' + i)))
	}
	srlg := 0
	for i := range names {
		for j := i + 1; j < n; j++ {
			t.EnsureSRLG(srlg, 0)
			t.AddBidirectional(names[i], names[j], capacity, 0, srlg)
			srlg++
		}
	}
	return t
}

func decideAll(t *testing.T, svc *Service, reqs []Request) []Decision {
	t.Helper()
	ids, err := svc.SubmitGroup(reqs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Decision, len(ids))
	for i, id := range ids {
		d, err := svc.Wait(id, 2*time.Minute)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		d2 := *d
		d2.ID = ""
		out[i] = d2
	}
	return out
}

// TestPostMutationDecisionsMatchFreshService is the end-to-end byte-identity
// bar for the epoch-validity rule: after any topology mutation — a region
// add included — a warm service (memo dropped, result-cache entries stale)
// must produce exactly the decisions a cold DecideBatch computes from scratch
// on the mutated topology.
func TestPostMutationDecisionsMatchFreshService(t *testing.T) {
	topo := topology.FigureSix()
	svc := NewService(topo, nil, testOptions(2))
	defer svc.Close()

	reqs := testRequests()
	decideAll(t, svc, reqs) // warm the caches at the pre-mutation epoch

	mutations := []func() error{
		func() error { return topo.SetLinkFailProb(1, 0.01) },
		func() error { return topo.SetCapacity(2, 3e12) },
		func() error { return topo.SetLinkDisabled(3, true) },
		func() error { topo.AddRegion("NEWPOP"); return nil },
		func() error { _, err := topo.AddLink("A", "NEWPOP", 1e12, 0.01, -1); return err },
	}
	for step, mutate := range mutations {
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		warm := FormatDecisions(decideAll(t, svc, reqs))
		coldDecs, err := DecideBatch(topo, append([]Request(nil), reqs...), testOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		cold := FormatDecisions(coldDecs)
		if warm != cold {
			t.Errorf("step %d: warm service diverged from cold batch after mutation:\n--- warm ---\n%s--- cold ---\n%s",
				step, warm, cold)
		}
	}
}

// TestMemoLRUEviction pins the MemoMaxEntries bound: distinct batch
// compositions beyond the cap evict the least recently used entry and count
// it, and the evicted batch re-decides as a miss.
func TestMemoLRUEviction(t *testing.T) {
	topo := topology.FigureSix()
	opts := testOptions(0)
	opts.MemoMaxEntries = 2
	svc := NewService(topo, nil, opts)
	defer svc.Close()

	mkReq := func(i int) []Request {
		return []Request{{
			NPG: contract.NPG(fmt.Sprintf("npg-%d", i)), StartUnix: testStart.Unix(),
			Negotiate: true,
			Hoses: []hose.Request{{
				Class: contract.C3Low, Region: "A", Direction: contract.Egress,
				Rate: float64(i+1) * 1e9,
			}},
		}}
	}
	evictionsBefore := mMemoEvictions.Value()
	for i := 0; i < 3; i++ {
		decideAll(t, svc, mkReq(i))
	}
	if n := svc.c.memoLen(); n != 2 {
		t.Fatalf("memo holds %d batches, want 2", n)
	}
	if mMemoEvictions.Value() != evictionsBefore+1 {
		t.Errorf("evictions counter %d -> %d, want +1", evictionsBefore, mMemoEvictions.Value())
	}
	// Batch 0 was evicted: deciding it again is a miss; batch 2 still hits.
	st := svc.Stats()
	decideAll(t, svc, mkReq(0))
	st2 := svc.Stats()
	if st2.MemoMisses <= st.MemoMisses {
		t.Error("evicted batch served from the memo")
	}
	decideAll(t, svc, mkReq(2))
	st3 := svc.Stats()
	if st3.MemoHits <= st2.MemoHits {
		t.Error("recently used batch was evicted instead of the LRU one")
	}
}

// TestDecideBatchCounterOffer: with the negotiation search enabled, two
// same-class hoses splitting one region's egress get genuine counter-offers
// (a one-step class shift at the full rate), rendered in the decision text;
// with the search disabled the same batch renders no counter-offer line.
func TestDecideBatchCounterOffer(t *testing.T) {
	topo := gridTopo(4, 100e9)
	reqs := []Request{
		{NPG: "X", StartUnix: testStart.Unix(), Hoses: []hose.Request{
			{Class: contract.C2Low, Region: "A", Direction: contract.Egress, Rate: 200e9},
		}},
		{NPG: "Y", StartUnix: testStart.Unix(), Hoses: []hose.Request{
			{Class: contract.C2Low, Region: "A", Direction: contract.Egress, Rate: 200e9},
		}},
	}
	opts := testOptions(1)
	plainDecs, err := DecideBatch(topo, append([]Request(nil), reqs...), opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatDecisions(plainDecs); strings.Contains(s, "counter-offer") {
		t.Fatalf("search disabled but counter-offer rendered:\n%s", s)
	}

	opts.Approval.Negotiation.Enabled = true
	decs, err := DecideBatch(topo, append([]Request(nil), reqs...), opts)
	if err != nil {
		t.Fatal(err)
	}
	offers := 0
	for _, d := range decs {
		for _, p := range d.Proposals {
			if p.CounterOffer == nil {
				continue
			}
			offers++
			if p.CounterOffer.Class != contract.C1High {
				t.Errorf("%s: offered class %v, want %v", d.NPG, p.CounterOffer.Class, contract.C1High)
			}
			if p.CounterOffer.Rate != 200e9 {
				t.Errorf("%s: offered rate %v, want the full 200G", d.NPG, p.CounterOffer.Rate)
			}
		}
	}
	if offers != 2 {
		t.Fatalf("counter-offers = %d, want 2:\n%s", offers, FormatDecisions(decs))
	}
	if s := FormatDecisions(decs); !strings.Contains(s, "counter-offer: ") {
		t.Errorf("counter-offer not rendered:\n%s", s)
	}
}
