package granting

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

var testStart = time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)

// testOptions keeps decisions fast but real: Monte-Carlo risk over the
// FigureSix mesh.
func testOptions(workers int) Options {
	return Options{
		Approval: approval.Options{
			RepresentativeTMs: 3,
			DefaultSLO:        0.99,
			Risk:              risk.Options{Scenarios: 60, Seed: 11, Workers: workers},
			Seed:              7,
		},
	}
}

// testRequests builds a mixed batch: multiple NPGs, classes, directions, an
// explicit SLO override, a negotiator, and one hopeless oversubscription.
func testRequests() []Request {
	start := testStart.Unix()
	return []Request{
		{NPG: "Web", StartUnix: start, Hoses: []hose.Request{
			{Class: contract.C2Low, Region: "A", Direction: contract.Egress, Rate: 40e9},
			{Class: contract.C2Low, Region: "B", Direction: contract.Ingress, Rate: 30e9},
		}},
		{NPG: "Ads", SLO: 0.95, StartUnix: start, Hoses: []hose.Request{
			{Class: contract.C2Low, Region: "C", Direction: contract.Egress, Rate: 55e9},
		}},
		{NPG: "Batch", Negotiate: true, StartUnix: start, Hoses: []hose.Request{
			{Class: contract.C3Low, Region: "D", Direction: contract.Egress, Rate: 80e9},
		}},
		{NPG: "Hog", StartUnix: start, Hoses: []hose.Request{
			{Class: contract.C3Low, Region: "E", Direction: contract.Egress, Rate: 9e12},
		}},
	}
}

// TestServiceMatchesBatch pins the determinism guarantee end to end: the
// service deciding a group at Workers=N, a plain DecideBatch at Workers=1,
// and a reversed-order submission must all produce byte-identical formatted
// decisions; a re-submitted group must come from the decision memo without
// changing a byte.
func TestServiceMatchesBatch(t *testing.T) {
	topo := topology.FigureSix()
	reqs := testRequests()

	batchDecs, err := DecideBatch(topo, append([]Request(nil), reqs...), testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	want := FormatDecisions(batchDecs)
	if !strings.Contains(want, "REJECTED") {
		t.Fatalf("expected the oversubscribed request to be rejected:\n%s", want)
	}
	if !strings.Contains(want, "proposal: Hog/c3_low/E/egress") {
		t.Fatalf("expected a counter-proposal for the oversubscribed hose:\n%s", want)
	}

	svc := NewService(topo, nil, testOptions(4))
	defer svc.Close()

	decide := func(rs []Request) []Decision {
		t.Helper()
		ids, err := svc.SubmitGroup(rs)
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
			d2.ID = "" // ids differ per submission; decisions must not
			out[i] = d2
		}
		return out
	}

	got := FormatDecisions(decide(append([]Request(nil), reqs...)))
	if got != want {
		t.Errorf("service (workers=4) diverged from batch (workers=1):\n--- batch ---\n%s--- service ---\n%s", want, got)
	}

	// Arrival order must not matter: reverse the group, match per NPG.
	rev := make([]Request, len(reqs))
	for i := range reqs {
		rev[i] = reqs[len(reqs)-1-i]
	}
	revDecs := decide(rev)
	for i := range rev {
		if revDecs[i].NPG != rev[i].NPG {
			t.Fatalf("reversed submission misattributed decision %d: got %s, want %s", i, revDecs[i].NPG, rev[i].NPG)
		}
	}
	byNPG := make(map[contract.NPG]Decision)
	for _, d := range revDecs {
		byNPG[d.NPG] = d
	}
	for _, bd := range batchDecs {
		var b1, b2 strings.Builder
		bd.ID = ""
		FormatDecision(&b1, &bd)
		rd, ok := byNPG[bd.NPG]
		if !ok {
			t.Fatalf("reversed submission lost %s", bd.NPG)
		}
		FormatDecision(&b2, &rd)
		if b1.String() != b2.String() {
			t.Errorf("reversed arrival changed %s:\n%s\nvs\n%s", bd.NPG, b1.String(), b2.String())
		}
	}

	// Same composition again: served from the decision memo.
	before := svc.Stats()
	again := FormatDecisions(decide(append([]Request(nil), reqs...)))
	if again != want {
		t.Errorf("memoized decisions diverged:\n%s", again)
	}
	after := svc.Stats()
	if after.MemoHits <= before.MemoHits {
		t.Errorf("expected a decision-memo hit, stats %+v -> %+v", before, after)
	}
}

// TestMemoHitRespectsSubmissionOrder: resubmitting the same request SET in
// a different order must serve from the decision memo AND pair every id
// with its own request's decision (regression: the memo used to return the
// first batch's decisions in the first batch's order, so the oversubscribed
// request could receive another NPG's approval).
func TestMemoHitRespectsSubmissionOrder(t *testing.T) {
	topo := topology.FigureSix()
	svc := NewService(topo, nil, testOptions(0))
	defer svc.Close()

	decide := func(rs []Request) []Decision {
		t.Helper()
		ids, err := svc.SubmitGroup(rs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Decision, len(ids))
		for i, id := range ids {
			d, err := svc.Wait(id, 2*time.Minute)
			if err != nil {
				t.Fatalf("wait %s: %v", id, err)
			}
			out[i] = *d
		}
		return out
	}

	reqs := testRequests()
	first := decide(append([]Request(nil), reqs...))
	rev := make([]Request, len(reqs))
	for i := range reqs {
		rev[i] = reqs[len(reqs)-1-i]
	}
	before := svc.Stats()
	revDecs := decide(rev)
	after := svc.Stats()
	if after.MemoHits <= before.MemoHits {
		t.Fatalf("reordered resubmission missed the memo: %+v -> %+v", before, after)
	}
	for i := range rev {
		if revDecs[i].NPG != rev[i].NPG {
			t.Errorf("decision %d attributed to %s, want %s", i, revDecs[i].NPG, rev[i].NPG)
		}
		want := first[len(reqs)-1-i]
		if revDecs[i].Status != want.Status {
			t.Errorf("%s: status %s on memo hit, want %s", rev[i].NPG, revDecs[i].Status, want.Status)
		}
	}
}

// TestServiceStoresContracts wires a contractdb.Store sink and checks the
// grant is immediately visible to the enforcement query path.
func TestServiceStoresContracts(t *testing.T) {
	topo := topology.FigureSix()
	db := contractdb.NewStore()
	svc := NewService(topo, db, testOptions(0))
	defer svc.Close()

	id, err := svc.Submit(Request{
		NPG: "Web", Negotiate: true, StartUnix: testStart.Unix(),
		Hoses: []hose.Request{{Class: contract.C2Low, Region: "A", Direction: contract.Egress, Rate: 40e9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := svc.Wait(id, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d.Contract == nil {
		t.Fatalf("no contract granted: %+v", d)
	}
	at := testStart.Add(24 * time.Hour)
	rate, found, err := db.EntitledRate("Web", contract.C2Low, "A", contract.Egress, at)
	if err != nil || !found {
		t.Fatalf("granted contract not queryable: rate=%v found=%v err=%v", rate, found, err)
	}
	if rate != d.Contract.Entitlements[0].Rate {
		t.Errorf("stored rate %v != granted %v", rate, d.Contract.Entitlements[0].Rate)
	}
	if _, ok := db.SLO("Web"); !ok {
		t.Error("granted contract has no queryable SLO")
	}
}

// TestConcurrentSinglesCoalesce floods the queue from many goroutines and
// checks every submission decides (batching must not lose or wedge work).
func TestConcurrentSinglesCoalesce(t *testing.T) {
	topo := topology.FigureSix()
	svc := NewService(topo, nil, testOptions(0))
	defer svc.Close()

	regions := []topology.Region{"A", "B", "C", "D", "E"}
	const n = 10
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := svc.Submit(Request{
				NPG: contract.NPG("svc-" + string(rune('a'+i))), StartUnix: testStart.Unix(),
				Negotiate: true,
				Hoses: []hose.Request{{
					Class: contract.C3Low, Region: regions[i%len(regions)],
					Direction: contract.Egress, Rate: float64(5+i) * 1e9,
				}},
			})
			if err != nil {
				errs <- err
				return
			}
			d, err := svc.Wait(id, 2*time.Minute)
			if err != nil {
				errs <- err
				return
			}
			if d.Status != StatusApproved && d.Status != StatusNegotiated {
				return // outcome depends on co-batched competition; liveness is the assertion
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Decided != n {
		t.Fatalf("decided %d of %d", st.Decided, n)
	}
	if st.Batches > st.Decided {
		t.Errorf("more batches (%d) than requests (%d)?", st.Batches, st.Decided)
	}
}

// TestEpochFlushInvalidatesMemo: a topology mutation must drop the warm
// decisions (the risk they encode is stale).
func TestEpochFlushInvalidatesMemo(t *testing.T) {
	topo := topology.FigureSix()
	svc := NewService(topo, nil, testOptions(0))
	defer svc.Close()

	req := Request{
		NPG: "Web", Negotiate: true, StartUnix: testStart.Unix(),
		Hoses: []hose.Request{{Class: contract.C2Low, Region: "A", Direction: contract.Egress, Rate: 40e9}},
	}
	submit := func() *Decision {
		t.Helper()
		id, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		d, err := svc.Wait(id, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	submit()
	submit()
	st := svc.Stats()
	if st.MemoHits == 0 {
		t.Fatalf("expected a memo hit before the topology change: %+v", st)
	}
	if err := topo.SetCapacity(0, 2e12); err != nil {
		t.Fatal(err)
	}
	submit()
	st2 := svc.Stats()
	if st2.MemoMisses <= st.MemoMisses {
		t.Errorf("topology change did not flush the memo: %+v -> %+v", st, st2)
	}
}

// TestValidation covers the request-level rejections.
func TestValidation(t *testing.T) {
	topo := topology.FigureSix()
	svc := NewService(topo, nil, testOptions(0))
	defer svc.Close()

	cases := []Request{
		{},         // no NPG
		{NPG: "X"}, // no hoses
		{NPG: "X", SLO: 1.5, Hoses: []hose.Request{{Class: contract.C2Low, Region: "A", Rate: 1e9}}},                                        // bad SLO
		{NPG: "X", Hoses: []hose.Request{{NPG: "Y", Class: contract.C2Low, Region: "A", Rate: 1e9}}},                                        // foreign hose
		{NPG: "X", Hoses: []hose.Request{{Class: contract.C2Low, Region: "NOPE", Rate: 1e9}}},                                               // unknown region
		{NPG: "X", Hoses: []hose.Request{{Class: contract.C2Low, Region: "A", Rate: -1}}},                                                   // negative rate
		{NPG: "X", Hoses: []hose.Request{{Class: contract.Class(99), Region: "A", Rate: 1e9}}},                                              // bad class
		{NPG: "X", Hoses: []hose.Request{{Class: contract.C2Low, Region: "A", Rate: 1e9}, {Class: contract.C2Low, Region: "A", Rate: 2e9}}}, // dup key
	}
	for i, req := range cases {
		if _, err := svc.Submit(req); err == nil {
			t.Errorf("case %d: invalid request accepted: %+v", i, req)
		}
	}
	if _, err := DecideBatch(topo, []Request{
		{NPG: "X", StartUnix: 1, Hoses: []hose.Request{{Class: contract.C2Low, Region: "A", Rate: 1e9}}},
		{NPG: "X", StartUnix: 2, Hoses: []hose.Request{{Class: contract.C2Low, Region: "A", Rate: 1e9}}},
	}, testOptions(0)); err == nil {
		t.Error("cross-request duplicate hose key accepted in one batch")
	}
	if _, err := DecideBatch(topo, []Request{
		{NPG: "X", SLO: 0.9, StartUnix: 1, Hoses: []hose.Request{{Class: contract.C2Low, Region: "A", Rate: 1e9}}},
		{NPG: "X", SLO: 0.99, StartUnix: 1, Hoses: []hose.Request{{Class: contract.C2Low, Region: "B", Rate: 1e9}}},
	}, testOptions(0)); err == nil {
		t.Error("conflicting per-NPG SLOs accepted in one batch")
	}
}

// TestDummyNPGSkipsContract: balancing filler decides but never stores.
func TestDummyNPGSkipsContract(t *testing.T) {
	topo := topology.FigureSix()
	db := contractdb.NewStore()
	svc := NewService(topo, db, testOptions(0))
	defer svc.Close()

	id, err := svc.Submit(Request{
		NPG: hose.DummyNPG, Negotiate: true, StartUnix: testStart.Unix(),
		Hoses: []hose.Request{{Class: contract.C3Low, Region: "B", Direction: contract.Ingress, Rate: 5e9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := svc.Wait(id, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d.Contract != nil {
		t.Error("balancing filler produced a stored contract")
	}
	if db.Len() != 0 {
		t.Errorf("dummy contract stored: %d", db.Len())
	}
}

// flakySink fails its first n puts with err, then stores nothing and succeeds.
type flakySink struct {
	err   error
	fails int
	puts  int
}

func (f *flakySink) Put(contract.Contract) error {
	f.puts++
	if f.puts <= f.fails {
		return f.err
	}
	return nil
}

// TestSinkPutRetriedOnceWhenTransient: a transport failure on the contract
// push (the connection a contractdb restart broke) is retried once before it
// costs the decision; a second transient failure, or an error the remote
// handler returned, is not.
func TestSinkPutRetriedOnceWhenTransient(t *testing.T) {
	transient := &wire.TransientError{Err: io.EOF}
	for _, tc := range []struct {
		name     string
		sink     *flakySink
		want     Status
		wantPuts int
	}{
		{"one transient failure", &flakySink{err: transient, fails: 1}, StatusApproved, 2},
		{"two transient failures", &flakySink{err: transient, fails: 2}, StatusError, 2},
		{"remote rejection", &flakySink{err: &wire.RemoteError{Message: "no"}, fails: 1}, StatusError, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService(topology.FigureSix(), tc.sink, testOptions(1))
			defer svc.Close()
			id, err := svc.Submit(testRequests()[1])
			if err != nil {
				t.Fatal(err)
			}
			d, err := svc.Wait(id, 2*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if d.Status != tc.want || tc.sink.puts != tc.wantPuts {
				t.Errorf("status %s after %d puts (%s), want %s after %d", d.Status, tc.sink.puts, d.Err, tc.want, tc.wantPuts)
			}
		})
	}
}
