package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/forecast"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/trace"
)

var periodStart = time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)

// backbone builds a 5-region backbone with the given per-link capacity range
// and 120 days of history for the dominant services plus tail long-tail ones.
func backbone(t *testing.T, chords int, minGbps, maxGbps float64, tail int) (*topology.Topology, *trace.DemandSet) {
	t.Helper()
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 5
	topoOpts.Chords = chords
	topoOpts.MinCapGbps = minGbps
	topoOpts.MaxCapGbps = maxGbps
	topoOpts.LinkFail = 0.001
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := trace.GenerateDemands(trace.DefaultOntology(tail), trace.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: 20e12,
		Days: 120, Step: time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo, ds
}

// fixture is a reliable, amply provisioned backbone.
func fixture(t *testing.T, tail int) (*topology.Topology, *trace.DemandSet, Options) {
	t.Helper()
	topo, ds := backbone(t, 4, 20000, 40000, tail)
	opts := DefaultOptions()
	opts.MinPipeRate = 1e9
	return topo, ds, opts
}

// establish runs the one pipeline by which contracts are established —
// PrepareRequests, GrantRequests, granting.DecideBatch — and stores every
// decision's contract, as cmd/granting, grantd and the examples do.
func establish(t *testing.T, topo *topology.Topology, ds *trace.DemandSet, opts Options) (*Report, []granting.Decision, *contractdb.Store) {
	t.Helper()
	rep, err := PrepareRequests(topo, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	decs, err := granting.DecideBatch(topo, GrantRequests(rep.Hoses, opts, periodStart.Unix()), granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: 3,
			DefaultSLO:        0.999,
			Risk:              risk.Options{Scenarios: 20, Seed: 5},
			Seed:              7,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := contractdb.NewStore()
	for _, d := range decs {
		if d.Contract != nil {
			if err := db.Put(*d.Contract); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rep, decs, db
}

func TestEstablishContractsEndToEnd(t *testing.T) {
	topo, ds, opts := fixture(t, 0)
	rep, decs, db := establish(t, topo, ds, opts)
	if len(rep.Pipes) == 0 || len(rep.Hoses) == 0 || len(decs) == 0 {
		t.Fatalf("incomplete pipeline: %d pipes, %d hoses, %d decisions", len(rep.Pipes), len(rep.Hoses), len(decs))
	}
	contracts := 0
	for _, d := range decs {
		if d.NPG == hose.DummyNPG {
			if d.Contract != nil {
				t.Error("dummy balancing service got a contract")
			}
			continue
		}
		c := d.Contract
		if c == nil {
			t.Errorf("%s (%s) has no contract", d.NPG, d.Status)
			continue
		}
		contracts++
		if err := c.Validate(); err != nil {
			t.Errorf("contract %s invalid: %v", c.NPG, err)
		}
		if stored, ok := db.Get(c.NPG); !ok || !stored.Approved {
			t.Errorf("contract %s not stored/approved", c.NPG)
		}
		// Entitlement periods cover the quarter.
		for _, e := range c.Entitlements {
			if !e.Start.Equal(periodStart) {
				t.Errorf("entitlement start = %v", e.Start)
			}
			if got := e.End.Sub(e.Start); got != forecast.QuarterDays*24*time.Hour {
				t.Errorf("period length = %v", got)
			}
		}
	}
	if contracts == 0 {
		t.Error("no contracts")
	}
	if _, ok := db.Get(hose.DummyNPG); ok {
		t.Error("dummy balancing service stored")
	}
}

func TestEstablishContractsEgressHosesSegmented(t *testing.T) {
	topo, ds, opts := fixture(t, 0)
	rep, err := PrepareRequests(topo, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	segmented := 0
	for _, h := range rep.Hoses {
		if h.Direction == contract.Egress && len(h.Segments) == 2 {
			segmented++
		}
	}
	if segmented == 0 {
		t.Error("no egress hose was segmented")
	}
}

func TestEstablishContractsBalanced(t *testing.T) {
	topo, ds, opts := fixture(t, 0)
	rep, err := PrepareRequests(topo, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Per class, total ingress == total egress after balancing.
	byClass := make(map[contract.Class][2]float64)
	for _, h := range rep.Hoses {
		v := byClass[h.Class]
		if h.Direction == contract.Egress {
			v[0] += h.Rate
		} else {
			v[1] += h.Rate
		}
		byClass[h.Class] = v
	}
	for c, v := range byClass {
		if v[0]+v[1] == 0 {
			continue
		}
		if math.Abs(v[0]-v[1]) > 1e-3*(v[0]+v[1]) {
			t.Errorf("class %v unbalanced: egress %v ingress %v", c, v[0], v[1])
		}
	}
}

func TestEstablishContractsLowTouchGrouping(t *testing.T) {
	topo, ds, opts := fixture(t, 10)
	// Only the big storage services are high-touch.
	opts.HighTouch = map[contract.NPG]bool{
		"Logging": true, "Warmstorage": true, "Coldstorage": true,
		"Datawarehouse": true, "MultiFeed": true, "Everstore": true, "Ads": true,
	}
	rep, err := PrepareRequests(topo, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	npgs := map[contract.NPG]bool{}
	for _, h := range rep.Hoses {
		if h.NPG != hose.DummyNPG {
			npgs[h.NPG] = true
		}
	}
	if !npgs[trace.LowTouchNPG] {
		t.Error("no aggregate low-touch hose")
	}
	for npg := range npgs {
		if strings.HasPrefix(string(npg), "tail-") {
			t.Errorf("tail service %s has its own hose", npg)
		}
	}
	// Grouping caps the number of contracts at high-touch + 1.
	if len(npgs) > 8 {
		t.Errorf("hoses for %d NPGs, want <= 8", len(npgs))
	}
}

func TestEstablishContractsEnforceableRates(t *testing.T) {
	topo, ds, opts := fixture(t, 0)
	_, decs, db := establish(t, topo, ds, opts)
	// Every granted egress hose reads back from the agent-facing query at
	// the decision's rate mid-period.
	mid := periodStart.Add(30 * 24 * time.Hour)
	checked := 0
	for _, d := range decs {
		if d.Contract == nil {
			continue
		}
		for i := range d.Contract.Entitlements {
			e := &d.Contract.Entitlements[i]
			if e.Direction != contract.Egress {
				continue
			}
			want := d.Hoses[i].Approved
			if d.Status == granting.StatusApproved {
				want = d.Hoses[i].Requested
			}
			rate, ok, err := db.EntitledRate(e.NPG, e.Class, e.Region, contract.Egress, mid)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("no entitlement found for %s", d.Hoses[i].Key)
				continue
			}
			if rate != want {
				t.Errorf("%s: DB rate %v != decided %v", d.Hoses[i].Key, rate, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no egress entitlements to check")
	}
}

func TestEstablishContractsValidation(t *testing.T) {
	topo, ds, opts := fixture(t, 0)
	if _, err := PrepareRequests(topo, nil, opts); err == nil {
		t.Error("nil history accepted")
	}
	none := opts
	none.MinPipeRate = 1e18
	if _, err := PrepareRequests(topo, ds, none); err == nil {
		t.Error("all-filtered pipes accepted")
	}
	if _, err := PrepareRequests(nil, ds, opts); err == nil {
		t.Error("missing topology accepted")
	}
}

func TestEstablishContractsProposalsForScarcity(t *testing.T) {
	// Tiny backbone capacity: most demand cannot be approved, so every
	// short request gets §8 counter-proposals and, having opted into
	// negotiation, a contract at its admittable volume.
	topo, ds := backbone(t, 2, 50, 100, 0)
	opts := DefaultOptions()
	opts.MinPipeRate = 1e9
	_, decs, _ := establish(t, topo, ds, opts)
	proposals, negotiated := 0, 0
	for _, d := range decs {
		proposals += len(d.Proposals)
		for _, p := range d.Proposals {
			if p.AdmittableRate > p.Hose.Rate {
				t.Errorf("admittable %v above request %v", p.AdmittableRate, p.Hose.Rate)
			}
		}
		if d.Status == granting.StatusNegotiated && d.NPG != hose.DummyNPG {
			if d.Contract == nil {
				t.Fatalf("negotiated %s has no contract", d.NPG)
			}
			negotiated++
			for i, e := range d.Contract.Entitlements {
				if e.Rate != d.Hoses[i].Approved {
					t.Errorf("%s: contract rate %v != admittable %v", d.Hoses[i].Key, e.Rate, d.Hoses[i].Approved)
				}
			}
		}
	}
	if proposals == 0 || negotiated == 0 {
		t.Errorf("scarce network produced %d counter-proposals and %d negotiated contracts", proposals, negotiated)
	}
}
