package integration

import (
	"net"
	"testing"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/kvstore"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// TestGrantdOnlinePipeline is the end-to-end online admission loop over real
// sockets: grantd, contractdb, and the rate store each behind TCP, grantd
// pushing granted contracts into the database through a dialed client, and
// two enforcement agents — also on dialed clients — that pick a fresh grant
// up within two cycles, with no restarts anywhere. A hopeless oversubscribed
// ask bounces with a §8 counter-proposal, and an opted-in negotiation lands
// at the admittable volume.
func TestGrantdOnlinePipeline(t *testing.T) {
	topo := topology.FigureSix()

	// Contract database and rate store over real sockets.
	store := contractdb.NewStore()
	dbL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dbSrv := contractdb.NewServer(dbL, store)
	defer dbSrv.Close()
	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kvSrv := kvstore.NewServer(kvL, kvstore.New())
	defer kvSrv.Close()

	// grantd pushes grants through a contractdb client — the full
	// grant→store path crosses the wire.
	sink, err := contractdb.Dial(dbSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	svc := granting.NewService(topo, sink, granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: 3,
			DefaultSLO:        0.999,
			Risk:              risk.Options{Scenarios: 60, Seed: 11},
			Seed:              7,
		},
	})
	defer svc.Close()
	gL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gSrv := granting.NewServer(gL, svc)
	defer gSrv.Close()
	client, err := granting.Dial(gSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Two agents for the Web/c2_low/A/egress flow set, dialing both
	// dependencies over TCP, running before any contract exists.
	newAgent := func(host string) *enforce.Agent {
		t.Helper()
		dbc, err := contractdb.Dial(dbSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dbc.Close() })
		kvc, err := kvstore.Dial(kvSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { kvc.Close() })
		a, err := enforce.NewAgent(enforce.AgentConfig{
			Host: host, NPG: "Web", Class: contract.C2Low, Region: "A",
			DB: dbc, Rates: kvc, Meter: enforce.NewStateful(),
			Prog: bpf.NewProgram(bpf.NewMap()), Policy: enforce.HostBased,
			RateTTL: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	agents := []*enforce.Agent{newAgent("it-host-0"), newAgent("it-host-1")}

	now := periodStart.Add(24 * time.Hour)
	for _, a := range agents {
		rep, err := a.Cycle(now, 10e9, 10e9)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Enforced {
			t.Fatal("agents enforcing before any grant exists")
		}
	}

	// Submit the contract request through grantd.
	dec, err := submitOne(client, granting.Request{
		NPG: "Web", Negotiate: true, StartUnix: periodStart.Unix(),
		Hoses: []hose.Request{{
			Class: contract.C2Low, Region: "A",
			Direction: contract.Egress, Rate: 50e9,
		}},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != granting.StatusApproved && dec.Status != granting.StatusNegotiated {
		t.Fatalf("grant failed: %s (%s)", dec.Status, dec.Err)
	}
	if dec.Contract == nil {
		t.Fatal("grant carries no contract")
	}
	granted := dec.Contract.Entitlements[0].Rate

	// The running agents pick the grant up within two cycles.
	for _, a := range agents {
		enforced := false
		var got float64
		for cycle := 0; cycle < 2 && !enforced; cycle++ {
			now = now.Add(10 * time.Second)
			rep, err := a.Cycle(now, 10e9, 10e9)
			if err != nil {
				t.Fatal(err)
			}
			enforced, got = rep.Enforced, rep.EntitledRate
		}
		if !enforced {
			t.Fatal("agent did not pick the grant up within 2 cycles")
		}
		if got != granted {
			t.Errorf("agent enforces %v, granted %v", got, granted)
		}
	}

	// An oversubscribed ask bounces with a counter-proposal and stores
	// nothing.
	dec, err = submitOne(client, granting.Request{
		NPG: "Greedy", StartUnix: periodStart.Unix(),
		Hoses: []hose.Request{{
			Class: contract.C3Low, Region: "B",
			Direction: contract.Egress, Rate: 100e12,
		}},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != granting.StatusRejected {
		t.Fatalf("oversubscribed ask granted: %s", dec.Status)
	}
	if len(dec.Proposals) == 0 {
		t.Fatal("rejection carries no counter-proposal")
	}
	p := dec.Proposals[0]
	if p.Shortfall <= 0 || p.AdmittableRate >= 100e12 {
		t.Errorf("implausible proposal: admittable %v, short %v", p.AdmittableRate, p.Shortfall)
	}
	if _, ok := store.Get("Greedy"); ok {
		t.Error("rejected ask stored a contract")
	}

	// Opting into negotiation turns the same shortfall into a grant at the
	// admittable volume, which agents would pick up just the same.
	dec, err = submitOne(client, granting.Request{
		NPG: "Greedy", Negotiate: true, StartUnix: periodStart.Unix(),
		Hoses: []hose.Request{{
			Class: contract.C3Low, Region: "B",
			Direction: contract.Egress, Rate: 100e12,
		}},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != granting.StatusNegotiated {
		t.Fatalf("negotiation opt-in did not negotiate: %s", dec.Status)
	}
	c, ok := store.Get("Greedy")
	if !ok {
		t.Fatal("negotiated contract not stored")
	}
	if got := c.Entitlements[0].Rate; got >= 100e12 || got <= 0 {
		t.Errorf("negotiated rate %v not the admittable volume", got)
	}
}

// submitOne submits one request through SubmitWait and returns its decision.
func submitOne(c *granting.Client, req granting.Request, timeout time.Duration) (*granting.Decision, error) {
	decs, _, err := c.SubmitWait([]granting.Request{req}, timeout)
	if err != nil {
		return nil, err
	}
	return &decs[0], nil
}
