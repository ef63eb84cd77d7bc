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
	otrace "entitlement/internal/obs/trace"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

// TestDistributedTraceSpine is the golden cross-service trace: one grant
// submitted over real TCP to grantd, journaled, decided, and pushed into a
// contractdb server — then enforced by an agent — must come back from the
// span collector as ONE trace tree crossing three services (submitter,
// grantd, contractdb) with correct parent/child edges and monotone
// timings. The enforcement cycle is its own root trace (it runs on the
// agent's clock, not the submitter's) and is asserted the same way:
// enforce.cycle with its four phase children in order.
func TestDistributedTraceSpine(t *testing.T) {
	topo := topology.FigureSix()

	// Contract database over a real socket, labeled for span attribution.
	store := contractdb.NewStore()
	dbL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dbSrv := contractdb.NewServerOpts(dbL, store, wire.ServerOptions{Service: "contractdb"})
	defer dbSrv.Close()

	// grantd pushes grants through a dialed contractdb client and journals
	// every decision — the full submit → queue → decide → journal → push
	// lifecycle is exercised.
	sink, err := contractdb.DialOpts(dbSrv.Addr(), wire.ClientOptions{Service: "grantd"})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	svc, err := granting.OpenService(topo, sink, granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: 3,
			DefaultSLO:        0.999,
			Risk:              risk.Options{Scenarios: 60, Seed: 11},
			Seed:              7,
		},
		WAL: granting.WALOptions{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	gL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gSrv := granting.NewServer(gL, svc) // NewServer defaults the service label to "grantd"
	defer gSrv.Close()

	// The submitter roots the trace and forces the sampled bit so tail
	// sampling keeps this healthy trace deterministically (the W3C
	// sampled flag, propagated through every frame).
	col := otrace.Default()
	root := col.StartRoot("test.submit")
	root.SetService("submitter")
	forced := root.Context()
	forced.Sampled = true

	client, err := granting.DialOpts(gSrv.Addr(), wire.ClientOptions{Service: "submitter"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetSpan(forced)

	ids, traceID, err := client.SubmitGroupTrace([]granting.Request{{
		NPG: "Web", Negotiate: true, StartUnix: periodStart.Unix(),
		Hoses: []hose.Request{{
			Class: contract.C2Low, Region: "A",
			Direction: contract.Egress, Rate: 50e9,
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("submitted 1 request, got ids %v", ids)
	}
	if traceID != root.TraceID() {
		t.Fatalf("server echoed trace %q, submitter rooted %q", traceID, root.TraceID())
	}
	dec, err := client.Decide(ids[0], time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != granting.StatusApproved && dec.Status != granting.StatusNegotiated {
		t.Fatalf("grant failed: %s (%s)", dec.Status, dec.Err)
	}
	if dec.Contract == nil {
		t.Fatal("grant carries no contract")
	}
	root.Finish()

	tree, ok := col.Tree(traceID)
	if !ok {
		t.Fatalf("trace %s not retained despite the forced sampled bit", traceID)
	}
	if tree.TraceID != traceID {
		t.Fatalf("tree trace ID %q, want %q", tree.TraceID, traceID)
	}

	// ≥3 services crossed the wire inside the one trace.
	svcSet := map[string]bool{}
	for _, s := range tree.Services {
		svcSet[s] = true
	}
	for _, want := range []string{"submitter", "grantd", "contractdb"} {
		if !svcSet[want] {
			t.Errorf("trace services %v missing %q", tree.Services, want)
		}
	}

	// One span per lifecycle stage, each exactly once.
	spans := map[string]otrace.SpanRecord{}
	for _, sr := range tree.Spans {
		if _, dup := spans[sr.Name]; dup && sr.Name != "wire.call.decide" && sr.Name != "wire.serve.decide" {
			t.Errorf("span %q appears more than once", sr.Name)
		}
		spans[sr.Name] = sr
	}
	rootRec, ok := spans["test.submit"]
	if !ok {
		t.Fatalf("trace lost its root; spans: %v", names(tree.Spans))
	}

	// Parent/child edges down the whole spine. The grantd lifecycle spans
	// are siblings under the serve span; the contract push hops back over
	// the wire into contractdb.
	edges := [][2]string{
		{"test.submit", "wire.call.submit"},
		{"wire.call.submit", "wire.serve.submit"},
		{"wire.serve.submit", "grantd.submit"},
		{"wire.serve.submit", "grantd.queue"},
		{"wire.serve.submit", "grantd.decide"},
		{"wire.serve.submit", "grantd.journal"},
		{"wire.serve.submit", "grantd.push"},
		{"grantd.push", "wire.call.put_contract"},
		{"wire.call.put_contract", "wire.serve.put_contract"},
	}
	for _, e := range edges {
		parent, ok := spans[e[0]]
		if !ok {
			t.Errorf("missing span %q; have %v", e[0], names(tree.Spans))
			continue
		}
		child, ok := spans[e[1]]
		if !ok {
			t.Errorf("missing span %q; have %v", e[1], names(tree.Spans))
			continue
		}
		if child.Parent != parent.SpanID {
			t.Errorf("%s.parent = %q, want %s's span %q", e[1], child.Parent, e[0], parent.SpanID)
		}
		if child.TraceID != traceID {
			t.Errorf("%s carries trace %q, want %q", e[1], child.TraceID, traceID)
		}
		// Monotone timings: a child cannot start before its parent.
		if child.StartNs < parent.StartNs {
			t.Errorf("%s started %dns before its parent %s", e[1], parent.StartNs-child.StartNs, e[0])
		}
		if child.DurNs < 0 {
			t.Errorf("%s has negative duration %d", e[1], child.DurNs)
		}
	}
	// Lifecycle ordering inside grantd: queue after submit starts, decide
	// after the queue pop, push after the decision, journal after the push.
	order := []string{"grantd.submit", "grantd.queue", "grantd.decide", "grantd.push", "grantd.journal"}
	for i := 1; i < len(order); i++ {
		prev, prevOK := spans[order[i-1]]
		cur, curOK := spans[order[i]]
		if prevOK && curOK && cur.StartNs < prev.StartNs {
			t.Errorf("%s started before %s", order[i], order[i-1])
		}
	}
	if rootRec.DurNs <= 0 {
		t.Errorf("root span duration %d, want > 0", rootRec.DurNs)
	}

	// Service attribution on both sides of each wire hop.
	if got := spans["wire.call.submit"].Service; got != "submitter" {
		t.Errorf("wire.call.submit service %q, want submitter", got)
	}
	if got := spans["wire.serve.submit"].Service; got != "grantd" {
		t.Errorf("wire.serve.submit service %q, want grantd", got)
	}
	if got := spans["wire.serve.put_contract"].Service; got != "contractdb" {
		t.Errorf("wire.serve.put_contract service %q, want contractdb", got)
	}

	// --- Enforcement: the agent's cycle is its own root trace with the
	// three phase children, and the rate exchange's one wire call under
	// kv.exchange. The agent records into the process-wide collector, where
	// the wire clients record too; a healthy cycle's trace is kept only
	// when tail sampling draws it, so cycles run until one is.
	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kvSrv := kvstore.NewServerOpts(kvL, kvstore.New(), kvstore.ServerOptions{
		Wire: wire.ServerOptions{Service: "kvstore"},
	})
	defer kvSrv.Close()
	dbc, err := contractdb.DialOpts(dbSrv.Addr(), wire.ClientOptions{Service: "trace-host-0"})
	if err != nil {
		t.Fatal(err)
	}
	defer dbc.Close()
	kvc, err := kvstore.DialOpts(kvSrv.Addr(), wire.ClientOptions{Service: "trace-host-0"})
	if err != nil {
		t.Fatal(err)
	}
	defer kvc.Close()
	agent, err := enforce.NewAgent(enforce.AgentConfig{
		Host: "trace-host-0", NPG: "Web", Class: contract.C2Low, Region: "A",
		DB: dbc, Rates: kvc, Meter: enforce.NewStateful(),
		Prog: bpf.NewProgram(bpf.NewMap()), Policy: enforce.HostBased,
		RateTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ctree otrace.Tree
	for i := 0; ; i++ {
		rep, err := agent.Cycle(periodStart.Add(24*time.Hour), 10e9, 10e9)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded {
			t.Fatalf("cycle %d degraded: %v", i, rep.Faults)
		}
		if _, _, ok := otrace.ParseTraceID(rep.TraceID); !ok {
			t.Fatalf("cycle trace ID %q is not 32-hex", rep.TraceID)
		}
		var ok bool
		if ctree, ok = col.Tree(rep.TraceID); ok {
			break
		}
		if i == 2000 { // a miss at the 5% sampling rate has odds of 1e-45
			t.Fatal("no cycle trace retained in 2000 cycles")
		}
	}
	cspans := map[string]otrace.SpanRecord{}
	for _, sr := range ctree.Spans {
		if _, dup := cspans[sr.Name]; dup {
			t.Errorf("cycle trace has two %q spans", sr.Name)
		}
		cspans[sr.Name] = sr
	}
	croot, ok := cspans["enforce.cycle"]
	if !ok {
		t.Fatalf("cycle trace lost its root; spans: %v", names(ctree.Spans))
	}
	for _, phase := range []string{"kv.exchange", "db.fetch", "meter.apply"} {
		sr, ok := cspans[phase]
		if !ok {
			t.Errorf("cycle trace missing phase %q; have %v", phase, names(ctree.Spans))
			continue
		}
		if sr.Parent != croot.SpanID {
			t.Errorf("%s.parent = %q, want the cycle root %q", phase, sr.Parent, croot.SpanID)
		}
		if sr.StartNs < croot.StartNs {
			t.Errorf("%s started before the cycle root", phase)
		}
	}
	for _, gone := range []string{"kv.publish", "kv.aggregate", "wire.call.put", "wire.call.sum"} {
		if _, ok := cspans[gone]; ok {
			t.Errorf("cycle trace still has %q; have %v", gone, names(ctree.Spans))
		}
	}
	if call, ok := cspans["wire.call.exchange"]; !ok {
		t.Errorf("cycle trace missing wire.call.exchange; have %v", names(ctree.Spans))
	} else if call.Parent != cspans["kv.exchange"].SpanID {
		t.Errorf("wire.call.exchange.parent = %q, want kv.exchange %q", call.Parent, cspans["kv.exchange"].SpanID)
	}
	if croot.Service != "trace-host-0" {
		t.Errorf("cycle root service %q, want trace-host-0", croot.Service)
	}
}

// TestTailSamplingRetention pins the tail-sampling contract at fleet
// volume: every incident trace (error, shed, fail-open, degraded) is
// retained, while healthy traces survive only at the probabilistic rate —
// at most 10% of them.
func TestTailSamplingRetention(t *testing.T) {
	const (
		healthy   = 400
		incidents = 50
	)
	// A pinned slow threshold keeps the dynamic p99 estimator from
	// promoting healthy traces to "slow" and muddying the exact counts.
	col := otrace.NewCollector(otrace.Options{
		MaxTraces:     healthy + incidents,
		SlowThreshold: time.Hour,
	})
	for i := 0; i < healthy; i++ {
		root := col.StartRoot("healthy")
		child := col.StartChild(root.Context(), "phase")
		child.Finish()
		root.Finish()
	}
	incidentFlags := []otrace.Flags{otrace.FlagError, otrace.FlagShed, otrace.FlagFailOpen, otrace.FlagDegraded}
	for i := 0; i < incidents; i++ {
		root := col.StartRoot("incident")
		child := col.StartChild(root.Context(), "phase")
		child.Flag(incidentFlags[i%len(incidentFlags)])
		child.Finish()
		root.Finish()
	}
	kept := col.Traces(otrace.Query{Outcome: "incident"})
	if len(kept) != incidents {
		t.Errorf("retained %d incident traces, want all %d", len(kept), incidents)
	}
	healthyKept := 0
	for _, tr := range col.Traces(otrace.Query{}) {
		if tr.Reason == "probabilistic" {
			healthyKept++
		}
	}
	if healthyKept > healthy/10 {
		t.Errorf("retained %d of %d healthy traces, want <= 10%%", healthyKept, healthy)
	}
	// The sampler is probabilistic, not off: with 400 traces at the
	// default 5%, zero retained means the sampler broke (P < 2e-9).
	if healthyKept == 0 {
		t.Error("probabilistic sampling retained nothing out of 400 healthy traces")
	}
}

func names(spans []otrace.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
