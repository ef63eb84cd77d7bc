package integration

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/faults"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs"
	"entitlement/internal/wire"
)

// scrapeHTTP fetches and parses the Prometheus exposition from a live obs
// server — the same path a real scraper takes, so these assertions hold for
// what an operator's dashboard would actually show.
func scrapeHTTP(t *testing.T, addr string) obs.Scrape {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	// Drop the keep-alive connection so the scrape leaves no goroutine
	// behind for the leak check at teardown.
	defer http.DefaultClient.CloseIdleConnections()
	s, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape parse: %v", err)
	}
	return s
}

// chaosClientOptions are aggressive failure settings so the test exercises
// deadlines and reconnect within seconds instead of minutes.
func chaosClientOptions() wire.ClientOptions {
	return wire.ClientOptions{
		DialTimeout: 500 * time.Millisecond,
		CallTimeout: 150 * time.Millisecond,
		MinBackoff:  10 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
	}
}

// TestChaosEnforcementSurvivesOutage runs a fleet of agents against real
// TCP contractdb and kvstore servers reached through fault-injecting
// proxies, then black-holes both stores for longer than the staleness
// budget. The fleet must (1) never wedge — every cycle completes within
// its deadline budget, (2) stay fail-static while its cached data is
// within budget, (3) fail open (no marking) within one cycle of budget
// expiry, and (4) reconverge within five cycles of the outage lifting.
// It also checks nothing leaks goroutines.
func TestChaosEnforcementSurvivesOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test uses real sockets and sleeps")
	}
	baseGoroutines := runtime.NumGoroutine()

	// Metrics endpoint: the outage story below is asserted from scraped
	// exposition alone, not from CycleReports.
	ms, err := obs.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	const (
		entitled = 100e9
		hosts    = 3
		budget   = 1200 * time.Millisecond
		// One degraded cycle can burn up to 5 RPC deadlines (2 publishes,
		// 2 aggregations, 1 contract query) before failing over to cache.
		maxCycle = 5*150*time.Millisecond + 500*time.Millisecond
	)

	// Real servers: one approved contract active around wall-clock now.
	db := contractdb.NewStore()
	if err := db.Put(contract.Contract{
		NPG: "Chaos", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: "Chaos", Class: contract.ClassB, Region: "R",
			Direction: contract.Egress, Rate: entitled,
			Start: time.Now().Add(-time.Hour), End: time.Now().Add(time.Hour),
		}},
	}); err != nil {
		t.Fatal(err)
	}
	dbL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dbSrv := contractdb.NewServer(dbL, db)
	defer dbSrv.Close()
	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kvSrv := kvstore.NewServerOpts(kvL, kvstore.New(), kvstore.ServerOptions{
		CompactEvery: 100 * time.Millisecond,
		Wire:         wire.ServerOptions{ReadIdleTimeout: 10 * time.Second},
	})
	defer kvSrv.Close()

	// Chaos proxies in front of both stores.
	dbProxy, err := faults.NewProxy(dbSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dbProxy.Close()
	kvProxy, err := faults.NewProxy(kvSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer kvProxy.Close()

	// The fleet dials through the proxies.
	type member struct {
		agent *enforce.Agent
		prog  *bpf.Program
		id    string
	}
	var fleet []member
	for i := 0; i < hosts; i++ {
		id := fmt.Sprintf("chaos-%02d", i)
		dbc, err := contractdb.DialOpts(dbProxy.Addr(), chaosClientOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer dbc.Close()
		kvc, err := kvstore.DialOpts(kvProxy.Addr(), chaosClientOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer kvc.Close()
		prog := bpf.NewProgram(bpf.NewMap())
		a, err := enforce.NewAgent(enforce.AgentConfig{
			Host: id, NPG: "Chaos", Class: contract.ClassB, Region: "R",
			DB: dbc, Rates: kvc, Meter: enforce.NewStateful(), Prog: prog,
			Policy: enforce.HostBased,
			// TTL long enough that published rates survive the outage.
			RateTTL:         30 * time.Second,
			StalenessBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, member{agent: a, prog: prog, id: id})
	}

	// Demand 2x the entitlement, split across hosts, with the closed-loop
	// feedback the other integration tests use: a remarked host's
	// conforming rate drops to zero next cycle.
	perHost := 2 * entitled / hosts
	conforming := map[string]bool{}
	for _, m := range fleet {
		conforming[m.id] = true
	}
	// runCycle drives every agent concurrently (as the real fleet does —
	// one outage must not serialize into N×deadline cadence) and asserts
	// on the main goroutine.
	type cycleResult struct {
		rep  enforce.CycleReport
		err  error
		took time.Duration
	}
	runCycle := func() map[string]enforce.CycleReport {
		results := make([]cycleResult, hosts)
		var wg sync.WaitGroup
		for i, m := range fleet {
			localConf := perHost
			if !conforming[m.id] {
				localConf = 0
			}
			wg.Add(1)
			go func(i int, a *enforce.Agent, localConf float64) {
				defer wg.Done()
				start := time.Now()
				rep, err := a.Cycle(time.Now(), perHost, localConf)
				results[i] = cycleResult{rep: rep, err: err, took: time.Since(start)}
			}(i, m.agent, localConf)
		}
		wg.Wait()
		out := make(map[string]enforce.CycleReport, hosts)
		for i, m := range fleet {
			r := results[i]
			if r.err != nil {
				t.Fatalf("%s: hard cycle error: %v", m.id, r.err)
			}
			if r.took > maxCycle {
				t.Fatalf("%s: cycle wedged for %v (> %v)", m.id, r.took, maxCycle)
			}
			if r.rep.Enforced {
				conforming[m.id] = bpf.HostGroup(m.id) >= r.rep.NonConformGroups
			} else {
				conforming[m.id] = true
			}
			out[m.id] = r.rep
		}
		return out
	}

	base := scrapeHTTP(t, ms.Addr())

	// --- Phase 1: healthy baseline. -----------------------------------
	var marked bool
	for cycle := 0; cycle < 10; cycle++ {
		for id, rep := range runCycle() {
			if !rep.Enforced || rep.Degraded {
				t.Fatalf("healthy phase: %s report %+v", id, rep)
			}
			if rep.NonConformGroups > 0 {
				marked = true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !marked {
		t.Fatal("fleet at 2x entitlement never marked traffic while healthy")
	}
	healthy := scrapeHTTP(t, ms.Addr())
	if got := healthy.Value("entitlement_enforce_degraded_agents") - base.Value("entitlement_enforce_degraded_agents"); got != 0 {
		t.Errorf("metrics: degraded_agents moved by %v during the healthy phase", got)
	}
	lastSuccessKey := func(host string) string {
		return fmt.Sprintf("entitlement_enforce_last_success_timestamp_seconds{host=%q}", host)
	}
	for _, m := range fleet {
		if v := healthy.Value(lastSuccessKey(m.id)); v <= 0 {
			t.Errorf("metrics: last_success{%s} = %v after healthy cycles, want a recent timestamp", m.id, v)
		}
	}

	// --- Phase 2: both stores black-holed past the budget. ------------
	outageStart := time.Now()
	dbProxy.SetMode(faults.Blackhole)
	kvProxy.SetMode(faults.Blackhole)
	dbProxy.CutConnections()
	kvProxy.CutConnections()

	sawFailStatic := map[string]bool{}
	failedOpenAt := map[string]time.Time{}
	for len(failedOpenAt) < hosts {
		if time.Since(outageStart) > budget+3*maxCycle {
			t.Fatalf("only %d/%d agents failed open %v after outage start",
				len(failedOpenAt), hosts, time.Since(outageStart))
		}
		for id, rep := range runCycle() {
			if !rep.Degraded {
				t.Fatalf("outage phase: %s cycle not degraded: %+v", id, rep)
			}
			if rep.Enforced && !rep.FailedOpen {
				sawFailStatic[id] = true
			}
			if rep.FailedOpen {
				if _, done := failedOpenAt[id]; !done {
					failedOpenAt[id] = time.Now()
				}
			}
		}
	}
	for _, m := range fleet {
		if !sawFailStatic[m.id] {
			t.Errorf("%s never ran fail-static within the budget", m.id)
		}
		// Fail open must land within one cycle of budget expiry: a cycle
		// may start just before expiry, so its successor — the first to
		// observe the stale clock — completes at worst two bounded cycle
		// durations later.
		deadline := outageStart.Add(budget + 2*maxCycle)
		if at := failedOpenAt[m.id]; at.After(deadline) {
			t.Errorf("%s failed open %v after budget expiry", m.id, at.Sub(outageStart)-budget)
		}
		// Fail open means no marking action in the kernel map.
		if m.prog.Actions.Len() != 0 {
			t.Errorf("%s kept %d marking actions after fail-open", m.id, m.prog.Actions.Len())
		}
	}

	// Mid-outage scrape: the dashboard must show the whole fleet degraded
	// and failed open, and the fail-open transition counter must have
	// fired exactly once per agent even though every agent has run several
	// fail-open cycles by now.
	outage := scrapeHTTP(t, ms.Addr())
	if got := outage.Value("entitlement_enforce_degraded_agents") - base.Value("entitlement_enforce_degraded_agents"); got != hosts {
		t.Errorf("metrics: degraded_agents delta during outage = %v, want %d", got, hosts)
	}
	if got := outage.Value("entitlement_enforce_failopen_agents") - base.Value("entitlement_enforce_failopen_agents"); got != hosts {
		t.Errorf("metrics: failopen_agents delta during outage = %v, want %d", got, hosts)
	}
	if got := outage.Value("entitlement_enforce_failopen_transitions_total") - base.Value("entitlement_enforce_failopen_transitions_total"); got != hosts {
		t.Errorf("metrics: failopen_transitions delta = %v, want exactly %d (once per agent per outage)", got, hosts)
	}
	if got := outage.Value("entitlement_enforce_degraded_cycles_total") - base.Value("entitlement_enforce_degraded_cycles_total"); got < hosts {
		t.Errorf("metrics: degraded_cycles delta = %v, want >= %d", got, hosts)
	}
	// Every outage cycle is degraded, so the last-success timestamp must be
	// frozen at its healthy-phase value: staleness is computable from
	// scrapes alone, without CycleReports.
	for _, m := range fleet {
		if h, o := healthy.Value(lastSuccessKey(m.id)), outage.Value(lastSuccessKey(m.id)); o != h {
			t.Errorf("metrics: last_success{%s} advanced during the outage: %v -> %v", m.id, h, o)
		}
	}

	// --- Phase 3: outage lifts; reconverge within 5 cycles. -----------
	dbProxy.SetMode(faults.Pass)
	kvProxy.SetMode(faults.Pass)
	dbProxy.CutConnections()
	kvProxy.CutConnections()

	recovered := map[string]bool{}
	for cycle := 0; cycle < 5; cycle++ {
		for id, rep := range runCycle() {
			if rep.Enforced && !rep.Degraded {
				recovered[id] = true
			}
		}
		if len(recovered) == hosts {
			break
		}
		time.Sleep(30 * time.Millisecond)
	}
	if len(recovered) != hosts {
		t.Fatalf("only %d/%d agents recovered within 5 cycles", len(recovered), hosts)
	}
	// With demand back at 2x entitlement the fleet must re-mark traffic.
	remarked := false
	for cycle := 0; cycle < 10 && !remarked; cycle++ {
		for _, rep := range runCycle() {
			if rep.Enforced && rep.NonConformGroups > 0 {
				remarked = true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !remarked {
		t.Error("fleet never re-enforced marking after the outage lifted")
	}

	// Post-recovery scrape: the gauges fall back to baseline, and the
	// reconnect counter accounts for the injected connection cuts. The
	// phase-3 cut alone forces every one of the fleet's 2×hosts clients
	// (contractdb + kvstore per host) through at least one successful
	// re-dial; black-hole-phase re-dials (TCP connects that then time out)
	// add more, so this is a floor. The exact cut-for-cut accounting is
	// pinned by wire's own fault-injection metrics test.
	final := scrapeHTTP(t, ms.Addr())
	if got := final.Value("entitlement_enforce_degraded_agents") - base.Value("entitlement_enforce_degraded_agents"); got != 0 {
		t.Errorf("metrics: degraded_agents delta after recovery = %v, want 0", got)
	}
	if got := final.Value("entitlement_enforce_failopen_agents") - base.Value("entitlement_enforce_failopen_agents"); got != 0 {
		t.Errorf("metrics: failopen_agents delta after recovery = %v, want 0", got)
	}
	if got := final.Value("entitlement_wire_client_reconnects_total") - base.Value("entitlement_wire_client_reconnects_total"); got < 2*hosts {
		t.Errorf("metrics: reconnects delta = %v, want >= %d (every client re-dialed after the recovery cut)", got, 2*hosts)
	}
	for _, m := range fleet {
		if got := final.Value(fmt.Sprintf("entitlement_enforce_stale_seconds{host=%q}", m.id)); got != 0 {
			t.Errorf("metrics: stale_seconds{%s} after recovery = %v, want 0", m.id, got)
		}
		// Recovery phase: the last-success timestamp must strictly advance
		// past its outage-frozen value once healthy cycles resume.
		if o, f := outage.Value(lastSuccessKey(m.id)), final.Value(lastSuccessKey(m.id)); f <= o {
			t.Errorf("metrics: last_success{%s} did not advance after recovery: %v -> %v", m.id, o, f)
		}
	}

	// --- Teardown: nothing may leak. ----------------------------------
	for _, m := range fleet {
		_ = m
	}
	dbProxy.Close()
	kvProxy.Close()
	dbSrv.Close()
	kvSrv.Close()
	ms.Close()
	waitForGoroutines(t, baseGoroutines)
}

// waitForGoroutines polls until the goroutine count returns near base.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestAgentRunNotWedgedByDeadServer is the regression test for the
// original failure mode: wire.Client.Call blocking forever on a peer that
// accepts connections but never answers, wedging the agent's cycle loop.
// With per-call deadlines the loop must keep cycling (degraded) and stop
// promptly when its time is up.
func TestAgentRunNotWedgedByDeadServer(t *testing.T) {
	// A listener that accepts and then ignores its connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	kvc, err := kvstore.DialOpts(l.Addr().String(), wire.ClientOptions{
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 100 * time.Millisecond,
		MinBackoff:  5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kvc.Close()

	a, err := enforce.NewAgent(enforce.AgentConfig{
		Host: "h1", NPG: "X", Class: contract.ClassB, Region: "R",
		DB: contractdb.NewStore(), Rates: kvc,
		Meter: enforce.NewStateful(), Prog: bpf.NewProgram(bpf.NewMap()),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cycle every 50ms for 1.5s, the way cmd/agent's loop drives an agent.
	cycles := 0
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for time.Since(start) < 1500*time.Millisecond {
			a.Cycle(time.Now(), 1e9, 1e9)
			cycles++
			time.Sleep(50 * time.Millisecond)
		}
	}()
	// The last cycle may start just before 1.5s and still burn its bounded
	// call deadlines, and -race on a loaded single-core machine adds heavy
	// scheduler slack on top. The property under test is that a cycle is
	// bounded at all — the pre-deadline client blocked here forever.
	select {
	case <-done:
		t.Logf("loop ended after %v (ran 1.5s)", time.Since(start))
	case <-time.After(10 * time.Second):
		t.Fatal("Agent.Cycle wedged on a never-responding server")
	}
	if cycles < 3 {
		t.Errorf("only %d cycles completed against a dead server", cycles)
	}
}
