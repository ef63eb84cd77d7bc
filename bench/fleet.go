package main

import (
	"fmt"
	"sync"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/granting"
	"entitlement/internal/kvstore"
)

const (
	// fleetDemand is the flow set's aggregate offered load, split evenly over
	// its hosts; fleetEntitled is what set-up gets granted for it, so the
	// steady state throttles half the demand.
	fleetDemand   = 200e9
	fleetEntitled = 100e9
	// streak is how many consecutive in-band sweeps end a convergence wait,
	// maxSweeps how many sweeps it may take before the fleet reads as not
	// settling, and sweepStep how far the virtual clock moves per sweep.
	streak    = 3
	maxSweeps = 60
	sweepStep = 10 * time.Second
	// settleSweeps is how long the meters get to reach their steady regime
	// after an entitlement is granted, before anything is timed. On hundreds
	// of hosts that is a fixed point; on 16, where one host is an eighth of
	// the entitlement, it is a small limit cycle around it.
	settleSweeps = 6
)

// band is how far the aggregate conforming rate may sit from the entitlement
// and still count as converged: one step of marking quantisation — a group,
// or a whole host when the fleet has fewer hosts than groups — plus 5 %.
func (f *fleet) band(entitled float64) float64 {
	step := 1.0 / bpf.NumGroups
	if host := f.demand / entitled; host > step {
		step = host
	}
	return step + 0.05
}

// host is one enforcement agent with the datapath program it drives and the
// entitlement its last cycle enforced.
type host struct {
	id       string
	agent    *enforce.Agent
	prog     *bpf.Program
	entitled float64
}

// fleetDriver owns one connection to each store and the agents that share
// them; it cycles those agents round-robin from one goroutine.
type fleetDriver struct {
	kv    *kvstore.Client
	db    *contractdb.Client
	hosts []*host
	next  int
	now   time.Time // this driver's virtual clock
	t     *tracer
}

type fleet struct {
	st      *stack
	id      identity
	grant   *granting.Client
	drivers []*fleetDriver
	hosts   []*host // all hosts in sweep order
	demand  float64 // per host
	rounds  int64   // re-grants submitted, for unique request tags
	// Traced runs record every re-grant: the probe goroutine's calls and the
	// push on grantd's decider. Both stay on; no timed loop runs through them.
	grantTrace, sinkTrace *tracer
}

// tracers lists the drivers' tracers, which the timed window switches.
func (f *fleet) tracers() []*tracer {
	var ts []*tracer
	for _, d := range f.drivers {
		ts = append(ts, d.t)
	}
	return ts
}

func (f *fleet) Close() {
	for _, d := range f.drivers {
		d.kv.Close()
		d.db.Close()
	}
	if f.grant != nil {
		f.grant.Close()
	}
	f.st.Close()
}

// cycle runs one agent cycle at virtual time now. The host's demand feeds
// back through its own datapath program: under host-based marking a host
// whose group is below the programmed threshold has all its traffic
// remarked, so what it reports as conforming is what the datapath would
// pass. A cycle succeeds when it enforced from fresh data.
func (f *fleet) cycle(h *host, now time.Time) bool {
	rep, err := h.agent.Cycle(now, f.demand, f.conforming(h))
	h.entitled = rep.EntitledRate
	return err == nil && rep.Enforced && !rep.Degraded && !rep.FailedOpen
}

func (f *fleet) conforming(h *host) float64 {
	pkt := h.prog.Egress(bpf.Packet{NPG: f.id.npg, Class: f.id.class, Region: f.id.home, Host: h.id, Bytes: 1500})
	if bpf.IsNonConforming(pkt) {
		return 0
	}
	return f.demand
}

// step cycles the driver's next agent; its virtual clock moves on once per
// pass over its agents.
func (f *fleet) step(d *fleetDriver) bool {
	if d.next%len(d.hosts) == 0 {
		d.now = d.now.Add(sweepStep)
	}
	h := d.hosts[d.next%len(d.hosts)]
	d.next++
	root := d.t.begin("cycle", 0)
	ok := f.cycle(h, d.now)
	d.t.end(root)
	return ok
}

// sweep cycles every agent once, each driver over its own agents in
// parallel (or one goroutine over all of them, in order, when serial), and
// returns the aggregate conforming rate the datapath passes afterwards.
func (f *fleet) sweep(serial bool) (conforming float64, ok bool) {
	// cycleAll moves d's clock on one step and cycles hosts in order.
	cycleAll := func(d *fleetDriver, hosts []*host) bool {
		d.now = d.now.Add(sweepStep)
		ok := true
		for _, h := range hosts {
			ok = f.cycle(h, d.now) && ok
		}
		return ok
	}
	if serial {
		ok = cycleAll(f.drivers[0], f.hosts)
	} else {
		oks := make([]bool, len(f.drivers))
		var wg sync.WaitGroup
		for i, d := range f.drivers {
			wg.Add(1)
			go func(i int, d *fleetDriver) {
				defer wg.Done()
				oks[i] = cycleAll(d, d.hosts)
			}(i, d)
		}
		wg.Wait()
		ok = true
		for _, o := range oks {
			ok = ok && o
		}
	}
	for _, h := range f.hosts {
		conforming += f.conforming(h)
	}
	return conforming, ok
}

// converge sweeps, one goroutine over all agents in order, until the
// aggregate conforming rate has stayed within the band around entitled for
// streak sweeps. It returns how many sweeps it took to enter the band for
// good and when that sweep ended; sweeps is 0 when the rate was still leaving
// the band after maxSweeps.
func (f *fleet) converge(entitled float64) (sweeps int, entered time.Time, err error) {
	inBand, b := 0, f.band(entitled)
	for n := 1; n <= maxSweeps; n++ {
		rate, ok := f.sweep(true)
		if !ok {
			return 0, entered, fmt.Errorf("sweep %d: a cycle failed or ran degraded", n)
		}
		if rate < entitled*(1-b) || rate > entitled*(1+b) {
			inBand = 0
			continue
		}
		if inBand++; inBand == 1 {
			sweeps, entered = n, time.Now()
		}
		if inBand == streak {
			return sweeps, entered, nil
		}
	}
	return 0, time.Now(), nil
}

// settle gives the meters settleSweeps sweeps under the current entitlement.
func (f *fleet) settle(serial bool) error {
	for n := 0; n < settleSweeps; n++ {
		if _, ok := f.sweep(serial); !ok {
			return fmt.Errorf("settle: a cycle failed or ran degraded")
		}
	}
	return nil
}

// regrant asks grantd for the flow set at rate and returns the rate granted.
// Each ask is a new request (the tag makes its signature unique), so it
// takes a full risk pass, and replaces the NPG's contract in contractdb.
func (f *fleet) regrant(rate float64) (float64, error) {
	f.rounds++
	dec, err := decide(f.grant, f.grantTrace, fleetRequest(f.id, rate, f.rounds))
	if err != nil {
		return 0, err
	}
	if dec.Status != granting.StatusApproved {
		return 0, fmt.Errorf("entitlement of %.3g decided %s, want approved", rate, dec.Status)
	}
	return dec.Granted(), nil
}

// buildFleet stands up the servers, grants the flow set its entitlement
// through grantd, pre-publishes the other flow sets' keys, starts the agents
// and sweeps them once so every connection, cache and key exists.
func buildFleet(c config) (*fleet, error) {
	f := &fleet{demand: fleetDemand / float64(c.agents)}
	if c.trace {
		f.sinkTrace, f.grantTrace = c.ids.newTracer(), c.ids.newTracer()
		f.sinkTrace.on, f.grantTrace.on = true, true
	}
	st, err := newStack(c.tmp, f.sinkTrace)
	if err != nil {
		return nil, err
	}
	f.st, f.id = st, newIdentity(c.seed, st.topo.RegionsSorted())
	fail := func(err error) (*fleet, error) {
		f.Close()
		return nil, err
	}
	if f.grant, err = granting.DialOpts(st.grantSrv.Addr(), clientOpts); err != nil {
		return fail(err)
	}
	if _, err := f.regrant(fleetEntitled); err != nil {
		return fail(err)
	}
	populate(st.kv, f.id, c.bgKeys)
	start := time.Unix(baseUnix+86400, 0)
	for i := 0; i < c.drivers; i++ {
		d := &fleetDriver{now: start}
		if d.kv, err = kvstore.DialOpts(st.kvSrv.Addr(), clientOpts); err != nil {
			return fail(err)
		}
		f.drivers = append(f.drivers, d)
		if d.db, err = contractdb.DialOpts(st.dbSrv.Addr(), clientOpts); err != nil {
			return fail(err)
		}
		if c.trace {
			d.t = c.ids.newTracer()
		}
	}
	for i, id := range hostIDs(c.seed, c.agents) {
		d := f.drivers[i%c.drivers]
		h := &host{id: id, prog: bpf.NewProgram(bpf.NewMap())}
		cfg := enforce.AgentConfig{
			Host: id, NPG: f.id.npg, Class: f.id.class, Region: f.id.home,
			DB: d.db, Rates: d.kv, Meter: enforce.NewStateful(), Prog: h.prog,
		}
		if d.t != nil {
			cfg.DB, cfg.Rates = tracedDB{d.db, d.t}, tracedRates{d.kv, d.t}
		}
		if h.agent, err = enforce.NewAgent(cfg); err != nil {
			return fail(err)
		}
		d.hosts = append(d.hosts, h)
		f.hosts = append(f.hosts, h)
	}
	if _, ok := f.sweep(false); !ok {
		return fail(fmt.Errorf("first sweep: a cycle failed or ran degraded"))
	}
	return f, nil
}

// convergence measures, for the traced run, how long the meters take after a
// halving to bring the aggregate conforming rate into the band and keep it
// there. It is reported per layer and not gated: it depends on which hosts
// sit either side of the marking threshold. From a hundred hosts up the
// oscillation is damped and the fleet must converge; on 16, where one host
// is a quarter of the halved entitlement, the meters may circle the band for
// dozens of sweeps, and a fleet that has not settled reads maxSweeps.
func (f *fleet) convergence(c config, r *report) error {
	if _, err := f.regrant(fleetEntitled); err != nil {
		return err
	}
	if err := f.settle(true); err != nil {
		return err
	}
	start := time.Now()
	granted, err := f.regrant(fleetEntitled / 2)
	if err != nil {
		return err
	}
	sweeps, entered, err := f.converge(granted)
	if err != nil {
		return fmt.Errorf("re-grant probe: %w", err)
	}
	if sweeps == 0 {
		sweeps = maxSweeps
		r.check(len(f.hosts) < bpf.NumGroups, "%s: conforming rate not within %.0f%% of the new entitlement %.4g after %d sweeps",
			c.name, f.band(granted)*100, granted, maxSweeps)
	}
	r.layer("enforce.converge_ms", entered.Sub(start).Seconds()*1e3, "ms")
	r.layer("enforce.converge_sweeps", float64(sweeps), "count")
	return nil
}

func runFleet(c config) (*report, error) {
	r := newReport(c.name)
	f, err := medianSetup(r, c, func() (*fleet, error) { return buildFleet(c) }, (*fleet).Close)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := f.settle(false); err != nil {
		return nil, err
	}
	counters := obsCounters()
	r.measure(c, f.tracers(), func(i int) bool { return f.step(f.drivers[i]) })
	r.wireCounters(counters, f.st)
	counters, decided := obsCounters(), f.st.svc.Stats().Decided

	// Re-grant probe: change the entitlement through grantd — halved, then
	// restored, and so on — and time the fleet picking it up: from submitting
	// the changed request to the end of one sweep, by when every agent must be
	// enforcing the new rate.
	var pickup []float64
	for round := 0; round < c.probeRounds; round++ {
		rate := fleetEntitled / 2
		if round%2 == 1 {
			rate = fleetEntitled
		}
		start := time.Now()
		granted, err := f.regrant(rate)
		if err != nil {
			return nil, err
		}
		if _, ok := f.sweep(true); !ok {
			return nil, fmt.Errorf("re-grant probe: a cycle failed or ran degraded")
		}
		pickup = append(pickup, time.Since(start).Seconds()*1e3)
		for _, h := range f.hosts {
			r.check(h.entitled == granted, "%s: host %s enforces %.4g one sweep after %.4g was granted", c.name, h.id, h.entitled, granted)
		}
		r.Attempted += int64(len(f.hosts))
	}
	r.set("probe_ms", lowerQuartile(pickup), "ms")
	r.Samples["probe_ms"] = len(pickup)
	if c.trace {
		if err := f.convergence(c, r); err != nil {
			return nil, err
		}
	}
	r.collect(append(f.tracers(), f.grantTrace, f.sinkTrace))
	// Every entitlement this workload asked for was a new request, alone.
	st := f.st.svc.Stats()
	r.journalCounters(counters, st.Decided-decided)
	r.layer("granting.memo_hit_ratio", float64(st.MemoHits)/float64(st.MemoHits+st.MemoMisses), "ratio")
	r.layer("granting.batch_size_mean", float64(st.Decided)/float64(st.Batches), "count")
	return r, nil
}
