package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/flow"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs/trace"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
	schemav1 "entitlement/schema/v1"
)

// probeBudget is how long one layer probe may call its function for (the
// tests shorten it).
var probeBudget = 120 * time.Millisecond

// timeIt calls fn until the budget has run out (and at least five times) and
// returns the median time of one call, ns. Calls shorter than ~10 µs are
// timed in batches so the two clock reads do not drown them.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	batch := 1
	if single := time.Since(start); single < 10*time.Microsecond {
		batch = int(10*time.Microsecond/(single+1)) + 1
	}
	var per []float64
	for len(per) < 5 || time.Since(start) < probeBudget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// timeItFrom runs timeIt on n goroutines at once, goroutine i calling fn(i),
// and returns the median of their medians: what one call costs while the
// others keep calling.
func timeItFrom(n int, fn func(i int)) float64 {
	per := make([]float64, n)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i] = timeIt(func() { fn(i) })
		}(i)
	}
	wg.Wait()
	return median(per)
}

// allocsPer returns heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// layerUs reports a per-layer time measured in ns as µs.
func (r *report) layerUs(name string, ns float64) { r.layer(name, ns/1e3, "us") }

// value reads a per-layer metric back, for layerTable.
func (r *report) value(name string) float64 { return r.Layer[name].Value }

// populate fills a rate store with what the workload's own store holds: the
// other flow sets' keys, published without expiry (31 NPGs, half the keys
// total rates and half conforming rates). The measured flow set's keys come
// from its agents.
func populate(kv *kvstore.Store, id identity, bgKeys int) {
	class, region := id.class.String(), string(id.home)
	for k := 0; k < bgKeys/2; k++ {
		npg, h := fmt.Sprintf("%s-bg%02d", id.npg, k%31), fmt.Sprintf("b%05d", k/31)
		kv.Put(kvstore.RateKey(npg, class, region, h), 1e9, 0)
		kv.Put("conform/"+npg+"/"+class+"/"+region+"/"+h, 1e9, 0)
	}
}

// probes measures each layer from outside, by calling its public functions
// directly on inputs shaped like the workload's. Every probe owns what it
// stands up and closes it.
type probes struct {
	c    config
	r    *report
	topo *topology.Topology
	id   identity
	// side is the fleet the store and agent probes size themselves by: the
	// workload's own, or probeFleet on a grant workload.
	side spec
	opts granting.Options
	reqs []granting.Request // the head of the workload's request stream
	hit  granting.Request   // one sized to be approved; asked again, it hits the memo
}

func layerProbes(c config, r *report) error {
	topo, err := topology.Backbone(topology.DefaultBackboneOptions())
	if err != nil {
		return err
	}
	p := &probes{c: c, r: r, topo: topo, id: newIdentity(c.seed, topo.RegionsSorted()), side: c.spec, opts: grantdOptions("", "")}
	if c.agents == 0 {
		p.side = probeFleet
	}
	gen := newGrantGen(c.seed, p.id, 0, 1)
	for len(p.reqs) < 16 {
		req, want := gen.next()
		p.reqs = append(p.reqs, req)
		if want == granting.StatusApproved {
			p.hit = req
		}
	}
	if c.agents == 0 {
		if err := p.fleet(); err != nil {
			return err
		}
	}
	p.spans()
	for _, probe := range []func() error{p.granting, p.risk, p.wire, p.stores} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// probeFleet sizes the fleet the grant workloads' traced runs stand up on the
// side, so that the layers only a fleet exercises are measured there too: big
// enough that its meters converge (README.md, "Findings"), no other flow
// sets' keys.
var probeFleet = spec{name: "probe_fleet", agents: 512}

// fleet cycles probeFleet over its own servers with the tracers on, then
// halves its entitlement and measures convergence.
func (p *probes) fleet() error {
	c := p.c
	c.spec = p.side
	f, err := buildFleet(c)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.settle(false); err != nil {
		return err
	}
	for _, t := range f.tracers() {
		t.on = true
	}
	w := timedWindow(c.drivers, 4*probeBudget, func(i int) bool { return f.step(f.drivers[i]) })
	for _, t := range f.tracers() {
		t.on = false
	}
	p.r.check(w.failed == 0, "fleet probe: %d of %d cycles failed or ran degraded", w.failed, len(w.samples))
	p.r.collect(f.tracers()) // the probe's re-grants stay out of the workload's grant spans
	return f.convergence(c, p.r)
}

// spans turns the traced spans into per-call times under each wrapper and
// the cycle's self time. The workload's own operation is one of the two
// roots; the other comes from the side: a fleet's re-grants, a grant
// workload's probe fleet.
func (p *probes) spans() {
	grant, cycle := analyse(p.r.spans, "grant"), analyse(p.r.spans, "cycle")
	own := grant
	if p.c.agents > 0 {
		own = cycle
	}
	p.r.Samples["spans"], p.r.tracedP50 = own.ops, own.op
	p.r.layerUs("granting.submit_rpc_us", grant.child["grant.submit_rpc"])
	p.r.layerUs("granting.decide_rpc_us", grant.child["grant.decide_rpc"])
	p.r.layerUs("granting.sink_push_us", grant.child["grant.push"])
	p.r.layerUs("kvstore.client_put_us", cycle.child["cycle.kv_put"]/2) // two calls per cycle
	p.r.layerUs("kvstore.client_sum_us", cycle.child["cycle.kv_sum"]/2)
	p.r.layerUs("contractdb.client_fetch_us", cycle.child["cycle.db_fetch"])
	p.r.layerUs("enforce.cycle_self_us", cycle.self)
}

// granting: the decision function alone on the workload's request stream,
// then the service around it, in process and with no sink. A memoized
// request asked of an empty service gives the service's own bookkeeping and,
// journaled, what each fsync policy adds to it. The workload's own kind of
// request asked of a service journaled and warmed like the workload's — the
// retention ring as full, so checkpoints as large — gives what a grant costs
// the service, from one submitter and from as many at once as the workload
// has drivers: the difference is the wait for grantd's one decider.
func (p *probes) granting() error {
	var err error
	k := 0
	p.r.layerUs("granting.decide_batch_us", timeIt(func() {
		_, err = granting.DecideBatch(p.topo, p.reqs[k%len(p.reqs):k%len(p.reqs)+1], p.opts)
		k++
	}))
	if err != nil {
		return err
	}
	// service opens a grantd — in memory, or journaled under a directory of
	// its own — decides p.hit once so that asking it again hits the memo, and
	// hands measure the way to ask: one Submit+Wait.
	service := func(journal bool, fsync granting.FsyncPolicy, measure func(ask func(granting.Request))) error {
		dir := ""
		if journal {
			d, err := os.MkdirTemp(p.c.tmp, "probe-wal-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(d)
			dir = d
		}
		svc, err := granting.OpenService(p.topo, nil, grantdOptions(dir, fsync))
		if err != nil {
			return err
		}
		defer svc.Close()
		var mu sync.Mutex // several submitters may ask at once
		var failed error
		ask := func(req granting.Request) {
			id, err := svc.Submit(req)
			if err == nil {
				_, err = svc.Wait(id, decideTimeout)
			}
			if err != nil {
				mu.Lock()
				failed = err
				mu.Unlock()
			}
		}
		ask(p.hit)
		measure(ask)
		return failed
	}
	memoized := func(journal bool, fsync granting.FsyncPolicy) (ns float64, err error) {
		err = service(journal, fsync, func(ask func(granting.Request)) { ns = timeIt(func() { ask(p.hit) }) })
		return ns, err
	}
	nowal, err := memoized(false, "")
	if err != nil {
		return err
	}
	p.r.layerUs("granting.service_nowal_us", nowal)
	for _, policy := range []granting.FsyncPolicy{granting.FsyncNone, granting.FsyncBatch, granting.FsyncAlways} {
		wal, err := memoized(true, policy)
		if err != nil {
			return err
		}
		p.r.layerUs("granting.journal_"+string(policy)+"_us", wal-nowal)
	}
	err = service(true, "", func(ask func(granting.Request)) {
		for k := 1; k < p.c.warmDecisions; k++ {
			ask(p.hit)
		}
		gens := make([]*grantGen, p.c.drivers)
		for i := range gens {
			gens[i] = newGrantGen(p.c.seed+1, p.id, i, len(gens))
		}
		next := func(i int) granting.Request {
			if p.c.agents > 0 || p.c.pool > 0 {
				return p.hit
			}
			req, _ := gens[i].next()
			return req
		}
		p.r.layerUs("granting.service_wal_us", timeIt(func() { ask(next(0)) }))
		p.r.layerUs("granting.service_contended_us", timeItFrom(len(gens), func(i int) { ask(next(i)) }))
	})
	if err != nil {
		return err
	}
	if _, ok := p.r.Layer["granting.recover_ms"]; !ok { // the grant workloads' closing probe measured it
		ms, _, err := recoveryProbe(p.c, p.topo)
		if err != nil {
			return err
		}
		p.r.layer("granting.recover_ms", ms, "ms")
	}
	return nil
}

// risk: approval, hose, risk and flow called directly on one approved
// request's hoses, and on the pipe demands approval realizes them as for its
// first representative TM.
func (p *probes) risk() error {
	hoses := append([]hose.Request(nil), p.hit.Hoses...)
	for i := range hoses {
		hoses[i].NPG = p.hit.NPG
	}
	var err error
	p.r.layerUs("approval.approve_us", timeIt(func() { _, err = approval.Approve(p.topo, hoses, p.opts.Approval) }))
	if err != nil {
		return err
	}
	regions := p.topo.RegionsSorted()
	sampler := func(i int) *hose.Sampler {
		return hose.NewSampler(hoses[i], regions, p.opts.Approval.Seed+int64(i)*7919)
	}
	p.r.layerUs("hose.representative_tms_us", timeIt(func() {
		for i := range hoses {
			s := sampler(i)
			for k := 0; k < p.opts.Approval.RepresentativeTMs; k++ {
				s.Representative()
			}
		}
	}))
	var demands []flow.Demand
	for i := range hoses {
		h, tm := &hoses[i], sampler(i).Representative()
		for _, peer := range regions {
			if tm.Rates[peer] <= 0 {
				continue
			}
			src, dst := h.Region, peer
			if h.Direction == contract.Ingress {
				src, dst = peer, h.Region
			}
			demands = append(demands, flow.Demand{
				Key: fmt.Sprintf("%s/%s>%s", h.Key(), src, dst), Src: src, Dst: dst, Rate: tm.Rates[peer], Class: int(h.Class),
			})
		}
	}
	riskOpts := p.opts.Approval.Risk
	cold := timeIt(func() { _, err = risk.Assess(p.topo, demands, riskOpts) })
	p.r.layerUs("risk.assess_cold_us", cold)
	p.r.layer("risk.scenarios_per_s", float64(riskOpts.Scenarios)/(cold/1e9), "1/s")
	riskOpts.Cache = risk.NewResultCache(0)
	p.r.layerUs("risk.assess_warm_us", timeIt(func() { _, err = risk.Assess(p.topo, demands, riskOpts) }))
	runner, allUp := flow.NewRunner(p.topo), p.topo.AllUp()
	allocate := func() { runner.Allocate(allUp, demands, flow.AllocateOptions{}) }
	p.r.layerUs("flow.allocate_us", timeIt(allocate))
	p.r.layer("flow.allocs_per_op", allocsPer(200, allocate), "count")
	return err
}

// wire and schema: an echo server of the benchmark's own, called from as
// many connections at once as the workload has drivers — once with a
// schema-binary payload, as the agents' calls carry, and once with a JSON
// payload inside the binary envelope, as grantd's clients send — and the two
// payload codecs on their own.
func (p *probes) wire() error {
	rtt, allocs, err := echoProbe(p.c.drivers, &schemav1.KVKey{Key: "rates/echo"})
	if err != nil {
		return err
	}
	p.r.layerUs("wire.echo_rtt_us", rtt)
	p.r.layer("wire.allocs_per_call", allocs, "count")
	if rtt, _, err = echoProbe(p.c.drivers, struct {
		ID     string `json:"id"`
		WaitMS int64  `json:"wait_ms"`
	}{"g-1", 5000}); err != nil {
		return err
	}
	p.r.layerUs("wire.echo_rtt_json_us", rtt)
	if rtt, err = callProbe(p.c.drivers); err != nil {
		return err
	}
	p.r.layerUs("wire.call_rtt_us", rtt)

	key := kvstore.RateKey(string(p.id.npg), p.id.class.String(), string(p.id.home), "h0123abcd")
	put, buf := schemav1.KVPut{Key: key, Value: 1e9, TTLMs: 30000}, []byte(nil)
	p.r.layer("schema.kvput_codec_ns", timeIt(func() {
		var back schemav1.KVPut
		buf = put.AppendBinary(buf[:0])
		err = back.DecodeBinary(buf)
	}), "ns")
	if err != nil {
		return err
	}
	decs, err := granting.DecideBatch(p.topo, []granting.Request{p.hit}, p.opts)
	if err != nil {
		return err
	}
	p.r.layerUs("schema.grant_json_codec_us", timeIt(func() {
		var req granting.Request
		var dec granting.Decision
		data, e := json.Marshal(p.hit)
		if e == nil {
			e = json.Unmarshal(data, &req)
		}
		if e == nil {
			data, e = json.Marshal(decs[0])
		}
		if e == nil {
			e = json.Unmarshal(data, &dec)
		}
		if e != nil {
			err = e
		}
	}))
	return err
}

// echoProbe times wire.Client.Call of arg against a handler that does
// nothing, from clients connections at once, dialed the way the fleet's are;
// then, from one connection, counts the process's allocations per call.
func echoProbe(clients int, arg interface{}) (rttNs, allocs float64, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := wire.NewServerPayload(l, func(trace.Context, string, wire.Payload) (interface{}, error) { return nil, nil }, wire.ServerOptions{})
	defer srv.Close()
	conns, errs := make([]*wire.Client, clients), make([]error, clients)
	for i := range conns {
		if conns[i], err = wire.DialOpts(srv.Addr().String(), clientOpts); err != nil {
			return 0, 0, err
		}
		defer conns[i].Close()
	}
	call := func(i int) {
		if e := conns[i].Call("echo", arg, nil); e != nil {
			errs[i] = e
		}
	}
	rttNs = timeItFrom(clients, call)
	allocs = allocsPer(500, func() { call(0) })
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	return rttNs, allocs, nil
}

// callProbe times a call as an agent makes it — kvstore.Client.Put carrying a
// span context, so that client and server each record a span of the
// program's own — against a kvstore.Server on an empty store, from clients
// connections at once. What it costs beyond a bare echo is the handler's
// dispatch and the tracing spine, not store work.
func callProbe(clients int) (rttNs float64, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := kvstore.NewServer(l, kvstore.New())
	defer srv.Close()
	root := trace.Default().StartRoot("bench.call_probe")
	defer root.Finish()
	conns, errs := make([]*kvstore.Client, clients), make([]error, clients)
	for i := range conns {
		if conns[i], err = kvstore.DialOpts(srv.Addr(), clientOpts); err != nil {
			return 0, err
		}
		defer conns[i].Close()
		conns[i].SetSpan(root.Context())
	}
	rttNs = timeItFrom(clients, func(i int) {
		if e := conns[i].Put(fmt.Sprintf("rates/probe/%d", i), 1e9, 30*time.Second); e != nil {
			errs[i] = e
		}
	})
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	return rttNs, nil
}

// contendedStore runs a cycle's store calls — two puts, then two sums — in a
// closed loop on kv from one goroutine per host at once, for the probe
// budget, and returns the median time of one put and of one sum, ns: the
// store's own work plus the wait for its lock behind the other goroutines.
func contendedStore(kv *kvstore.Store, id identity, hosts []string) (putNs, sumNs float64) {
	npg, class, region := string(id.npg), id.class.String(), string(id.home)
	prefixes := [2]string{kvstore.RatePrefix(npg, class, region), "conform/" + npg + "/" + class + "/" + region + "/"}
	puts, sums := make([][]float64, len(hosts)), make([][]float64, len(hosts))
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func(i int, h string) {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < probeBudget; {
				for _, prefix := range prefixes {
					t0 := time.Now()
					kv.Put(prefix+h, 1e9, 30*time.Second)
					puts[i] = append(puts[i], float64(time.Since(t0)))
				}
				for _, prefix := range prefixes {
					t0 := time.Now()
					kv.SumPrefix(prefix)
					sums[i] = append(sums[i], float64(time.Since(t0)))
				}
			}
		}(i, h)
	}
	wg.Wait()
	var allPuts, allSums []float64
	for i := range hosts {
		allPuts, allSums = append(allPuts, puts[i]...), append(allSums, sums[i]...)
	}
	return median(allPuts), median(allSums)
}

// stores: in-process kvstore and contractdb at the workload's key count, one
// agent per host cycling on them with no wire in between, the meter and the
// datapath program called directly, and contractdb.Client.Put of the fleet's
// contract over loopback.
func (p *probes) stores() error {
	id, r := p.id, p.r
	kv, db := kvstore.New(), contractdb.NewStore()
	populate(kv, id, p.side.bgKeys)
	decs, err := granting.DecideBatch(p.topo, []granting.Request{fleetRequest(id, fleetEntitled, 0)}, p.opts)
	if err != nil {
		return err
	}
	if decs[0].Contract == nil {
		return fmt.Errorf("the fleet's entitlement was decided %s", decs[0].Status)
	}
	fleetContract := *decs[0].Contract
	if err := db.Put(fleetContract); err != nil {
		return err
	}
	hosts := hostIDs(p.c.seed, p.side.agents)
	var agents []*enforce.Agent
	var progs []*bpf.Program
	for _, h := range hosts {
		prog := bpf.NewProgram(bpf.NewMap())
		a, err := enforce.NewAgent(enforce.AgentConfig{
			Host: h, NPG: id.npg, Class: id.class, Region: id.home,
			DB: db, Rates: kv, Meter: enforce.NewStateful(), Prog: prog,
		})
		if err != nil {
			return err
		}
		agents, progs = append(agents, a), append(progs, prog)
	}
	now := time.Unix(baseUnix+86400, 0)
	demand := fleetDemand / float64(len(hosts))
	k := 0
	cycle := func() {
		a := agents[k%len(agents)]
		k++
		if _, e := a.Cycle(now, demand, demand); e != nil {
			err = e
		}
	}
	for range agents {
		cycle() // publish every host's keys before timing
	}
	r.layer("kvstore.keys", float64(kv.Len()), "count")
	r.layerUs("enforce.cycle_inproc_us", timeIt(cycle))
	r.layer("enforce.cycle_allocs", allocsPer(200, cycle), "count")
	if err != nil {
		return err
	}
	npg, class, region := string(id.npg), id.class.String(), string(id.home)
	key, prefix := kvstore.RateKey(npg, class, region, hosts[0]), kvstore.RatePrefix(npg, class, region)
	r.layer("kvstore.put_ns", timeIt(func() { kv.Put(key, demand, 30*time.Second) }), "ns")
	r.layerUs("kvstore.sum_prefix_us", timeIt(func() { kv.SumPrefix(prefix) }))
	put, sum := contendedStore(kv, id, hosts[:min(p.c.drivers, len(hosts))])
	r.layerUs("kvstore.put_contended_us", put)
	r.layerUs("kvstore.sum_prefix_contended_us", sum)
	r.layer("contractdb.entitled_rate_ns", timeIt(func() { db.EntitledRate(id.npg, id.class, id.home, contract.Egress, now) }), "ns")
	meter := enforce.NewStateful()
	r.layer("enforce.meter_ns", timeIt(func() { meter.ConformRatio(fleetEntitled, fleetDemand, fleetEntitled*1.01) }), "ns")
	pkt := bpf.Packet{NPG: id.npg, Class: id.class, Region: id.home, Host: hosts[0], Bytes: 1500}
	r.layer("bpf.egress_ns", timeIt(func() { progs[0].Egress(pkt) }), "ns")
	mapKey := bpf.MapKey{NPG: id.npg, Class: id.class, Region: id.home}
	r.layer("bpf.map_update_ns", timeIt(func() {
		progs[0].Actions.Update(mapKey, bpf.Action{Mode: bpf.MarkHosts, NonConformGroups: 50})
	}), "ns")

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := contractdb.NewServer(l, contractdb.NewStore())
	defer srv.Close()
	client, err := contractdb.DialOpts(srv.Addr(), clientOpts)
	if err != nil {
		return err
	}
	defer client.Close()
	r.layerUs("contractdb.client_put_us", timeIt(func() { err = client.Put(fleetContract) }))
	return err
}

// layerTable splits the traced run's median operation over the layers and
// renders the table. Every row is a probe's measurement or a child span;
// what they leave of the operation is unattributed. See README.md for how to
// read it.
func layerTable(c config, r *report) {
	type row struct {
		layer, what string
		us          float64
	}
	var rows, inside []row
	op := r.tracedP50 / 1e3
	if c.agents > 0 {
		// A cycle is its five calls in series and its own work between them.
		// Of each call, a round trip to a handler with nothing to do is the
		// wire's, tracing spine included; the store's own
		// work and the wait for its lock — a Put queues behind the other
		// drivers' scans — is what the same calls cost in process from as many
		// goroutines at once.
		trips := r.value("wire.round_trips_per_op")
		rows = []row{
			{"wire", fmt.Sprintf("%.0f round trips x call_rtt: a traced call to a handler with no store work", trips), trips * r.value("wire.call_rtt_us")},
			{"kvstore", fmt.Sprintf("2 x put_contended + 2 x sum_prefix_contended: in process, %d goroutines at once", c.drivers),
				2*r.value("kvstore.put_contended_us") + 2*r.value("kvstore.sum_prefix_contended_us")},
			{"contractdb", "entitled_rate, in process", r.value("contractdb.entitled_rate_ns") / 1e3},
			{"enforce+bpf", "cycle span minus its call spans", r.value("enforce.cycle_self_us")},
		}
		inside = []row{
			{"wire, bare", fmt.Sprintf("%.0f round trips x echo_rtt: no handler dispatch, no tracing spine", trips), trips * r.value("wire.echo_rtt_us")},
			{"kvstore alone", "2 x put + 2 x sum_prefix from one goroutine: no lock wait", 2*r.value("kvstore.put_ns")/1e3 + 2*r.value("kvstore.sum_prefix_us")},
		}
	} else {
		// A grant is a submit and a decide call in series; grantd's one
		// decider serves the other drivers in between. service_wal is what the
		// same kind of request costs a service journaled and warmed like the
		// workload's, alone; service_contended what it costs with every driver
		// asking at once.
		decision := (1 - r.value("granting.memo_hit_ratio")) * r.value("granting.decide_batch_us")
		nowal, wal := r.value("granting.service_nowal_us"), r.value("granting.service_wal_us")
		rows = []row{
			{"approval+risk+flow+hose", "decide_batch x memo miss ratio", decision},
			{"granting", "hand-off, memo, bookkeeping (service_nowal)", nowal},
			{"granting journal", "records, fsyncs, checkpoints (service_wal minus the two rows above)", wal - nowal - decision},
			{"waiting for the decider", fmt.Sprintf("behind the other drivers' grants (service_contended, %d at once, minus service_wal)", c.drivers),
				r.value("granting.service_contended_us") - wal},
			{"contractdb", "the sink's put_contract round trip (span grant.push)", r.value("granting.sink_push_us")},
			{"wire", "2 round trips x echo_rtt_json", 2 * r.value("wire.echo_rtt_json_us")},
		}
		inside = []row{
			{"submit_rpc", "span: validation, the submission's journal record, reply", r.value("granting.submit_rpc_us")},
			{"decide_rpc", "span: wait for the decider, decision, push, journal record, reply", r.value("granting.decide_rpc_us")},
		}
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].us > rows[b].us })
	line := func(indent string, x row) string {
		return fmt.Sprintf("%s%-24s %12.1f us %6.1f%%  %s", indent, x.layer, x.us, 100*x.us/op, x.what)
	}
	explained := 0.0
	r.Layers = append(r.Layers, fmt.Sprintf("-- %s: where the median operation (%.1f us, traced, n=%d) goes", c.name, op, r.Samples["spans"]))
	for _, x := range rows {
		explained += x.us
		r.Layers = append(r.Layers, line("", x))
	}
	unattributed := (op - explained) / op
	r.Layers = append(r.Layers, line("", row{"unattributed", "median operation minus the rows above", op - explained}))
	if unattributed > 0.15 || unattributed < -0.15 {
		r.Layers = append(r.Layers, "WARNING: the probes and spans leave more than 15% of the operation unexplained")
	}
	r.Layers = append(r.Layers, "   for comparison, not added to the sum:")
	for _, x := range inside {
		r.Layers = append(r.Layers, line("   ", x))
	}
	r.layer("bench.unattributed_share", unattributed, "ratio")
}
