package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"entitlement/internal/granting"
	"entitlement/internal/topology"
)

// decideTimeout bounds one submit→decision wait; a decision that takes this
// long counts as failed.
const decideTimeout = 30 * time.Second

func format(d *granting.Decision) string {
	var b strings.Builder
	granting.FormatDecision(&b, d)
	return b.String()
}

// pooled is a request set-up asked, with the decision that first ask got.
type pooled struct {
	req  granting.Request
	want string // FormatDecision bytes
}

// grantDriver is one closed-loop submitter: its own connection to grantd and
// its own request stream.
type grantDriver struct {
	client *granting.Client
	gen    *grantGen
	pool   []pooled // set-up's requests: grant_repeat's whole pool, grant_fresh's warm-up few
	next   int
	t      *tracer // traced runs only

	// A seeded reservoir of decided requests, re-decided directly afterwards.
	rng     *rand.Rand
	seen    int
	audit   []granting.Request
	audited []string
	status  map[granting.Status]int
}

// grantFleet is a stood-up grant workload.
type grantFleet struct {
	st        *stack
	drivers   []*grantDriver
	sinkTrace *tracer
}

func (f *grantFleet) Close() {
	for _, d := range f.drivers {
		d.client.Close()
	}
	f.st.Close()
}

// decide is one grant: submit, then block for the decision. t, when on,
// records it as a root span with one child per call.
func decide(client *granting.Client, t *tracer, req granting.Request) (*granting.Decision, error) {
	root := t.begin("grant", req.StartUnix)
	defer t.end(root)
	start := time.Now()
	id, err := client.Submit(req)
	t.child("grant.submit_rpc", start, 0)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	dec, err := client.Decide(id, decideTimeout)
	t.child("grant.decide_rpc", start, 0)
	return dec, err
}

func (d *grantDriver) decide(req granting.Request) (*granting.Decision, error) {
	return decide(d.client, d.t, req)
}

// auditPerDriver sizes each driver's reservoir: 32 decisions in all at the
// default two drivers.
const auditPerDriver = 16

// fresh decides a never-seen request and checks its status against what the
// generator sized it for.
func (d *grantDriver) fresh() bool {
	req, want := d.gen.next()
	dec, err := d.decide(req)
	if err != nil {
		return false
	}
	d.status[dec.Status]++
	d.seen++
	if len(d.audit) < auditPerDriver {
		d.audit, d.audited = append(d.audit, req), append(d.audited, format(dec))
	} else if i := d.rng.Intn(d.seen); i < auditPerDriver {
		d.audit[i], d.audited[i] = req, format(dec)
	}
	return dec.Status == want
}

// repeat re-asks the next pooled request and checks the decision is the one
// its first ask got.
func (d *grantDriver) repeat() bool {
	p := &d.pool[d.next%len(d.pool)]
	d.next++
	dec, err := d.decide(p.req)
	return err == nil && format(dec) == p.want
}

// buildGrant stands up a fleet, dials one client per driver, and warms it:
// grant_fresh decides a few requests so the scenario cache and runner pool
// are hot; grant_repeat decides its whole pool, which fills the memo.
func buildGrant(c config) (*grantFleet, error) {
	f := &grantFleet{}
	if c.trace {
		f.sinkTrace = c.ids.newTracer()
	}
	var err error
	if f.st, err = newStack(c.tmp, f.sinkTrace); err != nil {
		return nil, err
	}
	id := newIdentity(c.seed, f.st.topo.RegionsSorted())
	for i := 0; i < c.drivers; i++ {
		d := &grantDriver{
			gen:    newGrantGen(c.seed, id, i, c.drivers),
			rng:    rand.New(rand.NewSource(c.seed + int64(i))),
			status: map[granting.Status]int{},
		}
		if d.client, err = granting.DialOpts(f.st.grantSrv.Addr(), clientOpts); err != nil {
			f.Close()
			return nil, err
		}
		f.drivers = append(f.drivers, d)
		distinct := 8
		if c.pool > 0 {
			distinct = c.pool / c.drivers
		}
		for k := 0; k < distinct; k++ {
			req, _ := d.gen.next()
			dec, err := d.decide(req)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("warm-up grant: %w", err)
			}
			d.pool = append(d.pool, pooled{req, format(dec)})
		}
		if c.trace {
			d.t = c.ids.newTracer()
		}
	}
	return f, nil
}

// fillRing re-asks the warm-up requests (memo hits) until grantd has made
// warmDecisions decisions and its retention ring is full. From then on every
// journal checkpoint snapshots a full ring — the cost a long-running daemon
// settles into — so the timed window sees one regime, not the ring filling
// up part way through.
func (f *grantFleet) fillRing(c config) error {
	need := c.warmDecisions - int(f.st.svc.Stats().Decided)
	for k := 0; k < need; k++ {
		d := f.drivers[k%len(f.drivers)]
		if !d.repeat() {
			return fmt.Errorf("warm-up grant: a re-asked request failed or was decided differently")
		}
	}
	return nil
}

func runGrant(c config) (*report, error) {
	r := newReport(c.name)
	f, err := medianSetup(r, c, func() (*grantFleet, error) { return buildGrant(c) }, (*grantFleet).Close)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := f.fillRing(c); err != nil {
		return nil, err
	}
	op := func(i int) bool { return f.drivers[i].fresh() }
	if c.pool > 0 {
		op = func(i int) bool { return f.drivers[i].repeat() }
	}
	tracers := []*tracer{f.sinkTrace}
	for _, d := range f.drivers {
		tracers = append(tracers, d.t)
	}

	before, counters := f.st.svc.Stats(), obsCounters()
	r.measure(c, tracers, op)
	after := f.st.svc.Stats()
	decided := after.Decided - before.Decided
	r.collect(tracers)

	// Memo ratios are exact: fresh requests never hit, pooled ones never miss.
	hits, misses := after.MemoHits-before.MemoHits, after.MemoMisses-before.MemoMisses
	if c.pool > 0 {
		r.check(misses == 0, "grant_repeat: %d memo misses in the timed window, want 0", misses)
	} else {
		r.check(hits == 0, "grant_fresh: %d memo hits in the timed window, want 0", hits)
		f.auditFresh(r)
	}
	r.layer("granting.memo_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	r.layer("granting.batch_size_mean", float64(decided)/float64(after.Batches-before.Batches), "count")
	r.wireCounters(counters, f.st)
	r.journalCounters(counters, decided)

	ms, n, err := recoveryProbe(c, f.st.topo)
	if err != nil {
		return nil, err
	}
	r.set("probe_ms", ms, "ms")
	r.Samples["probe_ms"] = n
	r.layer("granting.recover_ms", ms, "ms")
	return r, nil
}

// auditFresh re-decides the sampled requests by calling DecideBatch directly
// and compares FormatDecision bytes, then checks the status mix.
func (f *grantFleet) auditFresh(r *report) {
	total := 0
	status := map[granting.Status]int{}
	for _, d := range f.drivers {
		for i, req := range d.audit {
			decs, err := granting.DecideBatch(f.st.topo, []granting.Request{req}, grantdOptions("", ""))
			r.check(err == nil && format(&decs[0]) == d.audited[i],
				"grant_fresh: decision for StartUnix %d differs from DecideBatch called directly", req.StartUnix)
		}
		for s, n := range d.status {
			status[s] += n
			total += n
		}
	}
	// Each driver's stream holds the mix to within a request or two, so a few
	// hundred decisions are enough for a ±5 point check; the smoke test's
	// window yields fewer.
	if total < 200 {
		return
	}
	for s, want := range map[granting.Status]float64{
		granting.StatusApproved: 70, granting.StatusNegotiated: 20, granting.StatusRejected: 10,
	} {
		got := 100 * float64(status[s]) / float64(total)
		r.check(got > want-5 && got < want+5, "grant_fresh: %.1f%% %s, want %v±5", got, s, want)
	}
}

// recoveryProbe journals a fixed number of decisions on a fresh WAL dir,
// kills the service, and times how long a restart takes to answer for a
// decided id again. The restart is repeated on copies of the crashed
// journal (opening one checkpoints it, so a second open of the same
// directory would replay a snapshot instead of the records) and the median
// is reported. Every restart must serve the decision byte for byte.
func recoveryProbe(c config, topo *topology.Topology) (ms float64, restarts int, err error) {
	dir, err := os.MkdirTemp(c.tmp, "recover-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	crashed := filepath.Join(dir, "crashed")
	svc, err := granting.OpenService(topo, nil, grantdOptions(crashed, ""))
	if err != nil {
		return 0, 0, err
	}
	// 32 distinct requests asked over and over: after the first round the
	// memo answers, so the journal fills quickly with records of real size.
	gen := newGrantGen(c.seed, newIdentity(c.seed, topo.RegionsSorted()), 0, 1)
	var reqs [32]granting.Request
	for i := range reqs {
		reqs[i], _ = gen.next()
	}
	var lastID, want string
	for i := 0; i < c.recoverSubs; i++ {
		id, err := svc.Submit(reqs[i%len(reqs)])
		if err == nil {
			var dec *granting.Decision
			if dec, err = svc.Wait(id, decideTimeout); err == nil {
				lastID, want = id, format(dec)
			}
		}
		if err != nil {
			svc.Kill()
			return 0, 0, fmt.Errorf("recovery probe: %w", err)
		}
	}
	svc.Kill()

	var times []float64
	for i := 0; i < 31; i++ {
		restart := filepath.Join(dir, fmt.Sprintf("restart%d", i))
		if err := copyDir(crashed, restart); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		svc, err := granting.OpenService(topo, nil, grantdOptions(restart, ""))
		if err != nil {
			return 0, 0, fmt.Errorf("recovery probe: reopen: %w", err)
		}
		state, dec := svc.Status(lastID)
		times = append(times, time.Since(start).Seconds()*1e3)
		svc.Kill()
		if state != "decided" || format(dec) != want {
			return 0, 0, fmt.Errorf("recovery probe: restart %d serves %q for %s, want the pre-crash decision", i, state, lastID)
		}
	}
	return median(times), len(times), nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
