package main

import (
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/kvstore"
	"entitlement/internal/topology"
)

// tracer records spans in memory for one goroutine: a driver, or grantd's
// decider calling the sink. Only traced runs create tracers, and they record
// only while on; end-to-end numbers always come from runs without them.
type tracer struct {
	on    bool
	base  uint64 // tracer number in the high bits keeps span ids unique
	epoch time.Time
	spans []span
	op    uint64 // id of the root span in progress, 0 outside an operation
}

// traceIDs hands out the tracers of one process run: a common epoch and
// disjoint id ranges, so that the spans of every workload and side probe can
// share one file. Tracers are made during set-up, from one goroutine.
type traceIDs struct {
	epoch   time.Time
	tracers uint64
}

func (ids *traceIDs) newTracer() *tracer {
	ids.tracers++
	return &tracer{base: ids.tracers << 40, epoch: ids.epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a root span and returns its index for end (-1 while off).
func (t *tracer) begin(name string, tag int64) int {
	if t == nil || !t.on {
		return -1
	}
	id := t.base | uint64(len(t.spans)+1)
	t.op = id
	t.spans = append(t.spans, span{ID: id, Name: name, Tag: tag, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.epoch))
		t.op = 0
	}
}

// child records a finished call that began at start, under the current root.
func (t *tracer) child(name string, start time.Time, tag int64) {
	if t == nil || !t.on {
		return
	}
	t.spans = append(t.spans, span{
		ID: t.base | uint64(len(t.spans)+1), Parent: t.op, Name: name, Tag: tag,
		Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch)),
	})
}

// The wrappers below stand where the program already accepts an interface
// (kvstore.RateStore, contractdb.Database, granting.Sink). Embedding the
// client promotes SetTrace and SetSpan, so enforce.Agent and grantd find the
// same optional methods on the wrapper as on the bare client and behave
// exactly as they do unwrapped.

type tracedRates struct {
	*kvstore.Client
	t *tracer
}

func (r tracedRates) Put(key string, value float64, ttl time.Duration) error {
	start := time.Now()
	err := r.Client.Put(key, value, ttl)
	r.t.child("cycle.kv_put", start, 0)
	return err
}

func (r tracedRates) SumPrefix(prefix string) (float64, error) {
	start := time.Now()
	sum, err := r.Client.SumPrefix(prefix)
	r.t.child("cycle.kv_sum", start, 0)
	return sum, err
}

type tracedDB struct {
	*contractdb.Client
	t *tracer
}

func (d tracedDB) EntitledRate(npg contract.NPG, class contract.Class, region topology.Region, dir contract.Direction, at time.Time) (float64, bool, error) {
	start := time.Now()
	rate, found, err := d.Client.EntitledRate(npg, class, region, dir, at)
	d.t.child("cycle.db_fetch", start, 0)
	return rate, found, err
}

type tracedSink struct {
	*contractdb.Client
	t *tracer
}

// Put runs on grantd's decider goroutine, outside any driver's operation; the
// span carries the contract's start second so joinPushes can parent it.
func (s tracedSink) Put(c contract.Contract) error {
	start := time.Now()
	err := s.Client.Put(c)
	s.t.child("grant.push", start, c.Entitlements[0].Start.Unix())
	return err
}

// joinPushes parents each grant.push span under the grant root that carries
// the same tag and was in progress when the push began (a pooled request is
// asked many times under one tag).
func joinPushes(spans []span) {
	roots := make(map[int64][]int)
	for i, s := range spans {
		if s.Parent == 0 && s.Name == "grant" {
			roots[s.Tag] = append(roots[s.Tag], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		if p.Name != "grant.push" {
			continue
		}
		for _, ri := range roots[p.Tag] {
			if r := &spans[ri]; r.Start <= p.Start && p.Start <= r.End {
				p.Parent = r.ID
				break
			}
		}
	}
}

// breakdown is the traced run's per-operation decomposition: the median
// root span, the median time per operation under each child name, and the
// median self time (root minus what its children cover).
type breakdown struct {
	ops   int
	op    float64            // ns
	self  float64            // ns
	child map[string]float64 // ns per operation, by span name
}

func analyse(spans []span, root string) breakdown {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var durs, selfs []float64
	perName := make(map[string][]float64)
	for _, r := range spans {
		if r.Parent != 0 || r.Name != root || r.End == 0 {
			continue
		}
		durs = append(durs, float64(r.End-r.Start))
		selfs = append(selfs, float64(selfTime(r, kids[r.ID])))
		totals := make(map[string]float64)
		for _, c := range kids[r.ID] {
			totals[c.Name] += float64(c.End - c.Start)
		}
		for name, v := range totals {
			perName[name] = append(perName[name], v)
		}
	}
	b := breakdown{ops: len(durs), op: median(durs), self: median(selfs), child: make(map[string]float64)}
	for name, vals := range perName {
		b.child[name] = median(vals)
	}
	return b
}
