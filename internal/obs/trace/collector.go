package trace

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options; chosen so one enforcement cycle or one decide batch
// always fits the staging ring with two orders of magnitude to spare.
const (
	DefaultCapacity   = 4096
	DefaultMaxTraces  = 256
	DefaultMaxPending = 512
	DefaultSampleRate = 0.05
	// maxSpansPerTrace caps one trace's span count; overflow is dropped.
	maxSpansPerTrace = 512
	// dynSlowMinRoots is how many root spans the dynamic p99 estimator
	// needs before it starts flagging slow traces.
	dynSlowMinRoots = 64
)

// Options configure a Collector. The zero value picks the defaults above.
type Options struct {
	// Service is the default service name stamped on spans started from
	// this collector (Span.SetService overrides per span).
	Service string
	// Capacity is the staging-ring slot count. Finished spans that are not
	// flushed before the ring wraps are lost and counted dropped.
	Capacity int
	// MaxTraces bounds the retained-trace store (FIFO eviction).
	MaxTraces int
	// MaxPending bounds traces whose root has not finished yet (FIFO
	// eviction; evicted spans are counted dropped).
	MaxPending int
	// SampleRate is the probability a healthy trace (no flags anywhere) is
	// retained, decided deterministically from the trace ID. Negative
	// means 0 (the zero value means DefaultSampleRate).
	SampleRate float64
	// SlowThreshold retains any trace whose root span ran at least this
	// long. Zero enables the dynamic estimator: once enough roots have
	// been seen, roots at or above the collector's own p99 are retained.
	SlowThreshold time.Duration
	// Now supplies the clock (tests inject a fake; default time.Now).
	Now func() time.Time
}

func (o Options) withDefaults() (Options, bool) {
	realClock := o.Now == nil
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.MaxTraces <= 0 {
		o.MaxTraces = DefaultMaxTraces
	}
	if o.MaxPending <= 0 {
		o.MaxPending = DefaultMaxPending
	}
	if o.SampleRate == 0 {
		o.SampleRate = DefaultSampleRate
	} else if o.SampleRate < 0 {
		o.SampleRate = 0
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o, realClock
}

// rec is one finished span as staged in the ring. seq is the ring position
// stamp that lets the drain detect overwritten slots (same idiom as the
// slo flight recorder).
type rec struct {
	seq      uint64
	ctx      Context
	parent   uint64
	name     string
	service  string
	contract string
	note     string
	start    int64 // unix ns
	dur      int64 // ns
	flags    Flags
	root     bool
}

type traceKey struct{ hi, lo uint64 }

// traceBuf accumulates one trace's spans between first sight and the tail
// decision (and afterwards, when retained).
type traceBuf struct {
	spans   []*rec
	flags   Flags
	forced  bool // a propagated sampled bit arrived
	reason  string
	decided int64  // unix ns of the tail decision (retained traces)
	order   uint64 // decision sequence, tie-breaking identical timestamps
}

// Collector is a per-process bounded span store: a wait-free staging ring
// written by Span.Finish, and a mutex-guarded assembly side (Flush, Tree,
// Traces, Handler) that drains the ring, groups spans into traces, and
// applies the tail-sampling decision when a trace's root finishes.
//
// The hot path never takes the mutex: Finish is one allocation plus one
// atomic ring store (benched < 200ns together with Start). Everything else
// runs at flush cadence — the enforcement agent and the granting decider
// flush once per cycle/batch, and every query flushes first.
type Collector struct {
	opts Options
	// realClock short-circuits duration measurement to time.Since (the
	// fast monotonic path) when no fake clock is injected; it matters at
	// the 200ns/op budget.
	realClock bool

	pos   atomic.Uint64
	slots []atomic.Pointer[rec]

	mu            sync.Mutex
	drained       uint64
	pending       map[traceKey]*traceBuf
	pendingOrder  []traceKey
	retained      map[traceKey]*traceBuf
	retainedOrder []traceKey
	// rootDur is a log2 histogram of root-span durations feeding the
	// dynamic p99 slow threshold; rootN counts the samples.
	rootDur   [65]int64
	rootN     int64
	decideSeq uint64
}

// NewCollector builds a collector with the given options.
func NewCollector(opts Options) *Collector {
	o, realClock := opts.withDefaults()
	return &Collector{
		opts:      o,
		realClock: realClock,
		slots:     make([]atomic.Pointer[rec], o.Capacity),
		pending:   make(map[traceKey]*traceBuf),
		retained:  make(map[traceKey]*traceBuf),
	}
}

var defaultCollector = NewCollector(Options{})

// Default returns the process-wide collector every runtime layer publishes
// into, mirroring obs.Default: spans from the wire transport, the
// enforcement agent, and the granting service all land here so one
// /debug/traces query tells the whole process's story.
func Default() *Collector { return defaultCollector }

func (c *Collector) now() time.Time {
	if c.realClock {
		return time.Now()
	}
	return c.opts.Now()
}

func (c *Collector) since(start time.Time) time.Duration {
	if c.realClock {
		return time.Since(start)
	}
	return c.opts.Now().Sub(start)
}

// StartRoot begins a new trace rooted in this process. The returned Span
// is a stack value; assign it to a variable before calling its methods.
func (c *Collector) StartRoot(name string) Span {
	s := Span{col: c, startT: c.now()}
	lo := newID()
	s.r.ctx = Context{TraceHi: processID, TraceLo: lo, Span: deriveID(lo)}
	s.r.name = name
	s.r.service = c.opts.Service
	return s
}

// StartChild begins a span under parent. An invalid parent (the zero
// Context — e.g. an untraced wire request) starts a fresh root instead, so
// call sites never need to branch.
func (c *Collector) StartChild(parent Context, name string) Span {
	if !parent.Valid() {
		return c.StartRoot(name)
	}
	s := Span{col: c, startT: c.now()}
	s.r.ctx = Context{TraceHi: parent.TraceHi, TraceLo: parent.TraceLo, Span: newID(), Sampled: parent.Sampled}
	s.r.parent = parent.Span
	s.r.name = name
	s.r.service = c.opts.Service
	return s
}

// publish stages one finished span. Wait-free: position claim + slot store.
// spans_total is accounted in bulk at flush time (every claimed position is
// a finished span), keeping the hot path to two atomics.
func (c *Collector) publish(r *rec) {
	i := c.pos.Add(1) - 1
	r.seq = i
	c.slots[i%uint64(len(c.slots))].Store(r)
}

func (c *Collector) flushLocked() {
	end := c.pos.Load()
	capacity := uint64(len(c.slots))
	// Every position claimed since the last flush is one finished span.
	mSpans.Add(int64(end - c.drained))
	if end-c.drained > capacity {
		// The ring lapped the last flush: everything older than one full
		// ring is gone. Account the loss and resume from what survives.
		mDropped.Add(int64(end - c.drained - capacity))
		c.drained = end - capacity
	}
	for i := c.drained; i < end; i++ {
		r := c.slots[i%capacity].Load()
		if r == nil || r.seq != i {
			// Overwritten by a concurrent writer between the position
			// snapshot and this load.
			mDropped.Inc()
			continue
		}
		c.ingestLocked(r)
	}
	c.drained = end
}

// ingestLocked files one span into its trace and, when the root arrives,
// takes the tail-sampling decision.
func (c *Collector) ingestLocked(r *rec) {
	k := traceKey{r.ctx.TraceHi, r.ctx.TraceLo}
	if tb, ok := c.retained[k]; ok {
		// Late span for an already-retained trace (a child finished after
		// the root — legal, if unusual, ordering).
		if len(tb.spans) >= maxSpansPerTrace {
			mDropped.Inc()
			return
		}
		tb.spans = append(tb.spans, r)
		tb.flags |= r.flags
		return
	}
	tb, ok := c.pending[k]
	if !ok {
		if len(c.pending) >= c.opts.MaxPending {
			c.evictOldestPendingLocked()
		}
		tb = &traceBuf{}
		c.pending[k] = tb
		c.pendingOrder = append(c.pendingOrder, k)
	}
	if len(tb.spans) >= maxSpansPerTrace {
		mDropped.Inc()
		return
	}
	tb.spans = append(tb.spans, r)
	tb.flags |= r.flags
	if r.ctx.Sampled {
		tb.forced = true
	}
	if r.root {
		c.decideLocked(k, tb, r)
	}
}

// decideLocked is the tail-sampling verdict, taken exactly when a trace's
// root span finishes and every descendant is already in the buffer (or
// arrives late and is appended to the retained tree).
func (c *Collector) decideLocked(k traceKey, tb *traceBuf, root *rec) {
	if c.isSlowLocked(root.dur) {
		root.flags |= FlagSlow
		tb.flags |= FlagSlow
	}
	c.noteRootDurLocked(root.dur)

	reason := ""
	switch {
	case tb.flags&FlagError != 0:
		reason = "error"
	case tb.flags&FlagShed != 0:
		reason = "shed"
	case tb.flags&FlagFailOpen != 0:
		reason = "failopen"
	case tb.flags&FlagDegraded != 0:
		reason = "degraded"
	case tb.flags&FlagSlow != 0:
		reason = "slow"
	case tb.forced:
		reason = "forced"
	case hash01(k.hi, k.lo) < c.opts.SampleRate:
		reason = "probabilistic"
	}
	delete(c.pending, k)
	if reason == "" {
		mDropped.Add(int64(len(tb.spans)))
		return
	}
	tb.reason = reason
	tb.decided = c.now().UnixNano()
	c.decideSeq++
	tb.order = c.decideSeq
	c.retained[k] = tb
	c.retainedOrder = append(c.retainedOrder, k)
	mSampled.Inc()
	for len(c.retained) > c.opts.MaxTraces {
		c.evictOldestRetainedLocked()
	}
}

// evictOldestPendingLocked drops the oldest trace still waiting for its
// root (lazy FIFO: order entries whose key already left the map are
// skipped). Its spans are lost and counted dropped.
func (c *Collector) evictOldestPendingLocked() {
	for len(c.pendingOrder) > 0 {
		k := c.pendingOrder[0]
		c.pendingOrder = c.pendingOrder[1:]
		if tb, ok := c.pending[k]; ok {
			mDropped.Add(int64(len(tb.spans)))
			delete(c.pending, k)
			return
		}
	}
}

func (c *Collector) evictOldestRetainedLocked() {
	for len(c.retainedOrder) > 0 {
		k := c.retainedOrder[0]
		c.retainedOrder = c.retainedOrder[1:]
		if tb, ok := c.retained[k]; ok {
			mDropped.Add(int64(len(tb.spans)))
			delete(c.retained, k)
			return
		}
	}
}

// isSlowLocked reports whether a root duration crosses the slow bar.
func (c *Collector) isSlowLocked(durNs int64) bool {
	if c.opts.SlowThreshold > 0 {
		return durNs >= c.opts.SlowThreshold.Nanoseconds()
	}
	if c.rootN < dynSlowMinRoots {
		return false
	}
	return durNs >= c.dynP99Locked()
}

func (c *Collector) noteRootDurLocked(durNs int64) {
	if durNs < 0 {
		durNs = 0
	}
	c.rootDur[bits.Len64(uint64(durNs))]++
	c.rootN++
}

// dynP99Locked estimates the p99 root duration as the upper bound of the
// log2 bucket holding the 99th-percentile rank. One-bucket resolution is
// plenty: the point is catching order-of-magnitude outliers, not exact
// percentiles.
func (c *Collector) dynP99Locked() int64 {
	rank := int64(float64(c.rootN) * 0.99)
	cum := int64(0)
	for i, n := range c.rootDur {
		cum += n
		if cum > rank {
			if i >= 63 {
				return int64(^uint64(0) >> 1)
			}
			return int64(1) << uint(i)
		}
	}
	return int64(^uint64(0) >> 1)
}

// --- Queries ----------------------------------------------------------------

// SpanRecord is one finished span as exposed by queries and captures.
type SpanRecord struct {
	TraceID  string   `json:"trace_id"`
	SpanID   string   `json:"span_id"`
	Parent   string   `json:"parent_span_id,omitempty"`
	Name     string   `json:"name"`
	Service  string   `json:"service,omitempty"`
	Contract string   `json:"contract,omitempty"`
	Note     string   `json:"note,omitempty"`
	Flags    []string `json:"flags,omitempty"`
	StartNs  int64    `json:"start_unix_ns"`
	DurNs    int64    `json:"duration_ns"`
}

// Tree is one retained trace: its spans sorted by start time plus the
// retention verdict.
type Tree struct {
	TraceID string `json:"trace_id"`
	// Reason is why tail sampling kept the trace: error, shed, failopen,
	// degraded, slow, forced, or probabilistic.
	Reason string `json:"reason"`
	// Services lists the distinct services the trace crossed, in first-
	// appearance order.
	Services []string     `json:"services"`
	Spans    []SpanRecord `json:"spans"`
}

func (c *Collector) treeLocked(k traceKey, tb *traceBuf) Tree {
	spans := make([]*rec, len(tb.spans))
	copy(spans, tb.spans)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].seq < spans[j].seq
	})
	t := Tree{TraceID: Context{TraceHi: k.hi, TraceLo: k.lo}.TraceID(), Reason: tb.reason}
	seen := map[string]bool{}
	for _, r := range spans {
		if r.service != "" && !seen[r.service] {
			seen[r.service] = true
			t.Services = append(t.Services, r.service)
		}
		sr := SpanRecord{
			TraceID:  t.TraceID,
			SpanID:   hex16(r.ctx.Span),
			Name:     r.name,
			Service:  r.service,
			Contract: r.contract,
			Note:     r.note,
			Flags:    r.flags.Names(),
			StartNs:  r.start,
			DurNs:    r.dur,
		}
		if r.parent != 0 {
			sr.Parent = hex16(r.parent)
		}
		t.Spans = append(t.Spans, sr)
	}
	return t
}

// Tree returns the retained trace for a 32-hex trace ID (or a full
// traceparent string), flushing first. ok is false when the trace was
// never seen, was sampled out, or has been evicted.
func (c *Collector) Tree(traceID string) (Tree, bool) {
	hi, lo, ok := ParseTraceID(traceID)
	if !ok {
		if tc, ok2 := Parse(traceID); ok2 {
			hi, lo = tc.TraceHi, tc.TraceLo
		} else {
			return Tree{}, false
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	k := traceKey{hi, lo}
	tb, ok := c.retained[k]
	if !ok {
		return Tree{}, false
	}
	return c.treeLocked(k, tb), true
}

// Query filters retained traces.
type Query struct {
	// Contract keeps only traces with a span tagged with this contract.
	Contract string
	// Outcome filters by retention class: "error", "shed", "failopen",
	// "degraded", "slow", "forced", "probabilistic", "incident" (any
	// flagged reason), or "" for all.
	Outcome string
	// Limit caps the result count (0 = all), newest first.
	Limit int
}

// Traces returns retained traces matching q, newest decision first.
func (c *Collector) Traces(q Query) []Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	type hit struct {
		k  traceKey
		tb *traceBuf
	}
	var hits []hit
	for k, tb := range c.retained {
		if !matchOutcome(q.Outcome, tb.reason) {
			continue
		}
		if q.Contract != "" && !hasContract(tb, q.Contract) {
			continue
		}
		hits = append(hits, hit{k, tb})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].tb.decided != hits[j].tb.decided {
			return hits[i].tb.decided > hits[j].tb.decided
		}
		return hits[i].tb.order > hits[j].tb.order
	})
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}
	out := make([]Tree, 0, len(hits))
	for _, h := range hits {
		out = append(out, c.treeLocked(h.k, h.tb))
	}
	return out
}

func matchOutcome(outcome, reason string) bool {
	switch outcome {
	case "":
		return true
	case "incident":
		switch reason {
		case "error", "shed", "failopen", "degraded", "slow":
			return true
		}
		return false
	default:
		return outcome == reason
	}
}

func hasContract(tb *traceBuf, contract string) bool {
	for _, r := range tb.spans {
		if r.contract == contract {
			return true
		}
	}
	return false
}

// Stats is a point-in-time summary of the collector's stores.
type Stats struct {
	Retained int `json:"retained"`
	Pending  int `json:"pending"`
}

// Stats flushes and reports store sizes (tests and /debug/traces).
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	return Stats{Retained: len(c.retained), Pending: len(c.pending)}
}
