package trace

import (
	"strings"
	"time"
)

// Flags classify what happened inside a span. Any non-zero flag anywhere in
// a trace forces tail sampling to retain the whole trace.
type Flags uint32

const (
	// FlagError marks a span that ended in an error.
	FlagError Flags = 1 << iota
	// FlagShed marks a request refused by overload admission control.
	FlagShed
	// FlagDegraded marks a degraded (fail-static) enforcement cycle.
	FlagDegraded
	// FlagFailOpen marks a fail-open enforcement cycle.
	FlagFailOpen
	// FlagSlow is stamped by the collector on a root span whose duration
	// crossed the slow threshold (explicit or dynamic p99).
	FlagSlow
)

var flagNames = []struct {
	f    Flags
	name string
}{
	{FlagError, "error"},
	{FlagShed, "shed"},
	{FlagDegraded, "degraded"},
	{FlagFailOpen, "failopen"},
	{FlagSlow, "slow"},
}

// Names returns the set flags as sorted human-readable tokens.
func (f Flags) Names() []string {
	var out []string
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// String renders the flags as "error|shed" ("" when none are set).
func (f Flags) String() string { return strings.Join(f.Names(), "|") }

// Span is a live span handle. Start it with Collector.StartRoot or
// StartChild, annotate it, and Finish it exactly once; nothing is recorded
// until Finish. A Span is owned by one goroutine at a time (hand-off
// through a channel is fine); its methods are nil- and zero-safe so call
// sites can stay unconditional even when tracing is off.
//
// Spans are plain values that live on the caller's stack: starting one
// costs a clock read and an ID mint, and only Finish allocates — the one
// heap record the staging ring keeps. Do not copy a Span you intend to
// Finish (each copy carries its own once-latch and would publish again).
type Span struct {
	col      *Collector
	startT   time.Time
	finished bool
	r        rec
}

// Context returns the span's propagation context — what goes on the wire,
// and what children parent under. Zero for a nil span.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return s.r.ctx
}

// TraceID returns the span's 32-hex trace ID ("" for a nil or zero span).
func (s *Span) TraceID() string {
	if s == nil || !s.r.ctx.Valid() {
		return ""
	}
	return s.r.ctx.TraceID()
}

// SetService overrides the service name this span is attributed to. In a
// single process that is normally the collector's configured service; the
// in-process integration harness and the wire layer label spans per hop.
func (s *Span) SetService(service string) {
	if s == nil || s.finished {
		return
	}
	s.r.service = service
}

// SetContract tags the span with the contract (NPG) it acted for, making
// the trace queryable by contract.
func (s *Span) SetContract(contract string) {
	if s == nil || s.finished {
		return
	}
	s.r.contract = contract
}

// Annotate attaches a short free-form note (last write wins).
func (s *Span) Annotate(note string) {
	if s == nil || s.finished {
		return
	}
	s.r.note = note
}

// Flag ORs classification flags onto the span.
func (s *Span) Flag(f Flags) {
	if s == nil || s.finished {
		return
	}
	s.r.flags |= f
}

// SetError marks the span failed and records the error text; the whole
// trace is then retained by tail sampling.
func (s *Span) SetError(err error) {
	if s == nil || s.finished || err == nil {
		return
	}
	s.r.flags |= FlagError
	s.r.note = err.Error()
}

// Finish stamps the duration and publishes the span into the collector's
// staging ring. Start and Finish are each one budgeted hot-path operation
// (<200ns): Start is a clock read plus an ID mint on the caller's stack;
// Finish is a monotonic clock read, the single heap allocation for the
// staged record, and one atomic ring store. Finishing twice (or finishing
// a nil/zero span) is a no-op.
func (s *Span) Finish() {
	if s == nil || s.finished || s.col == nil {
		return
	}
	s.finished = true
	r := new(rec)
	*r = s.r
	r.start = s.startT.UnixNano()
	r.dur = s.col.since(s.startT).Nanoseconds()
	r.root = r.parent == 0
	s.col.publish(r)
}
