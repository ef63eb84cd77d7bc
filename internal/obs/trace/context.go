// Package trace is the repository's distributed-tracing spine: a
// W3C-traceparent-style propagation context (128-bit trace ID, 64-bit span
// ID, sampled flag), a lock-free bounded span collector per process with
// tail-based sampling, and a /debug/traces query endpoint served through
// obs.Serve. It is stdlib-only and follows the obs registry's conventions:
// hot-path operations are wait-free (one allocation, one atomic ring store),
// instruments register at package init under entitlement_trace_*, and
// everything heavier — trace assembly, sampling decisions, queries — runs
// off the hot path at flush time.
//
// Identity model (the trace-root collision fix): the high 64 bits of every
// trace ID minted in this process are a per-process random value drawn from
// crypto/rand at startup, and the low 64 bits mix a process-local sequence
// through SplitMix64. Two processes — or one process across a restart —
// can therefore never mint colliding trace roots, which the old
// "<host>-c<seq>" stamp (same host name, or a restarted agent, reused the
// same prefix) could not guarantee.
//
// Sampling model: tail-based. Every finished span lands in the staging
// ring; the retain/drop decision for a trace is taken only when its root
// span finishes. Traces containing an error, an overload shed, a degraded
// or fail-open enforcement cycle, or a p99-slow root are retained 100%;
// the healthy rest is sampled with a deterministic hash of the trace ID,
// so every process in a fleet independently reaches the same verdict for
// the same trace without any coordination.
package trace

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"sync/atomic"
	"time"
)

// Context is the propagation context carried on the wire: which trace a
// span belongs to, which span is the parent on the remote side, and whether
// an upstream hop has already forced the trace to be retained.
type Context struct {
	// TraceHi and TraceLo are the 128-bit trace ID. TraceHi is the minting
	// process's random identity; TraceLo is unique within that process.
	TraceHi, TraceLo uint64
	// Span is the 64-bit ID of the span this context points at (the parent
	// of any span started from it).
	Span uint64
	// Sampled is the traceparent sampled flag: an upstream hop decided this
	// trace must be retained regardless of probabilistic sampling.
	Sampled bool
}

// Valid reports whether the context identifies a real span: per the
// traceparent spec an all-zero trace ID or span ID is invalid.
func (c Context) Valid() bool { return c.TraceHi|c.TraceLo != 0 && c.Span != 0 }

// TraceID returns the 32-hex-digit trace ID.
func (c Context) TraceID() string { return fmt.Sprintf("%016x%016x", c.TraceHi, c.TraceLo) }

// SpanID returns the 16-hex-digit span ID.
func (c Context) SpanID() string { return hex16(c.Span) }

// hex16 renders a 64-bit ID as 16 lowercase hex digits.
func hex16(v uint64) string { return fmt.Sprintf("%016x", v) }

// String renders the canonical W3C-traceparent form:
// "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>". Parse(c.String())
// round-trips byte-identically for every valid context.
func (c Context) String() string {
	flags := "00"
	if c.Sampled {
		flags = "01"
	}
	return fmt.Sprintf("00-%016x%016x-%016x-%s", c.TraceHi, c.TraceLo, c.Span, flags)
}

// Parse decodes a traceparent string. It is tolerant by construction —
// arbitrary bytes never panic, they just fail — and strict about shape:
// exactly version 00, lowercase hex, single dashes, non-zero trace and span
// IDs. Unknown flag bits are accepted (per the spec) and normalized away;
// only the sampled bit survives.
func Parse(s string) (Context, bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2
	if len(s) != 55 {
		return Context{}, false
	}
	if s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return Context{}, false
	}
	hi, ok := parseHex64(s[3:19])
	if !ok {
		return Context{}, false
	}
	lo, ok := parseHex64(s[19:35])
	if !ok {
		return Context{}, false
	}
	span, ok := parseHex64(s[36:52])
	if !ok {
		return Context{}, false
	}
	flags, ok := parseHex64(s[53:55])
	if !ok {
		return Context{}, false
	}
	c := Context{TraceHi: hi, TraceLo: lo, Span: span, Sampled: flags&1 != 0}
	if !c.Valid() {
		return Context{}, false
	}
	return c, true
}

// ParseTraceID decodes a bare 32-hex-digit trace ID (the form TraceID
// returns and /debug/traces accepts).
func ParseTraceID(s string) (hi, lo uint64, ok bool) {
	if len(s) != 32 {
		return 0, 0, false
	}
	hi, ok = parseHex64(s[:16])
	if !ok {
		return 0, 0, false
	}
	lo, ok = parseHex64(s[16:])
	if !ok || hi|lo == 0 {
		return 0, 0, false
	}
	return hi, lo, true
}

// parseHex64 decodes up to 16 lowercase hex digits. Uppercase is rejected:
// the traceparent spec mandates lowercase, and accepting both would break
// the byte-identical round-trip guarantee.
func parseHex64(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// --- ID minting -------------------------------------------------------------

// processID is this process's random 64-bit identity, the high half of
// every trace ID minted here. idSeed randomizes the SplitMix64 stream for
// the low halves and span IDs.
var (
	processID uint64
	idSeed    uint64
	idSeq     atomic.Uint64
)

func init() {
	var b [16]byte
	if _, err := crand.Read(b[:]); err == nil {
		processID = binary.BigEndian.Uint64(b[:8])
		idSeed = binary.BigEndian.Uint64(b[8:])
	} else {
		// crypto/rand failing is effectively impossible on the platforms we
		// run on, but a trace ID of zero would be invalid, so fall back to a
		// time+pid hash rather than panicking in an observability layer.
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d", time.Now().UnixNano(), os.Getpid())
		processID = h.Sum64()
		idSeed = splitmix64(processID)
	}
	if processID == 0 {
		processID = 1
	}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, high-quality bijection
// used to turn sequence numbers into well-distributed IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newID mints a non-zero process-unique 64-bit ID.
func newID() uint64 {
	for {
		if v := splitmix64(idSeed ^ idSeq.Add(1)); v != 0 {
			return v
		}
	}
}

// deriveID maps one unique ID to another (a second SplitMix64 pass is a
// bijection, so uniqueness is preserved) without touching the shared
// sequence counter — the root-span fast path mints its trace ID and span
// ID from one atomic add.
func deriveID(v uint64) uint64 {
	for {
		if d := splitmix64(v ^ idSeed); d != 0 {
			return d
		}
		v++
	}
}

// hash01 maps a trace ID to a uniform float64 in [0, 1). Every process
// computes the same value for the same trace, so probabilistic tail
// sampling is coherent fleet-wide without coordination.
func hash01(hi, lo uint64) float64 {
	return float64(splitmix64(hi^splitmix64(lo))>>11) / float64(1<<53)
}
