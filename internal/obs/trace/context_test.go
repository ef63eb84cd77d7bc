package trace

import (
	"math/rand"
	"strings"
	"testing"
)

func TestContextStringParseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		c := Context{
			TraceHi: rng.Uint64(),
			TraceLo: rng.Uint64(),
			Span:    rng.Uint64() | 1, // non-zero
			Sampled: rng.Intn(2) == 0,
		}
		if c.TraceHi|c.TraceLo == 0 {
			c.TraceLo = 1
		}
		s := c.String()
		got, ok := Parse(s)
		if !ok {
			t.Fatalf("Parse(%q) failed for a canonical context", s)
		}
		if got != c {
			t.Fatalf("roundtrip changed context: %+v -> %+v", c, got)
		}
		if got.String() != s {
			t.Fatalf("re-encode not byte-identical: %q -> %q", s, got.String())
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	valid := Context{TraceHi: 0xabc, TraceLo: 0xdef, Span: 0x123}.String()
	if _, ok := Parse(valid); !ok {
		t.Fatalf("sanity: %q must parse", valid)
	}
	bad := []string{
		"",
		"00",
		valid[:54],                          // truncated
		valid + "0",                         // too long
		strings.ToUpper(valid),              // uppercase hex is non-canonical
		"ff" + valid[2:],                    // unknown version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-00000000000000000000000000000000-0000000000000001-00", // zero trace ID
		"00-00000000000000000000000000000abc-0000000000000000-00", // zero span ID
		"00-0000000000000000000000000000gabc-0000000000000001-00", // non-hex digit
	}
	for _, s := range bad {
		if _, ok := Parse(s); ok {
			t.Errorf("Parse(%q) accepted malformed input", s)
		}
	}
}

func TestParseTraceID(t *testing.T) {
	c := Context{TraceHi: 0x1122334455667788, TraceLo: 0x99aabbccddeeff00, Span: 1}
	hi, lo, ok := ParseTraceID(c.TraceID())
	if !ok || hi != c.TraceHi || lo != c.TraceLo {
		t.Fatalf("ParseTraceID(%q) = %x %x %v", c.TraceID(), hi, lo, ok)
	}
	for _, s := range []string{"", "xyz", strings.Repeat("0", 32), strings.Repeat("A", 32)} {
		if _, _, ok := ParseTraceID(s); ok {
			t.Errorf("ParseTraceID(%q) accepted malformed input", s)
		}
	}
}

// TestRootIDsAreProcessUnique is the trace-root collision fix: the old
// "<host>-c<seq>" stamp collided across same-named agents and restarts;
// roots minted here must carry the per-process random identity in the high
// half and a unique low half, independent of any configured host name.
func TestRootIDsAreProcessUnique(t *testing.T) {
	if processID == 0 {
		t.Fatal("processID is zero — trace IDs would be invalid")
	}
	c := NewCollector(Options{})
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		sp := c.StartRoot("r")
		ctx := sp.Context()
		if ctx.TraceHi != processID {
			t.Fatalf("root trace hi %x != process ID %x", ctx.TraceHi, processID)
		}
		if !ctx.Valid() {
			t.Fatalf("invalid root context %+v", ctx)
		}
		id := ctx.TraceID()
		if seen[id] {
			t.Fatalf("trace ID %s minted twice", id)
		}
		seen[id] = true
	}
}

// FuzzParseTraceContext hardens the wire-facing parser: arbitrary bytes in
// the request Trace field must never panic, and every accepted input must
// re-encode to a canonical form that round-trips byte-identically.
func FuzzParseTraceContext(f *testing.F) {
	f.Add(Context{TraceHi: 1, TraceLo: 2, Span: 3}.String())
	f.Add(Context{TraceHi: ^uint64(0), TraceLo: ^uint64(0), Span: ^uint64(0), Sampled: true}.String())
	f.Add("00-0000000000000000000000000000000a-000000000000000b-01")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("ff-ffffffffffffffffffffffffffffffff-ffffffffffffffff-ff")
	f.Add("")
	f.Add("not a traceparent at all")
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := Parse(s)
		if !ok {
			return
		}
		if !c.Valid() {
			t.Fatalf("Parse(%q) accepted an invalid context %+v", s, c)
		}
		canon := c.String()
		c2, ok2 := Parse(canon)
		if !ok2 || c2 != c {
			t.Fatalf("canonical re-encode of %q does not round-trip: %q -> %+v ok=%v", s, canon, c2, ok2)
		}
		if c2.String() != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, c2.String())
		}
	})
}
