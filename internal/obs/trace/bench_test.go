package trace

import (
	"fmt"
	"testing"
)

var benchSpanSink Span

// BenchmarkSpanStart measures one half of the span hot path: a root span
// started per op — one clock read, one ID mint. The design budget is <200ns
// for each of start and finish; both are recorded in BENCH.txt and, being
// below the bench-regress gate's 1µs noise floor, not gated.
func BenchmarkSpanStart(b *testing.B) {
	c := NewCollector(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSpanSink = c.StartRoot("bench")
	}
}

// BenchmarkSpanFinish is the other half: one Finish per op — one monotonic
// clock read, the staged-record allocation, and one atomic ring store. A
// small pool of pre-started spans is re-armed by clearing the finished
// latch (package-internal); small so the span is cache-hot, as it is at
// real call sites where Finish follows the work on the same stack.
func BenchmarkSpanFinish(b *testing.B) {
	c := NewCollector(Options{})
	const poolBits = 8
	spans := make([]*Span, 1<<poolBits)
	for i := range spans {
		sp := c.StartRoot("bench")
		spans[i] = &sp
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := spans[i&(1<<poolBits-1)]
		s.finished = false
		s.Finish()
	}
}

// BenchmarkSpanStartFinish measures the full pair for reference (the sum
// of the two budgeted halves plus loop overhead).
func BenchmarkSpanStartFinish(b *testing.B) {
	c := NewCollector(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := c.StartRoot("bench")
		sp.Finish()
	}
}

// BenchmarkSpanChildStartFinish measures the child-span path (the wire
// layer's per-RPC cost when a trace context is set).
func BenchmarkSpanChildStartFinish(b *testing.B) {
	c := NewCollector(Options{})
	rootSp := c.StartRoot("parent")
	parent := rootSp.Context()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := c.StartChild(parent, "bench")
		sp.Finish()
	}
}

// BenchmarkContextEncode measures Context.String — paid once per traced
// RPC to fill the wire frame's Trace field.
func BenchmarkContextEncode(b *testing.B) {
	ctx := Context{TraceHi: 0x1122334455667788, TraceLo: 0x99aabbccddeeff00, Span: 0xdeadbeefcafef00d, Sampled: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctx.String()
	}
}

// BenchmarkContextParse measures Parse — paid once per traced inbound
// request on the server side.
func BenchmarkContextParse(b *testing.B) {
	s := Context{TraceHi: 0x1122334455667788, TraceLo: 0x99aabbccddeeff00, Span: 0xdeadbeefcafef00d, Sampled: true}.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Parse(s); !ok {
			b.Fatal("parse failed")
		}
	}
}

// BenchmarkTraceAssembly measures the off-hot-path cost of one full trace:
// a 10-span tree finished, flushed, tail-decided, and queried back.
func BenchmarkTraceAssembly(b *testing.B) {
	c := NewCollector(Options{SampleRate: 1, MaxTraces: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := c.StartRoot("root")
		for j := 0; j < 3; j++ {
			phase := c.StartChild(root.Context(), fmt.Sprintf("phase-%d", j))
			for k := 0; k < 2; k++ {
				rpc := c.StartChild(phase.Context(), "rpc")
				rpc.Finish()
			}
			phase.Finish()
		}
		root.Finish()
		if _, ok := c.Tree(root.TraceID()); !ok {
			b.Fatal("trace not retained at rate 1")
		}
	}
}
