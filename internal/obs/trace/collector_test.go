package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable Options.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 9, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func finishTrace(c *Collector, name string, rootFlags Flags, children int) Span {
	root := c.StartRoot(name)
	for i := 0; i < children; i++ {
		ch := c.StartChild(root.Context(), fmt.Sprintf("child-%d", i))
		ch.Finish()
	}
	root.Flag(rootFlags)
	root.Finish()
	return root
}

// TestTailSamplingRetainsIncidents: with probabilistic sampling off, a
// healthy trace is dropped and every incident class is retained, with the
// retention reason naming the most severe flag present anywhere in it.
func TestTailSamplingRetainsIncidents(t *testing.T) {
	c := NewCollector(Options{SampleRate: -1, Service: "test"})

	healthy := finishTrace(c, "healthy", 0, 2)
	if _, ok := c.Tree(healthy.TraceID()); ok {
		t.Fatal("healthy trace retained with SampleRate 0")
	}

	cases := []struct {
		flags  Flags
		reason string
	}{
		{FlagError, "error"},
		{FlagShed, "shed"},
		{FlagFailOpen, "failopen"},
		{FlagDegraded, "degraded"},
	}
	for _, tc := range cases {
		sp := finishTrace(c, "incident", tc.flags, 2)
		tree, ok := c.Tree(sp.TraceID())
		if !ok {
			t.Fatalf("%s trace was not retained", tc.reason)
		}
		if tree.Reason != tc.reason {
			t.Fatalf("retention reason = %q, want %q", tree.Reason, tc.reason)
		}
		if len(tree.Spans) != 3 {
			t.Fatalf("%s trace has %d spans, want 3", tc.reason, len(tree.Spans))
		}
	}

	// A flag on a child (not the root) must retain the trace too — that is
	// the point of deciding at the tail.
	root := c.StartRoot("root")
	ch := c.StartChild(root.Context(), "failing-child")
	ch.SetError(errors.New("boom"))
	ch.Finish()
	root.Finish()
	tree, ok := c.Tree(root.TraceID())
	if !ok || tree.Reason != "error" {
		t.Fatalf("child error did not retain trace: ok=%v reason=%q", ok, tree.Reason)
	}
}

// TestTailSamplingHealthyRate: the deterministic hash sampler keeps about
// SampleRate of healthy traces — and at the acceptance bound, no more than
// twice the configured 5%.
func TestTailSamplingHealthyRate(t *testing.T) {
	const n = 2000
	c := NewCollector(Options{SampleRate: 0.05, MaxTraces: n})
	kept := 0
	for i := 0; i < n; i++ {
		sp := finishTrace(c, "healthy", 0, 0)
		if _, ok := c.Tree(sp.TraceID()); ok {
			kept++
		}
	}
	frac := float64(kept) / n
	if frac > 0.10 {
		t.Fatalf("healthy retention %.3f exceeds the 10%% bound", frac)
	}
	if kept == 0 {
		t.Fatal("sampler kept nothing out of 2000 healthy traces at 5%")
	}
	// Determinism: the same trace IDs re-decided give the same verdict.
	if h := hash01(1, 2); h != hash01(1, 2) {
		t.Fatal("hash01 is not deterministic")
	}
}

// TestMetricsExactDeltas pins the entitlement_trace_* accounting: a
// sampled-out trace adds its span count to dropped_total; a retained trace
// adds one to sampled_total; every Finish adds one to spans_total.
func TestMetricsExactDeltas(t *testing.T) {
	c := NewCollector(Options{SampleRate: -1})
	spans0, sampled0, dropped0 := mSpans.Value(), mSampled.Value(), mDropped.Value()

	finishTrace(c, "healthy", 0, 2) // 3 spans, sampled out
	c.Flush()
	if d := mSpans.Value() - spans0; d != 3 {
		t.Fatalf("spans_total delta = %d, want 3", d)
	}
	if d := mDropped.Value() - dropped0; d != 3 {
		t.Fatalf("dropped_total delta = %d, want 3", d)
	}
	if d := mSampled.Value() - sampled0; d != 0 {
		t.Fatalf("sampled_total delta = %d, want 0", d)
	}

	spans0, sampled0, dropped0 = mSpans.Value(), mSampled.Value(), mDropped.Value()
	finishTrace(c, "incident", FlagDegraded, 1) // 2 spans, retained
	c.Flush()
	if d := mSpans.Value() - spans0; d != 2 {
		t.Fatalf("spans_total delta = %d, want 2", d)
	}
	if d := mSampled.Value() - sampled0; d != 1 {
		t.Fatalf("sampled_total delta = %d, want 1", d)
	}
	if d := mDropped.Value() - dropped0; d != 0 {
		t.Fatalf("dropped_total delta = %d, want 0", d)
	}
}

// TestRingOverwriteCountsDropped: spans that wrap the staging ring before a
// flush are lost — and the loss must be visible in dropped_total, never
// silent.
func TestRingOverwriteCountsDropped(t *testing.T) {
	c := NewCollector(Options{Capacity: 8, SampleRate: -1})
	dropped0 := mDropped.Value()
	for i := 0; i < 20; i++ {
		sp := c.StartRoot("r") // 20 roots through an 8-slot ring
		sp.Finish()
	}
	c.Flush()
	// 12 spans were overwritten before the flush; the 8 survivors are
	// healthy single-span traces and are sampled out (8 more drops).
	if d := mDropped.Value() - dropped0; d != 20 {
		t.Fatalf("dropped_total delta = %d, want 20 (12 overwritten + 8 sampled out)", d)
	}
}

// TestForcedSampledBit: a context arriving with the traceparent sampled bit
// set forces retention even for a healthy trace.
func TestForcedSampledBit(t *testing.T) {
	c := NewCollector(Options{SampleRate: -1})
	parent := Context{TraceHi: processID, TraceLo: newID(), Span: newID(), Sampled: true}
	sp := c.StartChild(parent, "forced-root")
	// The child of a sampled parent is not itself a root; simulate the
	// remote fragment by finishing a local root carrying the bit.
	sp.Finish()
	// No root finished yet — still pending.
	if st := c.Stats(); st.Pending != 1 || st.Retained != 0 {
		t.Fatalf("before root: stats = %+v", st)
	}
	root := &Span{col: c, startT: c.now()}
	root.r.ctx = parent
	root.r.name = "root"
	root.Finish()
	tree, ok := c.Tree(parent.TraceID())
	if !ok || tree.Reason != "forced" {
		t.Fatalf("sampled-bit trace not force-retained: ok=%v reason=%q", ok, tree.Reason)
	}
}

// TestSlowThresholdRetains: a root crossing the explicit slow bar is
// retained and stamped FlagSlow.
func TestSlowThresholdRetains(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(Options{SampleRate: -1, SlowThreshold: 100 * time.Millisecond, Now: clk.Now})

	fast := c.StartRoot("fast")
	clk.Advance(10 * time.Millisecond)
	fast.Finish()
	if _, ok := c.Tree(fast.TraceID()); ok {
		t.Fatal("fast trace retained")
	}

	slow := c.StartRoot("slow")
	clk.Advance(150 * time.Millisecond)
	slow.Finish()
	tree, ok := c.Tree(slow.TraceID())
	if !ok || tree.Reason != "slow" {
		t.Fatalf("slow trace not retained: ok=%v reason=%q", ok, tree.Reason)
	}
	if !strings.Contains(strings.Join(tree.Spans[0].Flags, "|"), "slow") {
		t.Fatalf("root span not stamped slow: %v", tree.Spans[0].Flags)
	}
}

// TestDynamicP99Retains: with no explicit threshold, the collector learns
// its own root-duration distribution and retains order-of-magnitude
// outliers.
func TestDynamicP99Retains(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(Options{SampleRate: -1, Now: clk.Now, MaxTraces: 512})
	for i := 0; i < 200; i++ {
		sp := c.StartRoot("steady")
		clk.Advance(time.Millisecond)
		sp.Finish()
	}
	c.Flush()
	outlier := c.StartRoot("outlier")
	clk.Advance(time.Second)
	outlier.Finish()
	tree, ok := c.Tree(outlier.TraceID())
	if !ok || tree.Reason != "slow" {
		t.Fatalf("p99 outlier not retained: ok=%v reason=%q", ok, tree.Reason)
	}
}

// TestQueryByContractAndOutcome exercises the /debug/traces filters at the
// API and HTTP layers.
func TestQueryByContractAndOutcome(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(Options{SampleRate: -1, Now: clk.Now})

	mk := func(contract string, flags Flags) Span {
		root := c.StartRoot("enforce.cycle")
		root.SetContract(contract)
		root.SetService("agent-1")
		clk.Advance(time.Millisecond)
		root.Flag(flags)
		root.Finish()
		clk.Advance(time.Millisecond)
		return root
	}
	a := mk("Coldstorage", FlagDegraded)
	b := mk("WebCrawl", FlagFailOpen)
	mk("WebCrawl", FlagError)

	got := c.Traces(Query{Contract: "Coldstorage"})
	if len(got) != 1 || got[0].TraceID != a.TraceID() {
		t.Fatalf("contract query: got %d traces", len(got))
	}
	got = c.Traces(Query{Outcome: "failopen"})
	if len(got) != 1 || got[0].TraceID != b.TraceID() {
		t.Fatalf("outcome query: got %d traces", len(got))
	}
	if got = c.Traces(Query{Outcome: "incident"}); len(got) != 3 {
		t.Fatalf("incident query: got %d traces, want 3", len(got))
	}
	if got = c.Traces(Query{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit query: got %d traces, want 2", len(got))
	}
	// Newest decision first.
	all := c.Traces(Query{})
	if len(all) != 3 || all[0].Reason != "error" {
		t.Fatalf("ordering: first reason %q, want error (newest)", all[0].Reason)
	}

	// HTTP layer.
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var body struct {
		Stats  Stats  `json:"stats"`
		Traces []Tree `json:"traces"`
	}
	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body.Traces = nil
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	if code := get("/debug/traces?trace=" + a.TraceID()); code != 200 || len(body.Traces) != 1 {
		t.Fatalf("by-trace: code %d, %d traces", code, len(body.Traces))
	}
	if code := get("/debug/traces?contract=WebCrawl"); code != 200 || len(body.Traces) != 2 {
		t.Fatalf("by-contract: code %d, %d traces", code, len(body.Traces))
	}
	if code := get("/debug/traces?outcome=degraded"); code != 200 || len(body.Traces) != 1 {
		t.Fatalf("by-outcome: code %d, %d traces", code, len(body.Traces))
	}
	if code := get("/debug/traces?trace=" + strings.Repeat("0", 32)); code != 404 {
		t.Fatalf("unknown trace: code %d, want 404", code)
	}
	if body.Stats.Retained != 3 {
		t.Fatalf("stats.retained = %d, want 3", body.Stats.Retained)
	}
}

// TestTreeParentChildEdges: the assembled tree carries correct edges and
// the renderer nests children under parents.
func TestTreeParentChildEdges(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(Options{SampleRate: -1, Now: clk.Now, Service: "svc"})
	root := c.StartRoot("root")
	clk.Advance(time.Millisecond)
	mid := c.StartChild(root.Context(), "mid")
	clk.Advance(time.Millisecond)
	leaf := c.StartChild(mid.Context(), "leaf")
	leaf.SetService("remote")
	clk.Advance(time.Millisecond)
	leaf.Finish()
	mid.Finish()
	root.Flag(FlagDegraded)
	root.Finish()

	tree, ok := c.Tree(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	byName := map[string]SpanRecord{}
	for _, s := range tree.Spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != "" {
		t.Fatalf("root has parent %q", byName["root"].Parent)
	}
	if byName["mid"].Parent != byName["root"].SpanID {
		t.Fatal("mid is not a child of root")
	}
	if byName["leaf"].Parent != byName["mid"].SpanID {
		t.Fatal("leaf is not a child of mid")
	}
	if byName["root"].StartNs > byName["mid"].StartNs || byName["mid"].StartNs > byName["leaf"].StartNs {
		t.Fatal("span start times are not monotone down the tree")
	}
	if len(tree.Services) != 2 || tree.Services[0] != "svc" || tree.Services[1] != "remote" {
		t.Fatalf("services = %v", tree.Services)
	}
	r := tree.Render()
	if !strings.Contains(r, "root") || !strings.Contains(r, "    ") {
		t.Fatalf("render has no nesting:\n%s", r)
	}
	rootLine := strings.Index(r, "root")
	leafLine := strings.Index(r, "leaf")
	if rootLine < 0 || leafLine < rootLine {
		t.Fatalf("render order wrong:\n%s", r)
	}
}

// TestNilSpanSafety: every Span method must be a no-op on nil so untraced
// call sites stay branch-free.
func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.SetService("x")
	s.SetContract("y")
	s.Annotate("z")
	s.Flag(FlagError)
	s.SetError(errors.New("boom"))
	s.Finish()
	if s.TraceID() != "" || s.Context().Valid() {
		t.Fatal("nil span leaked identity")
	}
}

// TestBoundedStores: pending and retained stores evict FIFO under their
// caps instead of growing without bound.
func TestBoundedStores(t *testing.T) {
	c := NewCollector(Options{SampleRate: -1, MaxPending: 4, MaxTraces: 2})
	// 10 rootless fragments: only 4 pending survive.
	for i := 0; i < 10; i++ {
		parent := Context{TraceHi: 9, TraceLo: uint64(i + 1), Span: newID()}
		frag := c.StartChild(parent, "fragment")
		frag.Finish()
	}
	if st := c.Stats(); st.Pending != 4 {
		t.Fatalf("pending = %d, want 4", st.Pending)
	}
	// 5 retained incidents: only the newest 2 survive.
	var last Span
	for i := 0; i < 5; i++ {
		last = finishTrace(c, "incident", FlagError, 0)
	}
	if st := c.Stats(); st.Retained != 2 {
		t.Fatalf("retained = %d, want 2", st.Retained)
	}
	if _, ok := c.Tree(last.TraceID()); !ok {
		t.Fatal("newest incident evicted before older ones")
	}
}

// TestConcurrentFinishFlush drives writers against the drain under -race:
// the ring publication and flush accounting must be data-race free.
func TestConcurrentFinishFlush(t *testing.T) {
	c := NewCollector(Options{Capacity: 256, SampleRate: 1})
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				finishTrace(c, "t", 0, 1)
			}
		}()
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Flush()
				c.Traces(Query{Limit: 5})
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
}

// Flush drains the staging ring and applies pending tail decisions, as every
// query does first.
func (c *Collector) Flush() {
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
}
