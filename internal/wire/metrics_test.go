package wire_test

// Metrics-exactness tests for the wire client under fault injection: a
// scripted connection-cut sequence through faults.Proxy must move the
// reconnect/broken/error counters by EXACT amounts — a reconnect counter
// that merely "goes up" cannot be trusted to equal the number of repaired
// outages on a dashboard. Assertions read the Prometheus exposition (what
// a real scraper sees), not package internals. Runs under -race in CI.

import (
	"net"
	"strings"
	"testing"
	"time"

	"entitlement/internal/faults"
	"entitlement/internal/obs"
	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
)

// scrapeDefault renders and parses the default registry.
func scrapeDefault(t *testing.T) obs.Scrape {
	t.Helper()
	var b strings.Builder
	obs.Default().WritePrometheus(&b)
	s, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return s
}

func echoServer(t *testing.T) *wire.Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return wire.NewServerPayload(l, func(_ trace.Context, method string, _ wire.Payload) (interface{}, error) {
		return map[string]string{"echo": method}, nil
	}, wire.ServerOptions{})
}

func TestClientMetricsExactUnderScriptedCuts(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	proxy, err := faults.NewProxy(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := wire.DialOpts(proxy.Addr(), wire.ClientOptions{
		DialTimeout: time.Second,
		CallTimeout: 2 * time.Second,
		MinBackoff:  time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Warm call so the connection is established and tracked by the proxy.
	if err := c.Call("warm", nil, nil); err != nil {
		t.Fatalf("warm call: %v", err)
	}

	base := scrapeDefault(t)
	const cuts = 3
	calls, failures := 0, 0
	for i := 0; i < cuts; i++ {
		proxy.CutConnections()
		// The first call on a cut connection MUST fail transient (write
		// error or EOF on the read), marking the connection broken.
		calls++
		err := c.Call("echo", nil, nil)
		if err == nil {
			t.Fatalf("cut %d: call on a cut connection succeeded", i)
		}
		if !wire.IsTransient(err) {
			t.Fatalf("cut %d: error not transient: %v", i, err)
		}
		failures++
		// The retry re-dials (the proxy is alive, so the dial succeeds
		// immediately — no backoff gate) and must succeed.
		calls++
		if err := c.Call("echo", nil, nil); err != nil {
			t.Fatalf("cut %d: call after re-dial failed: %v", i, err)
		}
	}

	after := scrapeDefault(t)
	delta := func(key string) float64 { return after.Value(key) - base.Value(key) }

	if got := delta("entitlement_wire_client_reconnects_total"); got != cuts {
		t.Errorf("reconnects delta = %v, want exactly %d", got, cuts)
	}
	if got := delta("entitlement_wire_client_broken_total"); got != cuts {
		t.Errorf("broken delta = %v, want exactly %d", got, cuts)
	}
	if got := delta(`entitlement_wire_client_errors_total{kind="transient"}`); got != float64(failures) {
		t.Errorf("transient errors delta = %v, want exactly %d", got, failures)
	}
	if got := delta("entitlement_wire_client_dials_total"); got != cuts {
		t.Errorf("dials delta = %v, want exactly %d re-dials", got, cuts)
	}
	if got := delta("entitlement_wire_client_dial_failures_total"); got != 0 {
		t.Errorf("dial failures delta = %v, want 0", got)
	}
	if got := delta(`entitlement_wire_client_calls_total{method="echo"}`); got != float64(calls) {
		t.Errorf("calls{echo} delta = %v, want exactly %d", got, calls)
	}
	// Every call reached the transport (no backoff fast-fails), so the
	// latency histogram saw every one of them.
	if got := delta(`entitlement_wire_client_call_seconds_count{method="echo"}`); got != float64(calls) {
		t.Errorf("call_seconds_count{echo} delta = %v, want exactly %d", got, calls)
	}
	if got := after.Value("entitlement_wire_client_inflight_calls"); got != 0 {
		t.Errorf("inflight gauge = %v after all calls returned, want 0", got)
	}
	if delta("entitlement_wire_client_bytes_sent_total") <= 0 || delta("entitlement_wire_client_bytes_received_total") <= 0 {
		t.Error("byte counters did not move")
	}
}

func TestClientMetricsBackoffAndDialFailures(t *testing.T) {
	srv := echoServer(t)
	proxy, err := faults.NewProxy(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	now := time.Now()
	clock := func() time.Time { return now }
	c, err := wire.DialOpts(proxy.Addr(), wire.ClientOptions{
		DialTimeout: time.Second,
		CallTimeout: time.Second,
		MinBackoff:  time.Hour, // gate stays closed for the whole test
		MaxBackoff:  time.Hour,
		Now:         clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("ok", nil, nil); err != nil {
		t.Fatal(err)
	}

	// Kill proxy AND server: the cut breaks the conn, and every re-dial
	// now fails, closing the backoff gate.
	proxy.Close()
	srv.Close()

	base := scrapeDefault(t)
	if err := c.Call("x", nil, nil); err == nil { // breaks the conn
		t.Fatal("call on dead proxy succeeded")
	}
	if err := c.Call("x", nil, nil); err == nil { // dial fails, gate closes
		t.Fatal("re-dial against dead proxy succeeded")
	}
	const gated = 4
	for i := 0; i < gated; i++ { // fail fast at the gate
		if err := c.Call("x", nil, nil); err == nil {
			t.Fatal("gated call succeeded")
		}
	}
	after := scrapeDefault(t)
	delta := func(key string) float64 { return after.Value(key) - base.Value(key) }
	if got := delta("entitlement_wire_client_dial_failures_total"); got != 1 {
		t.Errorf("dial failures delta = %v, want exactly 1", got)
	}
	if got := delta("entitlement_wire_client_backoff_rejects_total"); got != gated {
		t.Errorf("backoff rejects delta = %v, want exactly %d", got, gated)
	}
	if got := delta("entitlement_wire_client_reconnects_total"); got != 0 {
		t.Errorf("reconnects delta = %v, want 0", got)
	}
}
