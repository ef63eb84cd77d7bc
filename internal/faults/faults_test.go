package faults

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"entitlement/internal/kvstore"
	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
)

func TestInjectorOutageWindow(t *testing.T) {
	clock := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }
	inj := NewInjector(1, now)
	inj.AddOutage(clock.Add(10*time.Second), clock.Add(20*time.Second))

	if err := inj.Fail("op"); err != nil {
		t.Fatalf("failure before outage: %v", err)
	}
	clock = clock.Add(15 * time.Second)
	err := inj.Fail("op")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("no failure inside outage: %v", err)
	}
	if !wire.IsTransient(err) {
		t.Error("injected failure not classified transient")
	}
	clock = clock.Add(10 * time.Second)
	if err := inj.Fail("op"); err != nil {
		t.Fatalf("failure after outage: %v", err)
	}
	if inj.Injected() != 1 {
		t.Errorf("injected count = %d, want 1", inj.Injected())
	}
}

func TestInjectorDeterministicProbability(t *testing.T) {
	run := func() []bool {
		inj := NewInjector(42, func() time.Time { return time.Time{} })
		inj.SetFailProb(0.3)
		out := make([]bool, 50)
		for i := range out {
			out[i] = inj.Fail("op") != nil
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Errorf("fail count %d/50 not probabilistic", fails)
	}
}

func TestFlakyRatesPassesThrough(t *testing.T) {
	inj := NewInjector(1, func() time.Time { return time.Time{} })
	f := &FlakyRates{Inner: kvstore.New(), Inj: inj}
	sums := make([]float64, 1)
	if err := f.Exchange([]kvstore.Publish{{Key: "k/a", Value: 3}}, []string{"k/"}, sums); err != nil || sums[0] != 3 {
		t.Fatalf("exchange = %v %v", sums, err)
	}
	inj.SetFailProb(1)
	err := f.Exchange([]kvstore.Publish{{Key: "k/a", Value: 4}}, []string{"k/"}, sums)
	if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "kvstore exchange") {
		t.Errorf("exchange not failed at its injection point: %v", err)
	}
	if inj.Injected() != 1 {
		t.Errorf("one failed exchange injected %d failures, want 1", inj.Injected())
	}
}

// echoBackend serves the wire protocol, echoing the payload.
func echoBackend(t *testing.T) *wire.Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServerPayload(l, func(_ trace.Context, method string, p wire.Payload) (interface{}, error) {
		var s string
		if !p.Empty() {
			if err := p.Decode(&s); err != nil {
				return nil, err
			}
		}
		return s, nil
	}, wire.ServerOptions{})
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestProxyPassAndBlackhole(t *testing.T) {
	srv := echoBackend(t)
	p, err := NewProxy(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := wire.DialOpts(p.Addr(), wire.ClientOptions{
		CallTimeout: 200 * time.Millisecond,
		MinBackoff:  time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var s string
	if err := c.Call("echo", "hi", &s); err != nil || s != "hi" {
		t.Fatalf("through proxy: %q %v", s, err)
	}

	// Black-hole new connections and cut the live one: the next call must
	// fail within its deadline, not hang.
	p.SetMode(Blackhole)
	p.CutConnections()
	start := time.Now()
	deadlineErr := error(nil)
	for i := 0; i < 20; i++ {
		if err := c.Call("echo", "void", &s); err != nil {
			deadlineErr = err
			if !wire.IsTransient(err) {
				t.Fatalf("blackhole error not transient: %v", err)
			}
		}
		if time.Since(start) > 2*time.Second {
			break
		}
	}
	if deadlineErr == nil {
		t.Fatal("calls into blackhole succeeded")
	}

	// Heal: calls succeed again once the client re-dials.
	p.SetMode(Pass)
	p.CutConnections()
	healed := false
	for i := 0; i < 50 && !healed; i++ {
		if err := c.Call("echo", "back", &s); err == nil && s == "back" {
			healed = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !healed {
		t.Fatal("client never recovered through healed proxy")
	}
}

func TestProxyReset(t *testing.T) {
	srv := echoBackend(t)
	p, err := NewProxy(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetMode(Reset)
	c := wire.Connect(p.Addr(), wire.ClientOptions{
		CallTimeout: 200 * time.Millisecond,
		MinBackoff:  time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	})
	defer c.Close()
	var s string
	failed := false
	for i := 0; i < 20 && !failed; i++ {
		if err := c.Call("echo", "x", &s); err != nil {
			failed = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !failed {
		t.Fatal("reset-mode proxy served a call")
	}
}

func TestProxyDelay(t *testing.T) {
	srv := echoBackend(t)
	p, err := NewProxy(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetDelay(50 * time.Millisecond)
	c, err := wire.DialOpts(p.Addr(), wire.ClientOptions{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var s string
	start := time.Now()
	if err := c.Call("echo", "slow", &s); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Errorf("delayed call took %v, want ≥ ~100ms (50ms each way)", d)
	}
}
