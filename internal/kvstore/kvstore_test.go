package kvstore

import (
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStorePutGet(t *testing.T) {
	s := New()
	if err := s.Put("a", 1.5, 0); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("a")
	if err != nil || !ok || v != 1.5 {
		t.Errorf("Get = %v %v %v", v, ok, err)
	}
	if _, ok, _ := s.Get("missing"); ok {
		t.Error("missing key found")
	}
	if err := s.Put("", 1, 0); err == nil {
		t.Error("empty key accepted")
	}
}

func TestStoreTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewWithClock(func() time.Time { return now })
	s.Put("x", 5, 10*time.Second)
	if _, ok, _ := s.Get("x"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(11 * time.Second)
	if _, ok, _ := s.Get("x"); ok {
		t.Error("expired entry still visible")
	}
	// SumPrefix also skips expired entries.
	if sum, _ := s.SumPrefix(""); sum != 0 {
		t.Errorf("expired sum = %v", sum)
	}
}

func TestStoreSumPrefix(t *testing.T) {
	s := New()
	s.Put(RateKey("Ads", "c2_low", "A", "h1"), 10, 0)
	s.Put(RateKey("Ads", "c2_low", "A", "h2"), 20, 0)
	s.Put(RateKey("Ads", "c2_low", "B", "h3"), 40, 0)
	s.Put(RateKey("Logging", "c3_low", "A", "h1"), 80, 0)
	sum, err := s.SumPrefix(RatePrefix("Ads", "c2_low", "A"))
	if err != nil || sum != 30 {
		t.Errorf("sum = %v, %v, want 30", sum, err)
	}
	all, _ := s.SumPrefix("rates/")
	if all != 150 {
		t.Errorf("all = %v, want 150", all)
	}
}

func TestStoreDeleteAndKeys(t *testing.T) {
	s := New()
	s.Put("p/a", 1, 0)
	s.Put("p/b", 2, 0)
	s.Put("q/c", 3, 0)
	keys := s.Keys("p/")
	if len(keys) != 2 || keys[0] != "p/a" || keys[1] != "p/b" {
		t.Errorf("Keys = %v", keys)
	}
	s.Delete("p/a")
	if _, ok, _ := s.Get("p/a"); ok {
		t.Error("deleted key found")
	}
}

func TestStoreCompact(t *testing.T) {
	now := time.Unix(0, 0)
	s := NewWithClock(func() time.Time { return now })
	s.Put("a", 1, time.Second)
	s.Put("b", 2, 0)
	now = now.Add(2 * time.Second)
	if removed := s.Compact(); removed != 1 {
		t.Errorf("Compact removed %d, want 1", removed)
	}
	if _, ok, _ := s.Get("b"); !ok {
		t.Error("persistent entry compacted")
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := RateKey("svc", "c2_low", "A", string(rune('a'+i)))
			for j := 0; j < 100; j++ {
				s.Put(key, float64(j), 0)
				s.Get(key)
				s.SumPrefix("rates/")
			}
		}(i)
	}
	wg.Wait()
	sum, _ := s.SumPrefix(RatePrefix("svc", "c2_low", "A"))
	if sum != 8*99 {
		t.Errorf("final sum = %v, want %v", sum, 8*99)
	}
}

func TestRateKeyFormat(t *testing.T) {
	k := RateKey("Ads", "c2_low", "A", "host-1")
	if k != "rates/Ads/c2_low/A/host-1" {
		t.Errorf("RateKey = %q", k)
	}
	p := RatePrefix("Ads", "c2_low", "A")
	if p != "rates/Ads/c2_low/A/" {
		t.Errorf("RatePrefix = %q", p)
	}
	if len(k) <= len(p) || k[:len(p)] != p {
		t.Error("RateKey not under RatePrefix")
	}
}

func startServer(t *testing.T) (*Server, *Store) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := New()
	srv := NewServer(l, store)
	t.Cleanup(func() { srv.Close() })
	return srv, store
}

func TestClientServerRoundTrip(t *testing.T) {
	srv, _ := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("rates/S/c2_low/A/h1", 100, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("rates/S/c2_low/A/h2", 50, time.Minute); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("rates/S/c2_low/A/h1")
	if err != nil || !ok || v != 100 {
		t.Errorf("Get = %v %v %v", v, ok, err)
	}
	sum, err := c.SumPrefix("rates/S/c2_low/A/")
	if err != nil || sum != 150 {
		t.Errorf("SumPrefix = %v, %v", sum, err)
	}
	if err := c.Delete("rates/S/c2_low/A/h1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("rates/S/c2_low/A/h1"); ok {
		t.Error("deleted key visible")
	}
}

func TestClientServerErrors(t *testing.T) {
	srv, _ := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("", 1, 0); err == nil {
		t.Error("remote empty-key put accepted")
	}
}

func TestMultipleAgentsPublishing(t *testing.T) {
	// Emulates the §5.1 pattern: many hosts publish, each reads the
	// aggregate service rate.
	srv, _ := startServer(t)
	const hosts = 10
	var wg sync.WaitGroup
	for i := 0; i < hosts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			key := RateKey("Cold", "c4_low", "A", string(rune('a'+i)))
			if err := c.Put(key, 10, time.Minute); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sum, err := c.SumPrefix(RatePrefix("Cold", "c4_low", "A"))
	if err != nil || sum != 100 {
		t.Errorf("aggregate = %v, %v, want 100", sum, err)
	}
}

func TestServerPeriodicCompaction(t *testing.T) {
	// The TCP server sweeps expired entries itself, so rates from dead
	// hosts cannot accumulate forever.
	var mu sync.Mutex
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	store := NewWithClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(l, store, ServerOptions{CompactEvery: 10 * time.Millisecond})
	defer srv.Close()

	for i := 0; i < 5; i++ {
		store.Put(RateKey("Cold", "c4_low", "A", string(rune('a'+i))), 1, time.Second)
	}
	if store.Len() != 5 {
		t.Fatalf("Len = %d, want 5", store.Len())
	}
	mu.Lock()
	now = now.Add(2 * time.Second) // everything expires
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for store.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server never compacted: %d entries remain", store.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerCloseStopsCompactionIdempotently(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(l, New(), ServerOptions{CompactEvery: time.Millisecond})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestTTLParityStoreVsClient: a Put or an Exchange through the client must
// expire when the same call made directly on a Store does, at the wire's
// millisecond granularity — on one injected clock, so nothing depends on
// real time. A positive TTL below a millisecond used to truncate to 0 on
// the wire, which the server stores as "no expiry".
func TestTTLParityStoreVsClient(t *testing.T) {
	var offset atomic.Int64 // nanoseconds past the base; read by server goroutines
	base := time.Unix(1000, 0)
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }

	direct := NewWithClock(clock)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote := NewWithClock(clock)
	srv := NewServer(l, remote)
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ttls := map[string]time.Duration{
		"forever":  0,
		"negative": -time.Second,
		"sub-ms":   300 * time.Microsecond,
		"one-ns":   1,
		"ms":       time.Millisecond,
		"long":     10 * time.Second,
		"max":      math.MaxInt64,
	}
	// Each TTL is stored twice on each side: under its name by Put, and
	// under "ex/" + its name by Exchange.
	for key, ttl := range ttls {
		if err := direct.Put(key, 1, ttl); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(key, 1, ttl); err != nil {
			t.Fatal(err)
		}
		ex := []Publish{{Key: "ex/" + key, Value: 1, TTL: ttl}}
		if err := direct.Exchange(ex, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.Exchange(ex, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Checked only at instants a whole millisecond past an expiry either
	// side could have computed, so rounding on the wire cannot show.
	for _, at := range []time.Duration{0, 2 * time.Millisecond, 11 * time.Second, 200 * 365 * 24 * time.Hour} {
		offset.Store(int64(at))
		for name := range ttls {
			for _, key := range []string{name, "ex/" + name} {
				_, want, _ := direct.Get(key)
				_, got, err := c.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("at +%v key %q (ttl %v): present over the wire = %v, in process = %v", at, key, ttls[name], got, want)
				}
			}
		}
	}
	offset.Store(int64(2 * time.Millisecond))
	for _, key := range []string{"sub-ms", "ex/sub-ms"} {
		if _, ok, _ := c.Get(key); ok {
			t.Errorf("%s: a 300µs TTL stored through the client never expires", key)
		}
	}
}

// TestServerClampsWireTTL: TTLMs is an int64 of milliseconds chosen by the
// peer; converting it to a Duration must not wrap.
func TestServerClampsWireTTL(t *testing.T) {
	const maxMs = math.MaxInt64 / 1_000_000 // the most milliseconds a Duration holds
	for ms, want := range map[int64]time.Duration{
		0:             0,
		-1:            0,
		math.MinInt64: 0,
		-maxMs - 7:    0, // ×1e6 wraps to a positive duration
		1:             time.Millisecond,
		30000:         30 * time.Second,
		maxMs:         maxMs * time.Millisecond,
		maxMs + 1:     math.MaxInt64, // ×1e6 wraps negative: "no expiry"
		math.MaxInt64: math.MaxInt64,
	} {
		if got := ttlFromMillis(ms); got != want {
			t.Errorf("ttlFromMillis(%d) = %v, want %v", ms, got, want)
		}
	}
}

// Keys returns the live keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.now()
	var out []string
	for path, d := range s.dirs {
		for i := range d.ents {
			if k := path + d.ents[i].leaf; strings.HasPrefix(k, prefix) && d.ents[i].live(now) {
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}
