package kvstore

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
)

func startKVServer(t *testing.T, opts ServerOptions) *Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(l, New(), opts)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// Every kvstore verb behaves identically through both codecs.
func TestClientCodecMatrix(t *testing.T) {
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			srv := startKVServer(t, ServerOptions{CompactEvery: -1})
			c, err := DialOpts(srv.Addr(), wire.ClientOptions{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Put(RateKey("Ads", "c2_low", "A", "h1"), 10, time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := c.Put(RateKey("Ads", "c2_low", "A", "h2"), 20, time.Minute); err != nil {
				t.Fatal(err)
			}
			v, ok, err := c.Get(RateKey("Ads", "c2_low", "A", "h1"))
			if err != nil || !ok || v != 10 {
				t.Errorf("Get = %v %v %v", v, ok, err)
			}
			sum, err := c.SumPrefix(RatePrefix("Ads", "c2_low", "A"))
			if err != nil || sum != 30 {
				t.Errorf("SumPrefix = %v, %v", sum, err)
			}
			if err := c.Delete(RateKey("Ads", "c2_low", "A", "h1")); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := c.Get(RateKey("Ads", "c2_low", "A", "h1")); ok {
				t.Error("deleted key still present")
			}
			sums := make([]float64, 3)
			err = c.Exchange([]Publish{
				{Key: RateKey("Ads", "c2_low", "A", "h3"), Value: 5, TTL: time.Minute},
				{Key: "conform/Ads/c2_low/A/h3", Value: 4, TTL: time.Minute},
			}, []string{RatePrefix("Ads", "c2_low", "A"), "conform/Ads/c2_low/A/", "absent/"}, sums)
			if err != nil || sums[0] != 25 || sums[1] != 4 || sums[2] != 0 {
				t.Errorf("Exchange = %v, %v, want [25 4 0]", sums, err)
			}
			if err := c.Exchange(nil, nil, nil); err != nil {
				t.Errorf("empty Exchange: %v", err)
			}
		})
	}
}

// oldServer serves store the way a kvstore server from before "exchange"
// did: every other method as today, "exchange" refused as unknown. calls
// counts the requests it saw by method.
func oldServer(t *testing.T, store *Store) (addr string, calls func() map[string]int) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]int{}
	s := &Server{store: store}
	srv := wire.NewServerPayload(l, func(tc trace.Context, method string, p wire.Payload) (interface{}, error) {
		mu.Lock()
		seen[method]++
		mu.Unlock()
		if method == "exchange" {
			return nil, fmt.Errorf("kvstore: unknown method %q", method)
		}
		return s.handle(tc, method, p)
	}, wire.ServerOptions{})
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String(), func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(seen)
	}
}

// TestExchangeFallsBackOnOldServer: against a server that refuses
// "exchange", Client.Exchange answers with the same sums through separate
// puts and sums, under both codecs; it remembers the refusal, and offers
// "exchange" again once the recheck window has passed.
func TestExchangeFallsBackOnOldServer(t *testing.T) {
	puts := []Publish{
		{Key: RateKey("Ads", "c2_low", "A", "h1"), Value: 1.25, TTL: time.Minute},
		{Key: "conform/Ads/c2_low/A/h1", Value: 0.5, TTL: time.Minute},
	}
	prefixes := []string{RatePrefix("Ads", "c2_low", "A"), "conform/Ads/c2_low/A/"}
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			want, remote := New(), New()
			for _, s := range []*Store{want, remote} {
				s.Put(RateKey("Ads", "c2_low", "A", "h2"), 3, 0)
				s.Put("conform/Ads/c2_low/A/h2", 2, 0)
			}
			wantSums := make([]float64, 2)
			if err := want.Exchange(puts, prefixes, wantSums); err != nil {
				t.Fatal(err)
			}
			addr, calls := oldServer(t, remote)
			c, err := DialOpts(addr, wire.ClientOptions{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			exchange := func(wantCalls map[string]int) {
				t.Helper()
				before := calls()
				sums := make([]float64, 2)
				if err := c.Exchange(puts, prefixes, sums); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(sums, wantSums) {
					t.Errorf("sums through the fallback = %v, in process = %v", sums, wantSums)
				}
				after := calls()
				for _, m := range []string{"exchange", "put", "sum"} {
					if got := after[m] - before[m]; got != wantCalls[m] {
						t.Errorf("%s requests = %d, want %d", m, got, wantCalls[m])
					}
				}
			}
			exchange(map[string]int{"exchange": 1, "put": 2, "sum": 2}) // refused, then separate calls
			exchange(map[string]int{"put": 2, "sum": 2})                // refusal remembered
			c.oldServerUntil.Store(time.Now().Add(-time.Second).UnixNano())
			exchange(map[string]int{"exchange": 1, "put": 2, "sum": 2}) // recheck window over
		})
	}
}

// One binary exchange — two puts and two prefix sums, an agent's cycle —
// allocates no more end to end than the four separate calls it replaces,
// which measured 4 (the two sums' replies, one on each side). What remains
// is the server's reply and its sums slice.
func TestClientExchangeBinaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	srv := startKVServer(t, ServerOptions{CompactEvery: -1})
	c, err := DialOpts(srv.Addr(), wire.ClientOptions{Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	puts, prefixes := agentExchange("host-017")
	sums := make([]float64, len(prefixes))
	exchange := func() {
		if err := c.Exchange(puts, prefixes, sums); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		exchange()
	}
	const want = 2
	if allocs := testing.AllocsPerRun(200, exchange); allocs > want {
		t.Errorf("binary Exchange allocates %.1f/op end to end, want at most %d", allocs, want)
	}
	if sums[0] != 42.5 || sums[1] != 40 {
		t.Errorf("sums = %v, want [42.5 40]", sums)
	}
}

// Hosts exchanging at once — half on one shared client, half on clients of
// their own, all in the process that serves them, so pooled exchange
// buffers pass between client and server goroutines — each see their own
// publish in their sums, and the final aggregate counts every host once.
// Meant for -race.
func TestExchangeConcurrentClients(t *testing.T) {
	srv := startKVServer(t, ServerOptions{CompactEvery: -1})
	shared, err := DialOpts(srv.Addr(), wire.ClientOptions{Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	const hosts = 8
	var wg sync.WaitGroup
	for i := 0; i < hosts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := shared
			if i%2 == 1 {
				own, err := DialOpts(srv.Addr(), wire.ClientOptions{Codec: wire.CodecBinary})
				if err != nil {
					t.Error(err)
					return
				}
				defer own.Close()
				c = own
			}
			puts, prefixes := agentExchange(fmt.Sprint("host-", i))
			sums := make([]float64, len(prefixes))
			for n := 0; n < 50; n++ {
				if err := c.Exchange(puts, prefixes, sums); err != nil {
					t.Error(err)
					return
				}
				if sums[0] < puts[0].Value || sums[1] < puts[1].Value {
					t.Errorf("host %d: sums %v miss its own publish", i, sums)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	puts, prefixes := agentExchange("host-0")
	sums := make([]float64, len(prefixes))
	if err := shared.Exchange(puts, prefixes, sums); err != nil {
		t.Fatal(err)
	}
	if sums[0] != hosts*puts[0].Value || sums[1] != hosts*puts[1].Value {
		t.Errorf("aggregate %v, want %v each of %d hosts", sums, puts, hosts)
	}
}

// agentExchange is one agent cycle's exchange for host: its total and
// conforming rates, and the two prefixes that aggregate them.
func agentExchange(host string) ([]Publish, []string) {
	return []Publish{
			{Key: RateKey("Ads", "c2_low", "A", host), Value: 42.5, TTL: time.Minute},
			{Key: "conform/Ads/c2_low/A/" + host, Value: 40, TTL: time.Minute},
		},
		[]string{RatePrefix("Ads", "c2_low", "A"), "conform/Ads/c2_low/A/"}
}

// Binary-decoded keys alias the connection's frame buffer; Store.Put must
// intern them before retaining, or later frames would rewrite stored keys
// in place. Publishing many distinct keys through one connection and then
// reading the store back catches any aliasing.
func TestBinaryPutKeysDoNotAliasFrameBuffer(t *testing.T) {
	srv := startKVServer(t, ServerOptions{CompactEvery: -1})
	c, err := DialOpts(srv.Addr(), wire.ClientOptions{Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := []string{}
	for _, host := range []string{"host-a", "host-bb", "host-ccc", "host-dddd"} {
		k := RateKey("svc", "c2_low", "A", host)
		keys = append(keys, k)
		if err := c.Put(k, float64(len(host)), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	stored := srv.store.Keys("rates/")
	if len(stored) != len(keys) {
		t.Fatalf("store has %d keys, want %d: %v", len(stored), len(keys), stored)
	}
	for i, k := range keys {
		if stored[i] != k {
			t.Errorf("stored[%d] = %q, want %q (frame-buffer aliasing?)", i, stored[i], k)
		}
		if v, ok, _ := srv.store.Get(k); !ok || v != float64(len(strings.TrimPrefix(k, RatePrefix("svc", "c2_low", "A")))) {
			t.Errorf("Get(%q) = %v %v", k, v, ok)
		}
	}
}

// The publish hot path — Client.Put on a binary-negotiated connection into
// a real server — performs zero heap allocations per call across all
// goroutines (testing.AllocsPerRun counts the server's side too). This is
// the end-to-end half of the ISSUE's bench bar; the 5x throughput half is
// pinned at the codec layer in internal/wire.
func TestClientPutBinaryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	srv := startKVServer(t, ServerOptions{CompactEvery: -1})
	c, err := DialOpts(srv.Addr(), wire.ClientOptions{Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := RateKey("Ads", "c2_low", "A", "host-017")
	// Warm up: scratch buffers, arg pools, the server's method-intern table,
	// and the store's interned key.
	for i := 0; i < 100; i++ {
		if err := c.Put(key, float64(i), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Put(key, 42.5, time.Minute); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("binary Put allocates %.1f/op end to end, want 0", allocs)
	}
	if v, ok, _ := srv.store.Get(key); !ok || v != 42.5 {
		t.Errorf("store state after alloc run: %v %v", v, ok)
	}
}

func benchClientPut(b *testing.B, codec wire.Codec) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServerOpts(l, New(), ServerOptions{CompactEvery: -1})
	defer srv.Close()
	c, err := DialOpts(srv.Addr(), wire.ClientOptions{Codec: codec})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	key := RateKey("Ads", "c2_low", "A", "host-017")
	if err := c.Put(key, 1, time.Minute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(key, float64(i), time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// Socket-level publish benchmarks through the full kvstore client/server
// stack; their numbers are committed in BENCH.txt.
func BenchmarkClientPutBinary(b *testing.B) { benchClientPut(b, wire.CodecBinary) }
func BenchmarkClientPutJSON(b *testing.B)   { benchClientPut(b, wire.CodecJSON) }

// BenchmarkClientExchangeBinary is an agent cycle's rate-store traffic —
// two puts and two prefix sums in one round trip — through the full binary
// client/server stack; its number is committed in BENCH.txt.
func BenchmarkClientExchangeBinary(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServerOpts(l, New(), ServerOptions{CompactEvery: -1})
	defer srv.Close()
	c, err := DialOpts(srv.Addr(), wire.ClientOptions{Codec: wire.CodecBinary})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	puts, prefixes := agentExchange("host-017")
	sums := make([]float64, len(prefixes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		puts[0].Value = float64(i)
		if err := c.Exchange(puts, prefixes, sums); err != nil {
			b.Fatal(err)
		}
	}
}
