package kvstore

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entitlement/internal/obs"
)

// scanStore is the reference the directory index must agree with: one flat
// map, every query a scan of every key, expiry decided at query time.
type scanStore struct {
	data map[string]scanEntry
	now  func() time.Time
}

type scanEntry struct {
	value   float64
	expires time.Time
}

func (o *scanStore) live(e scanEntry) bool {
	return e.expires.IsZero() || !o.now().After(e.expires)
}

func (o *scanStore) put(key string, value float64, ttl time.Duration) {
	e := scanEntry{value: value}
	if ttl > 0 {
		e.expires = o.now().Add(ttl)
	}
	o.data[key] = e
}

func (o *scanStore) get(key string) (float64, bool) {
	e, ok := o.data[key]
	if !ok || !o.live(e) {
		return 0, false
	}
	return e.value, true
}

func (o *scanStore) sum(prefix string) float64 {
	sum := 0.0
	for k, e := range o.data {
		if strings.HasPrefix(k, prefix) && o.live(e) {
			sum += e.value
		}
	}
	return sum
}

func (o *scanStore) compact() int {
	removed := 0
	for k, e := range o.data {
		if !o.live(e) {
			delete(o.data, k)
			removed++
		}
	}
	return removed
}

// oracleKeys draws a key pool with every shape the index splits
// differently: nested directories sharing prefixes, keys without '/', keys
// ending in '/', "/" itself, and empty segments.
func oracleKeys(rng *rand.Rand) []string {
	keys := []string{"/", "x", "xy", "rates/", "rates//h", "/h", "rates/a/"}
	segs := []string{"rates", "conform", "a", "ab", "b", "h1", "h10", "h2"}
	for len(keys) < 40 {
		var b strings.Builder
		for d := rng.Intn(4); d >= 0; d-- {
			b.WriteString(segs[rng.Intn(len(segs))])
			if d > 0 {
				b.WriteByte('/')
			}
		}
		keys = append(keys, b.String())
	}
	return keys
}

// oraclePrefix draws a query prefix relative to a pool key: "", "/", a '/'
// boundary, a mid-segment cut, the whole key, or the key plus a suffix.
func oraclePrefix(rng *rand.Rand, key string) string {
	switch rng.Intn(6) {
	case 0:
		return ""
	case 1:
		return "/"
	case 2:
		var cuts []int
		for i := 0; i < len(key); i++ {
			if key[i] == '/' {
				cuts = append(cuts, i+1)
			}
		}
		if len(cuts) > 0 {
			return key[:cuts[rng.Intn(len(cuts))]]
		}
		return key
	case 3:
		return key[:rng.Intn(len(key)+1)]
	case 4:
		return key
	default:
		return key + []string{"x", "/", "/x", "0"}[rng.Intn(4)]
	}
}

// TestStoreMatchesScanOracle drives the store and the scan reference
// through the same random operations on one injected clock and compares
// every answer. Rates are integer-valued, so sums compare exactly whatever
// order either side adds them in.
func TestStoreMatchesScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1000, 0)
		clock := func() time.Time { return now }
		s := NewWithClock(clock)
		o := &scanStore{data: map[string]scanEntry{}, now: clock}
		keys := oracleKeys(rng)
		for op := 0; op < 500; op++ {
			key := keys[rng.Intn(len(keys))]
			switch r := rng.Intn(100); {
			case r < 35:
				v := float64(rng.Intn(2000) - 500)
				ttl := []time.Duration{0, -time.Second, time.Duration(1+rng.Intn(3000)) * time.Millisecond}[rng.Intn(3)]
				if err := s.Put(key, v, ttl); err != nil {
					t.Fatal(err)
				}
				o.put(key, v, ttl)
			case r < 45:
				s.Delete(key)
				delete(o.data, key)
			case r < 55:
				now = now.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
			case r < 60:
				if got, want := s.Compact(), o.compact(); got != want {
					t.Fatalf("seed %d op %d: Compact removed %d, scan removes %d", seed, op, got, want)
				}
			case r < 70:
				v, ok, _ := s.Get(key)
				if wv, wok := o.get(key); v != wv || ok != wok {
					t.Fatalf("seed %d op %d: Get(%q) = %v %v, scan %v %v", seed, op, key, v, ok, wv, wok)
				}
			default:
				p := oraclePrefix(rng, key)
				if got, _ := s.SumPrefix(p); got != o.sum(p) {
					t.Fatalf("seed %d op %d: SumPrefix(%q) = %v, scan %v", seed, op, p, got, o.sum(p))
				}
			}
			if s.Len() != len(o.data) {
				t.Fatalf("seed %d op %d: Len = %d, scan %d", seed, op, s.Len(), len(o.data))
			}
		}
	}
}

// TestExchangeMatchesScanOracle: Store.Exchange's sums are the scan
// oracle's sums after the same puts, and SumPrefix's answers on the same
// store, through random exchanges interleaved with deletes, clock steps and
// compactions. An exchange's puts land before its sums, so a prefix that
// covers one of them sees it.
func TestExchangeMatchesScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1000, 0)
		clock := func() time.Time { return now }
		s := NewWithClock(clock)
		o := &scanStore{data: map[string]scanEntry{}, now: clock}
		keys := oracleKeys(rng)
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(100); {
			case r < 10:
				key := keys[rng.Intn(len(keys))]
				s.Delete(key)
				delete(o.data, key)
			case r < 20:
				now = now.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
			case r < 25:
				s.Compact()
				o.compact()
			default:
				puts := make([]Publish, rng.Intn(4))
				for i := range puts {
					ttl := []time.Duration{0, -time.Second, time.Duration(1+rng.Intn(3000)) * time.Millisecond}[rng.Intn(3)]
					puts[i] = Publish{Key: keys[rng.Intn(len(keys))], Value: float64(rng.Intn(2000) - 500), TTL: ttl}
					o.put(puts[i].Key, puts[i].Value, puts[i].TTL)
				}
				prefixes := make([]string, rng.Intn(4))
				for i := range prefixes {
					// Half the prefixes are drawn from this exchange's own keys.
					key := keys[rng.Intn(len(keys))]
					if len(puts) > 0 && rng.Intn(2) == 0 {
						key = puts[rng.Intn(len(puts))].Key
					}
					prefixes[i] = oraclePrefix(rng, key)
				}
				sums := make([]float64, len(prefixes))
				if err := s.Exchange(puts, prefixes, sums); err != nil {
					t.Fatal(err)
				}
				for i, p := range prefixes {
					again, _ := s.SumPrefix(p)
					if sums[i] != o.sum(p) || sums[i] != again {
						t.Fatalf("seed %d op %d: Exchange sum of %q = %v, scan %v, SumPrefix %v", seed, op, p, sums[i], o.sum(p), again)
					}
				}
			}
			if s.Len() != len(o.data) {
				t.Fatalf("seed %d op %d: Len = %d, scan %d", seed, op, s.Len(), len(o.data))
			}
		}
	}
}

// TestExchangeRejectsBadShapes: an empty key fails the whole exchange
// before any put lands, and sums must match prefixes one to one.
func TestExchangeRejectsBadShapes(t *testing.T) {
	s := New()
	if err := s.Exchange([]Publish{{Key: "a/x", Value: 1}, {Key: "", Value: 2}}, nil, nil); err == nil {
		t.Error("empty key accepted")
	}
	if s.Len() != 0 {
		t.Errorf("a rejected exchange stored %d entries", s.Len())
	}
	if err := s.Exchange(nil, []string{"a/", "b/"}, make([]float64, 1)); err == nil {
		t.Error("one sum for two prefixes accepted")
	}
}

// interceptedRates embeds a store to intercept its Put and SumPrefix, as a
// tracing or fault-injecting wrapper does; the store's Exchange is promoted.
type interceptedRates struct {
	*Store
	calls []string
}

func (r *interceptedRates) Put(key string, value float64, ttl time.Duration) error {
	r.calls = append(r.calls, "put "+key)
	return r.Store.Put(key, value, ttl)
}

func (r *interceptedRates) SumPrefix(prefix string) (float64, error) {
	r.calls = append(r.calls, "sum "+prefix)
	return r.Store.SumPrefix(prefix)
}

// TestExchangeKeepsAWrappersCalls: Exchange gives a RateStore that embeds a
// store to intercept Put and SumPrefix each of those calls, puts first, and
// the sums the store's own Exchange gives; it rejects a bad shape before
// the first call.
func TestExchangeKeepsAWrappersCalls(t *testing.T) {
	puts, prefixes := agentExchange("h1")
	want, wrapped := New(), &interceptedRates{Store: New()}
	for _, s := range []*Store{want, wrapped.Store} {
		s.Put(RateKey("Ads", "c2_low", "A", "h2"), 3, 0)
		s.Put("conform/Ads/c2_low/A/h2", 2, 0)
	}
	wantSums, sums := make([]float64, 2), make([]float64, 2)
	if err := want.Exchange(puts, prefixes, wantSums); err != nil {
		t.Fatal(err)
	}
	if err := Exchange(wrapped, puts, prefixes, sums); err != nil {
		t.Fatal(err)
	}
	wantCalls := []string{"put " + puts[0].Key, "put " + puts[1].Key, "sum " + prefixes[0], "sum " + prefixes[1]}
	if !slices.Equal(wrapped.calls, wantCalls) {
		t.Errorf("wrapper saw %q, want %q", wrapped.calls, wantCalls)
	}
	if !slices.Equal(sums, wantSums) {
		t.Errorf("sums through the wrapper = %v, through Store.Exchange = %v", sums, wantSums)
	}
	wrapped.calls = nil
	if err := Exchange(wrapped, puts, prefixes, sums[:1]); err == nil || len(wrapped.calls) != 0 {
		t.Errorf("one sum for two prefixes: err %v after calls %q", err, wrapped.calls)
	}
}

// TestSumPrefixBitStable: a prefix that covers one directory — every query
// an agent makes — sums bit-identically on two stores fed the same puts and
// deletes of non-integer rates, and on repeated calls. Prefixes spanning
// several directories ("rates/") add directories in map order and are not
// covered.
func TestSumPrefixBitStable(t *testing.T) {
	build := func() *Store {
		rng := rand.New(rand.NewSource(7))
		s := New()
		for op := 0; op < 4000; op++ {
			key := fmt.Sprintf("%s/svc%d/c2_low/A/h%03d", []string{"rates", "conform"}[rng.Intn(2)], rng.Intn(4), rng.Intn(100))
			if rng.Intn(5) == 0 {
				s.Delete(key)
				continue
			}
			s.Put(key, rng.Float64()*1e12/3, 0)
		}
		return s
	}
	a, b := build(), build()
	for _, root := range []string{"rates", "conform"} {
		for svc := 0; svc < 4; svc++ {
			p := fmt.Sprintf("%s/svc%d/c2_low/A/", root, svc)
			first, _ := a.SumPrefix(p)
			for i := 0; i < 20; i++ {
				again, _ := a.SumPrefix(p)
				other, _ := b.SumPrefix(p)
				if math.Float64bits(again) != math.Float64bits(first) || math.Float64bits(other) != math.Float64bits(first) {
					t.Fatalf("SumPrefix(%q): %v, then %v, other store %v", p, first, again, other)
				}
			}
		}
	}
}

// TestStoreConcurrentIndexOps runs puts, deletes, compactions and sums from
// several goroutines at once (meant for -race), each on its own directory,
// then checks the index agrees with what every goroutine left behind.
func TestStoreConcurrentIndexOps(t *testing.T) {
	var offset atomic.Int64
	s := NewWithClock(func() time.Time { return time.Unix(0, offset.Load()) })
	const workers, hosts = 4, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := RatePrefix(fmt.Sprint("svc", w), "c2_low", "A")
			for i := 0; i < 500; i++ {
				key := prefix + fmt.Sprint("h", i%hosts)
				switch i % 5 {
				case 0:
					s.Delete(key)
				case 1:
					s.Compact()
				case 2:
					s.SumPrefix(prefix)
					s.SumPrefix("rates/")
				default:
					s.Put(key, 1, time.Millisecond)
				}
				offset.Add(int64(100 * time.Microsecond))
			}
			for h := 0; h < hosts; h++ {
				s.Put(prefix+fmt.Sprint("h", h), float64(w), 0)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != workers*hosts {
		t.Errorf("Len = %d, want %d", s.Len(), workers*hosts)
	}
	for w := 0; w < workers; w++ {
		prefix := RatePrefix(fmt.Sprint("svc", w), "c2_low", "A")
		if sum, _ := s.SumPrefix(prefix); sum != float64(w*hosts) {
			t.Errorf("SumPrefix(%q) = %v, want %v", prefix, sum, w*hosts)
		}
	}
}

// TestServerEntriesGaugeExact: the scraped entitlement_kvstore_entries is
// exactly the store's Len after a put, a same-key put, a delete, and a
// compaction sweep.
func TestServerEntriesGaugeExact(t *testing.T) {
	gauge := func() float64 {
		var b strings.Builder
		obs.Default().WritePrometheus(&b)
		sc, err := obs.ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		return sc.Value("entitlement_kvstore_entries")
	}
	var offset atomic.Int64
	store := NewWithClock(func() time.Time { return time.Unix(0, offset.Load()) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(l, store, ServerOptions{CompactEvery: -1})
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	steps := []struct {
		name string
		do   func() error
		want int
	}{
		{"put", func() error { return c.Put("rates/a/h1", 1, time.Second) }, 1},
		{"same-key put", func() error { return c.Put("rates/a/h1", 2, time.Second) }, 1},
		{"second put", func() error { return c.Put("rates/b/h2", 3, 0) }, 2},
		{"delete", func() error { return c.Delete("rates/b/h2") }, 1},
		{"persistent put", func() error { return c.Put("rates/b/h3", 4, 0) }, 2},
	}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if store.Len() != st.want || gauge() != float64(st.want) {
			t.Fatalf("after %s: Len %d, gauge %v, want %d", st.name, store.Len(), gauge(), st.want)
		}
	}
	// The sweep is the server's own: a second server on the same store with
	// a fast compaction loop, and no requests, so only the sweep sets the
	// gauge.
	offset.Store(int64(2 * time.Second)) // rates/a/h1 expires
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sweeper := NewServerOpts(l2, store, ServerOptions{CompactEvery: time.Millisecond})
	defer sweeper.Close()
	deadline := time.Now().Add(2 * time.Second)
	for store.Len() != 1 || gauge() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("after compaction: Len %d, gauge %v, want 1", store.Len(), gauge())
		}
		time.Sleep(time.Millisecond)
	}
}
