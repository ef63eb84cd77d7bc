// Package kvstore is the reproduction of the distributed key-value store
// the enforcement agents publish their flow rates through: "each agent
// publishes flow rate information (bits/sec) periodically using Meta's
// internal distributed key-value store. These rates are aggregated remotely
// across the entire service and read by the agent periodically" (§5.1).
//
// The store keeps TTL'd float64 entries and supports prefix aggregation
// (summing every host's published rate for one service). It can be used
// in-process (Store) or over TCP (Server/Client via the wire protocol); both
// satisfy RateStore, so agents are oblivious to the deployment shape.
package kvstore

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
	schemav1 "entitlement/schema/v1"

	"net"
)

// RateStore is the interface enforcement agents depend on: one cycle's
// publish and aggregate as a single exchange. Agents call it through the
// package's Exchange function.
type RateStore interface {
	// Exchange stores every put, then sets sums[i] to the sum of all live
	// values whose keys start with prefixes[i] — the remote aggregation of
	// per-host rates into a service TotalRate. The sums include the puts.
	// len(sums) must equal len(prefixes).
	Exchange(puts []Publish, prefixes []string, sums []float64) error
}

// Exchange makes one agent cycle's rate-store traffic against rs: every
// put, then every sum, as rs.Exchange does. A RateStore from outside this
// package that also has a Put and a SumPrefix gets those separate calls
// instead, in that order: a struct that embeds a *Client to intercept Put
// and SumPrefix inherits Client.Exchange by promotion, and calling the
// promoted method would go round the interception. A wrapper that means its
// own Exchange to be called holds its store in a named field and has no Put
// or SumPrefix, as faults.FlakyRates.
func Exchange(rs RateStore, puts []Publish, prefixes []string, sums []float64) error {
	switch s := rs.(type) {
	case *Store, *Client:
	case putSummer:
		return exchangeByCalls(s, puts, prefixes, sums)
	}
	return rs.Exchange(puts, prefixes, sums)
}

// putSummer is the Put and SumPrefix every kvstore server serves.
type putSummer interface {
	Put(key string, value float64, ttl time.Duration) error
	SumPrefix(prefix string) (float64, error)
}

// exchangeByCalls is an Exchange as separate calls: each put, then each
// sum. It stops at the first error.
func exchangeByCalls(s putSummer, puts []Publish, prefixes []string, sums []float64) error {
	if err := checkSums(prefixes, sums); err != nil {
		return err
	}
	for _, p := range puts {
		if err := s.Put(p.Key, p.Value, p.TTL); err != nil {
			return err
		}
	}
	for i, p := range prefixes {
		var err error
		if sums[i], err = s.SumPrefix(p); err != nil {
			return err
		}
	}
	return nil
}

// checkSums rejects an Exchange whose sums cannot hold one sum per prefix.
func checkSums(prefixes []string, sums []float64) error {
	if len(sums) != len(prefixes) {
		return fmt.Errorf("kvstore: %d sums for %d prefixes", len(sums), len(prefixes))
	}
	return nil
}

// Publish is one put of an Exchange: Put's arguments as a value. A
// non-positive TTL stores the value without expiry.
type Publish struct {
	Key   string
	Value float64
	TTL   time.Duration
}

// entry is one stored value, under its directory (see dir).
type entry struct {
	leaf    string
	value   float64
	expires time.Time // zero = never
}

// live reports whether e is unexpired at now.
func (e *entry) live(now time.Time) bool {
	return e.expires.IsZero() || !now.After(e.expires)
}

// dir holds the entries of one directory: every key whose text up to and
// including its last '/' is path. A flow set's keys share one directory
// (RatePrefix is one), so its aggregate reads one slice. ents is kept
// dense by swap-removal, and slot maps a leaf to its index in ents.
type dir struct {
	path string
	slot map[string]int
	ents []entry
}

// split cuts key after its last '/': the directory path and the leaf. A key
// without '/' lives in the "" directory; one ending in '/' has leaf "".
func split(key string) (path, leaf string) {
	i := strings.LastIndexByte(key, '/') + 1
	return key[:i], key[i:]
}

// Store is the in-memory implementation. The zero value is not usable; call
// New. Time is injectable so simulations control expiry deterministically.
//
// Entries are indexed by directory (see dir), so SumPrefix visits the
// directories related to its prefix instead of every key in the store.
// Paths and leaves are interned: a directory's path is cloned when the
// directory is created and a leaf when it is new, so a steady republish
// allocates nothing and a key aliasing a caller's buffer (a wire frame) is
// never retained.
type Store struct {
	mu   sync.RWMutex
	dirs map[string]*dir
	n    atomic.Int64 // entries across dirs; written under mu, read without
	now  func() time.Time
}

// New creates an empty store using the real clock.
func New() *Store { return NewWithClock(time.Now) }

// NewWithClock creates a store with an injected clock.
func NewWithClock(now func() time.Time) *Store {
	return &Store{dirs: make(map[string]*dir), now: now}
}

// errEmptyKey rejects a put without a key.
var errEmptyKey = errors.New("kvstore: empty key")

// Put stores value under key with the given time-to-live; a non-positive
// ttl stores the value without expiry.
func (s *Store) Put(key string, value float64, ttl time.Duration) error {
	if key == "" {
		return errEmptyKey
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(key, value, ttl)
	return nil
}

// putLocked stores one non-empty key. Caller holds the write lock.
func (s *Store) putLocked(key string, value float64, ttl time.Duration) {
	path, leaf := split(key)
	var expires time.Time
	if ttl > 0 {
		expires = s.now().Add(ttl)
	}
	d := s.dirs[path]
	if d == nil {
		d = &dir{path: strings.Clone(path), slot: make(map[string]int)}
		s.dirs[d.path] = d
	}
	if i, ok := d.slot[leaf]; ok {
		d.ents[i].value, d.ents[i].expires = value, expires
		return
	}
	leaf = strings.Clone(leaf)
	d.slot[leaf] = len(d.ents)
	d.ents = append(d.ents, entry{leaf: leaf, value: value, expires: expires})
	s.n.Add(1)
}

// Get returns the value under key and whether it is present (and
// unexpired).
func (s *Store) Get(key string) (float64, bool, error) {
	path, leaf := split(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := s.dirs[path]
	if d == nil {
		return 0, false, nil
	}
	i, ok := d.slot[leaf]
	if !ok || !d.ents[i].live(s.now()) {
		return 0, false, nil
	}
	return d.ents[i].value, true, nil
}

// SumPrefix sums all live values whose keys start with prefix. It is exact
// — the entries a scan of every key would match, with expiry decided at one
// clock reading — but visits only the directories related to prefix: one
// whose path starts with prefix is summed whole, one whose path is a proper
// prefix of prefix is filtered by leaf on the rest, and every other
// directory is skipped. Within a directory entries are added in slot order,
// so a prefix that covers one directory sums bit-identically on stores fed
// the same operations; across directories the order follows the map and is
// not fixed.
func (s *Store) SumPrefix(prefix string) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sumLocked(prefix, s.now()), nil
}

// sumLocked is SumPrefix with expiry decided at now. Caller holds a lock.
func (s *Store) sumLocked(prefix string, now time.Time) float64 {
	sum := 0.0
	for path, d := range s.dirs {
		switch {
		case strings.HasPrefix(path, prefix):
			for i := range d.ents {
				if d.ents[i].live(now) {
					sum += d.ents[i].value
				}
			}
		case strings.HasPrefix(prefix, path):
			rest := prefix[len(path):]
			for i := range d.ents {
				if strings.HasPrefix(d.ents[i].leaf, rest) && d.ents[i].live(now) {
					sum += d.ents[i].value
				}
			}
		}
	}
	return sum
}

// Exchange implements RateStore. The puts are applied under one write lock
// (none of them when a key is empty) and the sums read under one read lock,
// each exactly as Put and SumPrefix would; a put from another caller may
// land between the two, as it may between separate calls.
func (s *Store) Exchange(puts []Publish, prefixes []string, sums []float64) error {
	if err := checkSums(prefixes, sums); err != nil {
		return err
	}
	for i := range puts {
		if puts[i].Key == "" {
			return errEmptyKey
		}
	}
	if len(puts) > 0 {
		s.mu.Lock()
		for i := range puts {
			s.putLocked(puts[i].Key, puts[i].Value, puts[i].TTL)
		}
		s.mu.Unlock()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.now()
	for i, p := range prefixes {
		sums[i] = s.sumLocked(p, now)
	}
	return nil
}

// Delete removes a key.
func (s *Store) Delete(key string) error {
	path, leaf := split(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.dirs[path]; d != nil {
		if i, ok := d.slot[leaf]; ok {
			s.remove(d, i)
		}
	}
	return nil
}

// remove swap-removes d.ents[i] and drops d once it is empty. Caller holds
// the write lock.
func (s *Store) remove(d *dir, i int) {
	last := len(d.ents) - 1
	delete(d.slot, d.ents[i].leaf)
	if i != last {
		d.ents[i] = d.ents[last]
		d.slot[d.ents[i].leaf] = i
	}
	d.ents[last] = entry{}
	d.ents = d.ents[:last]
	if last == 0 {
		delete(s.dirs, d.path)
	}
	s.n.Add(-1)
}

// Len returns the number of stored entries, including expired ones not yet
// compacted — the footprint a leaky deployment would grow without bound. It
// takes no lock.
func (s *Store) Len() int { return int(s.n.Load()) }

// Compact removes expired entries; long-running deployments should call it
// periodically.
func (s *Store) Compact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	removed := 0
	for _, d := range s.dirs {
		// Backwards, so a swap-remove only moves an entry already checked.
		for i := len(d.ents) - 1; i >= 0; i-- {
			if !d.ents[i].live(now) {
				s.remove(d, i)
				removed++
			}
		}
	}
	return removed
}

// --- TCP server/client ----------------------------------------------------

// The message shapes are versioned schema contracts (schema/v1, pinned by
// `make vet-schema`): KVPut, KVKey, KVGetReply, KVSumReply, KVExchange and
// KVExchangeReply. All carry binary codecs, so on a binary-negotiated
// connection an agent's cycle runs end to end without JSON.

// Arg/reply pools keep the put path and the exchange's client side
// allocation-free: passing a pooled pointer through wire.Call's interface{}
// parameters stores the pointer without boxing, where a stack-local struct
// would escape per call.
var (
	putPool      = sync.Pool{New: func() interface{} { return new(schemav1.KVPut) }}
	keyPool      = sync.Pool{New: func() interface{} { return new(schemav1.KVKey) }}
	exchangePool = sync.Pool{New: func() interface{} { return new(exchangeBuf) }}
)

// exchangeBuf is the pooled state of one exchange: the wire message, the
// client's reply, and the server's puts converted for Store.Exchange. Its
// slices keep their capacity across uses.
type exchangeBuf struct {
	msg   schemav1.KVExchange
	reply schemav1.KVExchangeReply
	puts  []Publish
}

// release clears every string the buffer points at (caller keys, or a
// connection's frame buffer) and returns it to the pool.
func (x *exchangeBuf) release() {
	clear(x.msg.Puts)
	clear(x.msg.Prefixes)
	clear(x.puts)
	x.msg.Puts, x.msg.Prefixes = x.msg.Puts[:0], x.msg.Prefixes[:0]
	x.puts, x.reply.Sums = x.puts[:0], x.reply.Sums[:0]
	exchangePool.Put(x)
}

// ServerOptions tune the TCP server.
type ServerOptions struct {
	// CompactEvery sweeps expired entries from the backing store on this
	// period, so rates from dead hosts do not accumulate forever. Zero
	// picks the 1-minute default; negative disables compaction.
	CompactEvery time.Duration
	// Wire passes hardening options (read idle timeout) to the underlying
	// wire server.
	Wire wire.ServerOptions
}

// Server exposes a Store over the wire protocol and keeps it compacted.
type Server struct {
	store    *Store
	srv      *wire.Server
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewServer serves store on l with default options (1-minute compaction).
func NewServer(l net.Listener, store *Store) *Server {
	return NewServerOpts(l, store, ServerOptions{})
}

// NewServerOpts serves store on l with explicit options.
func NewServerOpts(l net.Listener, store *Store, opts ServerOptions) *Server {
	s := &Server{store: store, stop: make(chan struct{})}
	s.srv = wire.NewServerPayload(l, s.handle, opts.Wire)
	every := opts.CompactEvery
	if every == 0 {
		every = time.Minute
	}
	if every > 0 {
		s.wg.Add(1)
		go s.compactLoop(every)
	}
	return s
}

func (s *Server) compactLoop(every time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			removed := s.store.Compact()
			mCompactions.Inc()
			mCompacted.Add(int64(removed))
			mEntries.Set(float64(s.store.Len()))
		case <-s.stop:
			return
		}
	}
}

// Addr returns the server address.
func (s *Server) Addr() string { return s.srv.Addr().String() }

// Close shuts the server down (idempotent).
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

// ttlToMillis converts a TTL to the wire's milliseconds. The wire unit is a
// millisecond and 0 means "no expiry": a positive TTL below it must round
// up, not truncate to the opposite of what the caller asked for.
func ttlToMillis(ttl time.Duration) int64 {
	if ms := ttl.Milliseconds(); ms > 0 || ttl <= 0 {
		return ms
	}
	return 1
}

// ttlFromMillis converts a wire TTL, clamping what would overflow
// time.Duration: the product wraps to an arbitrary sign, which would turn a
// huge TTL into "no expiry" or into a short one, and a hugely negative one
// (no expiry) into an expiry.
func ttlFromMillis(ms int64) time.Duration {
	const maxMs = int64(math.MaxInt64 / time.Millisecond)
	switch {
	case ms <= 0:
		return 0
	case ms > maxMs:
		return math.MaxInt64
	}
	return time.Duration(ms) * time.Millisecond
}

func (s *Server) handle(tc trace.Context, method string, p wire.Payload) (reply interface{}, err error) {
	mRequests.With(method).Inc()
	defer func() {
		if err != nil {
			mRequestErrors.Inc()
		}
		mEntries.Set(float64(s.store.Len()))
	}()
	switch method {
	case "put":
		// The system's hot path: pooled args (a stack struct would escape
		// through Decode's interface{} parameter) and a nil reply, so a
		// binary-codec publish is handled without a single allocation after
		// warm-up. The decoded Key may alias the connection's frame buffer;
		// Store.Put interns before retaining it.
		a := putPool.Get().(*schemav1.KVPut)
		if err := p.Decode(a); err != nil {
			putPool.Put(a)
			return nil, err
		}
		err := s.store.Put(a.Key, a.Value, ttlFromMillis(a.TTLMs))
		*a = schemav1.KVPut{}
		putPool.Put(a)
		return nil, err
	case "get":
		a := keyPool.Get().(*schemav1.KVKey)
		if err := p.Decode(a); err != nil {
			keyPool.Put(a)
			return nil, err
		}
		v, ok, err := s.store.Get(a.Key)
		*a = schemav1.KVKey{}
		keyPool.Put(a)
		if err != nil {
			return nil, err
		}
		return &schemav1.KVGetReply{Value: v, Found: ok}, nil
	case "sum":
		a := keyPool.Get().(*schemav1.KVKey)
		if err := p.Decode(a); err != nil {
			keyPool.Put(a)
			return nil, err
		}
		sum, err := s.store.SumPrefix(a.Key)
		*a = schemav1.KVKey{}
		keyPool.Put(a)
		if err != nil {
			return nil, err
		}
		return &schemav1.KVSumReply{Sum: sum}, nil
	case "exchange":
		// An agent's whole cycle. The decoded keys and prefixes may alias
		// the frame buffer; Store.Exchange interns what it retains. The
		// reply and its sums are the only allocations.
		x := exchangePool.Get().(*exchangeBuf)
		defer x.release()
		if err := p.Decode(&x.msg); err != nil {
			return nil, err
		}
		for _, kp := range x.msg.Puts {
			x.puts = append(x.puts, Publish{Key: kp.Key, Value: kp.Value, TTL: ttlFromMillis(kp.TTLMs)})
		}
		r := &schemav1.KVExchangeReply{Sums: make([]float64, len(x.msg.Prefixes))}
		if err := s.store.Exchange(x.puts, x.msg.Prefixes, r.Sums); err != nil {
			return nil, err
		}
		return r, nil
	case "delete":
		a := keyPool.Get().(*schemav1.KVKey)
		if err := p.Decode(a); err != nil {
			keyPool.Put(a)
			return nil, err
		}
		err := s.store.Delete(a.Key)
		*a = schemav1.KVKey{}
		keyPool.Put(a)
		return nil, err
	default:
		return nil, fmt.Errorf("kvstore: unknown method %q", method)
	}
}

// Client is the remote RateStore. It inherits the wire client's failure
// behavior: per-call deadlines, broken-connection detection, and automatic
// re-dial with backoff, so a dead server degrades agents instead of
// wedging them.
type Client struct {
	c *wire.Client
	// oldServerUntil (unix ns) is set when the server refused "exchange"
	// as an unknown method; until then Exchange goes straight to the
	// separate calls a server that old does serve.
	oldServerUntil atomic.Int64
}

// exchangeRecheck is how long a Client remembers a server's refusal of
// "exchange": an old server costs one refused round trip a minute, and an
// agent takes up the single round trip within a minute of the server's
// upgrade, without a restart.
const exchangeRecheck = time.Minute

// Dial connects to a kvstore server with default wire.ClientOptions.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, wire.ClientOptions{})
}

// DialOpts connects to a kvstore server with explicit failure options.
func DialOpts(addr string, opts wire.ClientOptions) (*Client, error) {
	c, err := wire.DialOpts(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Connect builds a client without dialing; the connection is established
// lazily (with backoff) on first use, so agents can start before their
// servers do.
func Connect(addr string, opts wire.ClientOptions) *Client {
	return &Client{c: wire.Connect(addr, opts)}
}

// SetSpan forwards a span context to the wire client: subsequent calls
// become wire.call spans in the caller's trace, with the context carried on
// the request frame.
func (c *Client) SetSpan(ctx trace.Context) { c.c.SetSpan(ctx) }

// Put stores value under key with the given time-to-live, as Store.Put
// does (at the wire's millisecond granularity). On a binary-negotiated
// connection the pooled args, the schema-binary codec, and the wire
// client's frame-buffer reuse make the whole publish allocation-free.
func (c *Client) Put(key string, value float64, ttl time.Duration) error {
	a := putPool.Get().(*schemav1.KVPut)
	a.Key, a.Value, a.TTLMs = key, value, ttlToMillis(ttl)
	err := c.c.Call("put", a, nil)
	*a = schemav1.KVPut{}
	putPool.Put(a)
	return err
}

// Get returns the value under key and whether it is present.
func (c *Client) Get(key string) (float64, bool, error) {
	a := keyPool.Get().(*schemav1.KVKey)
	a.Key = key
	var r schemav1.KVGetReply
	err := c.c.Call("get", a, &r)
	*a = schemav1.KVKey{}
	keyPool.Put(a)
	if err != nil {
		return 0, false, err
	}
	return r.Value, r.Found, nil
}

// SumPrefix sums all live values whose keys start with prefix.
func (c *Client) SumPrefix(prefix string) (float64, error) {
	a := keyPool.Get().(*schemav1.KVKey)
	a.Key = prefix
	var r schemav1.KVSumReply
	err := c.c.Call("sum", a, &r)
	*a = schemav1.KVKey{}
	keyPool.Put(a)
	if err != nil {
		return 0, err
	}
	return r.Sum, nil
}

// Exchange implements RateStore in one round trip. A server older than the
// "exchange" method refuses it as unknown; the client then makes the same
// puts and sums as separate calls (puts first), and keeps doing so for
// exchangeRecheck before offering "exchange" again.
func (c *Client) Exchange(puts []Publish, prefixes []string, sums []float64) error {
	if err := checkSums(prefixes, sums); err != nil {
		return err
	}
	if until := c.oldServerUntil.Load(); until != 0 && time.Now().UnixNano() < until {
		return exchangeByCalls(c, puts, prefixes, sums)
	}
	x := exchangePool.Get().(*exchangeBuf)
	for _, p := range puts {
		x.msg.Puts = append(x.msg.Puts, schemav1.KVPut{Key: p.Key, Value: p.Value, TTLMs: ttlToMillis(p.TTL)})
	}
	x.msg.Prefixes = append(x.msg.Prefixes, prefixes...)
	err := c.c.Call("exchange", &x.msg, &x.reply)
	if err == nil && len(x.reply.Sums) != len(sums) {
		err = fmt.Errorf("kvstore: exchange answered %d sums for %d prefixes", len(x.reply.Sums), len(sums))
	}
	if err == nil {
		copy(sums, x.reply.Sums)
	}
	x.release()
	if refusedAsUnknown(err) {
		c.oldServerUntil.Store(time.Now().Add(exchangeRecheck).UnixNano())
		return exchangeByCalls(c, puts, prefixes, sums)
	}
	return err
}

// refusedAsUnknown reports whether a server answered err by not knowing the
// method, as a kvstore server before "exchange" answers it.
func refusedAsUnknown(err error) bool {
	if err == nil {
		return false
	}
	var re *wire.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Message, "unknown method")
}

// Delete removes a key.
func (c *Client) Delete(key string) error {
	a := keyPool.Get().(*schemav1.KVKey)
	a.Key = key
	err := c.c.Call("delete", a, nil)
	*a = schemav1.KVKey{}
	keyPool.Put(a)
	return err
}

// Close closes the client connection.
func (c *Client) Close() error { return c.c.Close() }

// RateKey builds the canonical key an agent publishes its rate under:
// rates/<npg>/<class>/<region>/<host>. SumPrefix(RatePrefix(...)) then
// aggregates the service.
func RateKey(npg, class, region, host string) string {
	return fmt.Sprintf("rates/%s/%s/%s/%s", npg, class, region, host)
}

// RatePrefix is the aggregation prefix for a (npg, class, region) flow set.
func RatePrefix(npg, class, region string) string {
	return fmt.Sprintf("rates/%s/%s/%s/", npg, class, region)
}

var (
	_ RateStore = (*Store)(nil)
	_ RateStore = (*Client)(nil)
)
