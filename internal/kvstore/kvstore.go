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

// RateStore is the interface enforcement agents depend on.
type RateStore interface {
	// Put stores value under key with the given time-to-live.
	Put(key string, value float64, ttl time.Duration) error
	// Get returns the value and whether it is present (and unexpired).
	Get(key string) (float64, bool, error)
	// SumPrefix sums all live values whose keys start with prefix — the
	// remote aggregation of per-host rates into a service TotalRate.
	SumPrefix(prefix string) (float64, error)
	// Delete removes a key.
	Delete(key string) error
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

// Put implements RateStore. A non-positive ttl stores the value without
// expiry.
func (s *Store) Put(key string, value float64, ttl time.Duration) error {
	if key == "" {
		return fmt.Errorf("kvstore: empty key")
	}
	path, leaf := split(key)
	s.mu.Lock()
	defer s.mu.Unlock()
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
		return nil
	}
	leaf = strings.Clone(leaf)
	d.slot[leaf] = len(d.ents)
	d.ents = append(d.ents, entry{leaf: leaf, value: value, expires: expires})
	s.n.Add(1)
	return nil
}

// Get implements RateStore.
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

// SumPrefix implements RateStore. It is exact — the entries a scan of every
// key would match, with expiry decided at one clock reading — but visits
// only the directories related to prefix: one whose path starts with prefix
// is summed whole, one whose path is a proper prefix of prefix is filtered
// by leaf on the rest, and every other directory is skipped. Within a
// directory entries are added in slot order, so a prefix that covers one
// directory sums bit-identically on stores fed the same operations; across
// directories the order follows the map and is not fixed.
func (s *Store) SumPrefix(prefix string) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.now()
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
	return sum, nil
}

// Delete implements RateStore.
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
// `make vet-schema`): KVPut, KVKey, KVGetReply, KVSumReply. All four carry
// binary codecs, so on a binary-negotiated connection the publish path
// runs end to end without JSON.

// Arg/reply pools keep the put and aggregate paths allocation-free: passing
// a pooled pointer through wire.Call's interface{} parameters stores the
// pointer without boxing, where a stack-local struct would escape per call.
var (
	putPool = sync.Pool{New: func() interface{} { return new(schemav1.KVPut) }}
	keyPool = sync.Pool{New: func() interface{} { return new(schemav1.KVKey) }}
)

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
}

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

// Put implements RateStore. On a binary-negotiated connection the pooled
// args, the schema-binary codec, and the wire client's frame-buffer reuse
// make the whole publish allocation-free.
func (c *Client) Put(key string, value float64, ttl time.Duration) error {
	a := putPool.Get().(*schemav1.KVPut)
	a.Key, a.Value, a.TTLMs = key, value, ttl.Milliseconds()
	if ttl > 0 && a.TTLMs == 0 {
		// The wire unit is a millisecond and 0 means "no expiry": a TTL
		// below it must round up, not truncate to the opposite of what the
		// caller asked for.
		a.TTLMs = 1
	}
	err := c.c.Call("put", a, nil)
	*a = schemav1.KVPut{}
	putPool.Put(a)
	return err
}

// Get implements RateStore.
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

// SumPrefix implements RateStore.
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

// Delete implements RateStore.
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
