// The admission cache: everything the service reuses across decisions, all of
// it valid for the topology epoch it was computed at.
//
// Two levels:
//
//   - Assessment level: a risk.ResultCache (scenario sets plus assessment
//     results) wired into risk.Options.Cache, plus a flow.RunnerPool recycling
//     allocator scratch. Neither is ever flushed here — a result-cache entry
//     filled at another epoch is a miss, and a pooled Runner is fully reset
//     per allocation.
//   - Decision level: an LRU memo of whole-batch outcomes keyed by the
//     canonical batch signature. A re-submitted request set (idempotent
//     retries, replayed grants) skips the risk pass entirely. Any epoch change
//     drops the memo — max-min routing is global, so a remote capacity or
//     probability change can shift every hose's admittable rate; per-request
//     "does my segment touch the mutated link" filtering would be unsound
//     (DESIGN.md §10).
//
// The decision memo keys on the WHOLE batch, never per request: co-batched
// hoses compete for the same capacity, so a request's outcome is only
// reusable when the entire batch composition matches.

package granting

import (
	"container/list"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"entitlement/internal/contract"
	"entitlement/internal/flow"
	"entitlement/internal/forecast"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
)

// memoEntry is one memoized batch decision. The full canonical signature is
// kept (not just its hash) so a 64-bit collision can never serve another
// batch's outcomes, and decisions are indexed by request signature so a
// reordered resubmission maps each request back to its own decision.
type memoEntry struct {
	key   uint64
	sig   string
	bySig map[string]Decision
}

type cache struct {
	topo *topology.Topology

	mu      sync.Mutex
	epoch   uint64
	results *risk.ResultCache
	pool    *flow.RunnerPool
	memo    map[uint64]*list.Element // batchKey → element in lru
	lru     *list.List               // front = most recently used; *memoEntry
	maxMemo int
}

func newCache(topo *topology.Topology, maxMemo int) *cache {
	if maxMemo <= 0 {
		maxMemo = 1024
	}
	return &cache{
		topo:    topo,
		epoch:   topo.Epoch(),
		results: risk.NewResultCache(0),
		pool:    flow.NewRunnerPool(topo, 0),
		memo:    make(map[uint64]*list.Element),
		lru:     list.New(),
		maxMemo: maxMemo,
	}
}

// ensureEpochLocked drops the memo when the topology has mutated since the
// last decision.
func (c *cache) ensureEpochLocked() {
	ep := c.topo.Epoch()
	if ep == c.epoch {
		return
	}
	c.epoch = ep
	c.memo = make(map[uint64]*list.Element)
	c.lru.Init()
	mCacheFlushes.Inc()
}

// resultCache returns the shared risk result cache (risk.Options.Cache).
func (c *cache) resultCache() *risk.ResultCache { return c.results }

// runnerPool returns the shared allocator-scratch pool.
func (c *cache) runnerPool() *flow.RunnerPool { return c.pool }

// batchSig renders the canonical identity of a batch decision: the sorted
// request signatures plus every option that changes outcomes. Risk.Workers
// is deliberately excluded (parallelism never changes results). The order-
// insensitive sort is what makes a reordered resubmission hit; the memo
// entry remaps decisions back to the submission order by request signature.
func batchSig(reqSigs []string, o *Options) string {
	sorted := append([]string(nil), reqSigs...)
	sort.Strings(sorted)
	var b strings.Builder
	for _, s := range sorted {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	b.WriteString("opts|")
	b.WriteString(strconv.Itoa(o.Approval.RepresentativeTMs))
	b.WriteByte('|')
	b.WriteString(fhex(float64(o.Approval.DefaultSLO)))
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(o.Approval.JointRealizations))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(o.Approval.Seed, 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(o.Approval.Risk.Seed, 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(o.Approval.Risk.Scenarios))
	b.WriteByte('|')
	b.WriteString("false") // a risk option deleted in ISSUE 22; journals written before it carry this signature
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(forecast.QuarterDays)) // the contract period in days, as journals always carried it
	b.WriteString("|neg:")
	b.WriteString(strconv.FormatBool(o.Approval.Negotiation.Enabled))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(o.Approval.Negotiation.MaxEvals))
	b.WriteString("|0|0") // two search options, now constants; journals written before carry their zero values
	keys := make([]string, 0, len(o.Approval.SLOs))
	for npg := range o.Approval.SLOs {
		keys = append(keys, string(npg))
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(fhex(float64(o.Approval.SLOs[contract.NPG(k)])))
	}
	return b.String()
}

// batchKey is the memo's map key; the full sig is re-verified on lookup.
func batchKey(sig string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sig))
	return h.Sum64()
}

// lookup returns the memoized decisions for this exact batch, remapped to
// the caller's request order (reqSigs[i] is reqs[i].Signature()). The stored
// canonical signature must match byte-for-byte — a hash collision is a miss,
// never a wrong answer. The returned slice is fresh; callers may stamp ids.
func (c *cache) lookup(key uint64, sig string, reqSigs []string) ([]Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureEpochLocked()
	el, ok := c.memo[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*memoEntry)
	if e.sig != sig {
		return nil, false
	}
	decs := make([]Decision, len(reqSigs))
	for i, s := range reqSigs {
		d, ok := e.bySig[s]
		if !ok {
			return nil, false
		}
		decs[i] = d
	}
	c.lru.MoveToFront(el)
	return decs, true
}

// store memoizes a decided batch, indexed by request signature (unique
// within a batch: duplicate hose keys are rejected before deciding). The
// memo is a bounded LRU: at capacity the least recently used batch is
// evicted and counted — correctness never depends on a hit.
func (c *cache) store(key uint64, sig string, reqSigs []string, decs []Decision) {
	bySig := make(map[string]Decision, len(decs))
	for i := range decs {
		bySig[reqSigs[i]] = decs[i]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureEpochLocked()
	if el, ok := c.memo[key]; ok {
		el.Value = &memoEntry{key: key, sig: sig, bySig: bySig}
		c.lru.MoveToFront(el)
		return
	}
	c.memo[key] = c.lru.PushFront(&memoEntry{key: key, sig: sig, bySig: bySig})
	for c.lru.Len() > c.maxMemo {
		back := c.lru.Back()
		delete(c.memo, back.Value.(*memoEntry).key)
		c.lru.Remove(back)
		mMemoEvictions.Inc()
	}
}

// memoLen reports the memo size (for tests and stats).
func (c *cache) memoLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
