// Package qdisc emulates the Linux traffic-control primitives the paper's
// first-generation bandwidth manager was built on (§5.1: "this
// implementation leveraged the iptables and qdisc mechanisms provided by
// the Linux kernel"): an iptables-like classification chain and a
// token-bucket shaper applied at the endhost.
//
// The second-generation architecture abandoned source rate-limiting for
// mark-and-let-the-switch-decide; this package exists so the evolution can
// be reproduced and measured (see the architecture ablation), and because a
// downstream user may still want host-local shaping.
package qdisc

import (
	"fmt"
	"sync"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/topology"
)

// TokenBucket is a fluid token-bucket shaper: tokens accrue at Rate bits/s
// up to Burst bits; Admit consumes them.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // bits per second
	burst  float64 // bits
	tokens float64
}

// NewTokenBucket creates a bucket that starts full. Burst must be positive;
// a zero burst is replaced by 10ms worth of rate.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate < 0 {
		rate = 0
	}
	if burst <= 0 {
		burst = rate * 0.01
		if burst <= 0 {
			burst = 1
		}
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Advance accrues tokens for the elapsed duration.
func (tb *TokenBucket) Advance(dt time.Duration) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.tokens += tb.rate * dt.Seconds()
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}

// Admit requests bits of transmission credit and returns the amount granted
// (the fluid model allows partial admission). Excess is shaped away — the
// defining behavior of source rate-limiting.
func (tb *TokenBucket) Admit(bits float64) float64 {
	if bits <= 0 {
		return 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	granted := bits
	if granted > tb.tokens {
		granted = tb.tokens
	}
	tb.tokens -= granted
	return granted
}

// SetRate updates the shaping rate (the controller pushes new limits).
func (tb *TokenBucket) SetRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	tb.mu.Lock()
	tb.rate = rate
	// Keep burst proportionate so a rate cut takes effect promptly.
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.mu.Unlock()
}

// Rate returns the current shaping rate.
func (tb *TokenBucket) Rate() float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.rate
}

// Rule is one iptables-like match: empty fields are wildcards.
type Rule struct {
	NPG   contract.NPG
	Class contract.Class
	// HasClass must be set for Class to participate (C1Low is the zero
	// value).
	HasClass bool
	Region   topology.Region
	// Target names the qdisc class the packet is steered into.
	Target string
}

// Matches reports whether the rule matches the packet metadata.
func (r *Rule) Matches(pkt bpf.Packet) bool {
	if r.NPG != "" && pkt.NPG != r.NPG {
		return false
	}
	if r.HasClass && pkt.Class != r.Class {
		return false
	}
	if r.Region != "" && pkt.Region != r.Region {
		return false
	}
	return true
}

// Chain is an ordered iptables-like rule list with first-match semantics.
type Chain struct {
	mu    sync.RWMutex
	rules []Rule
}

// NewChain creates an empty chain.
func NewChain() *Chain { return &Chain{} }

// Append adds a rule at the end of the chain.
func (c *Chain) Append(r Rule) {
	c.mu.Lock()
	c.rules = append(c.rules, r)
	c.mu.Unlock()
}

// Len returns the rule count.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rules)
}

// Classify returns the first matching rule's target, or "" when no rule
// matches (the packet bypasses shaping).
func (c *Chain) Classify(pkt bpf.Packet) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := range c.rules {
		if c.rules[i].Matches(pkt) {
			return c.rules[i].Target, true
		}
	}
	return "", false
}

// Shaper is the first-generation endhost datapath: a classification chain
// steering traffic into per-class token buckets.
type Shaper struct {
	Chain *Chain

	mu      sync.RWMutex
	buckets map[string]*TokenBucket
}

// NewShaper creates a shaper with an empty chain and no classes.
func NewShaper() *Shaper {
	return &Shaper{Chain: NewChain(), buckets: make(map[string]*TokenBucket)}
}

// AddClass installs (or replaces) a shaping class.
func (s *Shaper) AddClass(target string, rate, burst float64) {
	s.mu.Lock()
	s.buckets[target] = NewTokenBucket(rate, burst)
	s.mu.Unlock()
}

// SetClassRate updates a class's rate; unknown classes are created with a
// default burst.
func (s *Shaper) SetClassRate(target string, rate float64) {
	s.mu.Lock()
	if tb, ok := s.buckets[target]; ok {
		tb.SetRate(rate)
	} else {
		s.buckets[target] = NewTokenBucket(rate, 0)
	}
	s.mu.Unlock()
}

// Advance accrues tokens on every class.
func (s *Shaper) Advance(dt time.Duration) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, tb := range s.buckets {
		tb.Advance(dt)
	}
}

// Egress shapes one transmission attempt: the packet's bits are admitted up
// to the matched class's available tokens. Unmatched traffic passes
// unshaped. The return is the admitted bits — anything less than requested
// was dropped (or, in a real qdisc, queued) at the source.
func (s *Shaper) Egress(pkt bpf.Packet, bits float64) float64 {
	target, ok := s.Chain.Classify(pkt)
	if !ok {
		return bits
	}
	s.mu.RLock()
	tb := s.buckets[target]
	s.mu.RUnlock()
	if tb == nil {
		return bits
	}
	return tb.Admit(bits)
}

// String summarizes the shaper.
func (s *Shaper) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return fmt.Sprintf("qdisc.Shaper{rules=%d classes=%d}", s.Chain.Len(), len(s.buckets))
}
