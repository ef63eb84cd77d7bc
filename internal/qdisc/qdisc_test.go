package qdisc

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
)

func TestTokenBucketStartsFull(t *testing.T) {
	tb := NewTokenBucket(100, 50)
	if got := tb.Admit(80); got != 50 {
		t.Errorf("initial admit = %v, want burst 50", got)
	}
	if got := tb.Admit(10); got != 0 {
		t.Errorf("drained admit = %v, want 0", got)
	}
}

func TestTokenBucketAccrual(t *testing.T) {
	tb := NewTokenBucket(100, 50) // 100 bits/s
	tb.Admit(50)                  // drain
	tb.Advance(200 * time.Millisecond)
	if got := tb.Admit(100); math.Abs(got-20) > 1e-9 {
		t.Errorf("admit after 200ms = %v, want 20", got)
	}
	// Accrual caps at burst.
	tb.Advance(time.Hour)
	if got := tb.Admit(1e9); got != 50 {
		t.Errorf("capped admit = %v, want 50", got)
	}
}

func TestTokenBucketSetRate(t *testing.T) {
	tb := NewTokenBucket(100, 100)
	tb.Admit(100)
	tb.SetRate(10)
	tb.Advance(time.Second)
	if got := tb.Admit(100); math.Abs(got-10) > 1e-9 {
		t.Errorf("after rate cut = %v, want 10", got)
	}
	if tb.Rate() != 10 {
		t.Errorf("Rate = %v", tb.Rate())
	}
	tb.SetRate(-5)
	if tb.Rate() != 0 {
		t.Errorf("negative rate not clamped: %v", tb.Rate())
	}
}

func TestTokenBucketZeroBurstDefault(t *testing.T) {
	tb := NewTokenBucket(1000, 0)
	if tb.tokens <= 0 {
		t.Error("zero-burst bucket has no capacity")
	}
	if got := tb.Admit(-5); got != 0 {
		t.Errorf("negative admit = %v", got)
	}
}

// Property: over a long run, throughput through a token bucket never
// exceeds rate × time + burst.
func TestTokenBucketRateProperty(t *testing.T) {
	f := func(rateRaw, burstRaw uint16, steps uint8) bool {
		rate := float64(rateRaw) + 1
		burst := float64(burstRaw) + 1
		tb := NewTokenBucket(rate, burst)
		total := 0.0
		n := int(steps)%50 + 1
		for i := 0; i < n; i++ {
			tb.Advance(100 * time.Millisecond)
			total += tb.Admit(rate) // always over-request
		}
		bound := rate*float64(n)*0.1 + burst
		return total <= bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func pkt(npg contract.NPG, class contract.Class, region string) bpf.Packet {
	return bpf.Packet{NPG: npg, Class: class, Region: "A", Host: "h", Bytes: 1500}
}

func TestChainFirstMatch(t *testing.T) {
	c := NewChain()
	c.Append(Rule{NPG: "Cold", Target: "limit-cold"})
	c.Append(Rule{Target: "default"}) // wildcard catch-all
	if got, ok := c.Classify(pkt("Cold", contract.C4Low, "A")); !ok || got != "limit-cold" {
		t.Errorf("Classify = %q, %v", got, ok)
	}
	if got, ok := c.Classify(pkt("Warm", contract.ClassB, "A")); !ok || got != "default" {
		t.Errorf("fallthrough = %q, %v", got, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestRuleClassMatching(t *testing.T) {
	r := Rule{Class: contract.C1Low, HasClass: true, Target: "x"}
	if !r.Matches(pkt("Any", contract.C1Low, "A")) {
		t.Error("class match failed")
	}
	if r.Matches(pkt("Any", contract.C4High, "A")) {
		t.Error("wrong class matched")
	}
	// Without HasClass, C1Low zero value must not act as a filter.
	r2 := Rule{Target: "y"}
	if !r2.Matches(pkt("Any", contract.C4High, "A")) {
		t.Error("wildcard rule did not match")
	}
}

func TestShaperEgress(t *testing.T) {
	s := NewShaper()
	s.Chain.Append(Rule{NPG: "Cold", Target: "cold"})
	s.AddClass("cold", 1000, 500)
	// Matched traffic is shaped to the bucket.
	if got := s.Egress(pkt("Cold", contract.C4Low, "A"), 800); got != 500 {
		t.Errorf("shaped egress = %v, want 500 (burst)", got)
	}
	// Unmatched traffic passes through unshaped.
	if got := s.Egress(pkt("Warm", contract.ClassB, "A"), 800); got != 800 {
		t.Errorf("unmatched egress = %v, want 800", got)
	}
	// Matched target without a bucket passes (fail open).
	s.Chain.Append(Rule{NPG: "Warm", Target: "missing"})
	if got := s.Egress(pkt("Warm", contract.ClassB, "A"), 300); got != 300 {
		t.Errorf("missing class egress = %v, want 300", got)
	}
}

func TestShaperAdvanceAndSetRate(t *testing.T) {
	s := NewShaper()
	s.Chain.Append(Rule{Target: "all"})
	s.AddClass("all", 100, 100)
	s.Egress(pkt("X", contract.ClassA, "A"), 100) // drain
	s.Advance(time.Second)
	if got := s.Egress(pkt("X", contract.ClassA, "A"), 1000); math.Abs(got-100) > 1e-9 {
		t.Errorf("after advance = %v, want 100", got)
	}
	s.SetClassRate("all", 10)
	if s.ClassRate("all") != 10 {
		t.Errorf("ClassRate = %v", s.ClassRate("all"))
	}
	// SetClassRate creates unknown classes.
	s.SetClassRate("new", 5)
	if s.ClassRate("new") != 5 {
		t.Error("SetClassRate did not create class")
	}
	if s.ClassRate("absent") != 0 {
		t.Error("absent class rate not 0")
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

// ClassRate returns a class's configured rate (0 for unknown classes).
func (s *Shaper) ClassRate(target string) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if tb, ok := s.buckets[target]; ok {
		return tb.Rate()
	}
	return 0
}
