// Package faults is the fault-injection harness for the run-time
// enforcement stack. It provides deterministic flaky wrappers for the rate
// store and contract database — driven by a seeded RNG and an injected
// clock, so chaos tests replay identically — plus a TCP proxy (proxy.go)
// that black-holes, resets, and delays real connections.
//
// The harness exists to prove the fleet's failure model (DESIGN.md):
// transient store outages must never wedge an agent, agents must stay
// fail-static within their staleness budget and fail open beyond it, and
// the fleet must reconverge once an outage lifts.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/kvstore"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

// ErrInjected is the root of every injected failure; detect injection with
// errors.Is. Injected failures are wrapped as wire.TransientError so the
// production error classification treats them like real outages.
var ErrInjected = errors.New("faults: injected failure")

// Injector decides, deterministically, whether each operation fails. A
// failure fires when the injected clock is inside a scheduled outage
// window, or when the seeded RNG draws below the failure probability. One
// Injector can back several wrappers so a "site-wide" outage hits every
// dependency at once; it is safe for concurrent use.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	now      func() time.Time
	failProb float64
	outages  []window
	injected int
}

type window struct{ from, to time.Time }

// NewInjector builds an injector with the given RNG seed and clock; a nil
// clock uses time.Now.
func NewInjector(seed int64, now func() time.Time) *Injector {
	if now == nil {
		now = time.Now
	}
	return &Injector{rng: rand.New(rand.NewSource(seed)), now: now}
}

// SetFailProb makes each operation fail independently with probability p.
func (i *Injector) SetFailProb(p float64) {
	i.mu.Lock()
	i.failProb = p
	i.mu.Unlock()
}

// AddOutage schedules a hard outage: every operation with from ≤ now < to
// fails.
func (i *Injector) AddOutage(from, to time.Time) {
	i.mu.Lock()
	i.outages = append(i.outages, window{from, to})
	i.mu.Unlock()
}

// ClearOutages lifts every scheduled outage.
func (i *Injector) ClearOutages() {
	i.mu.Lock()
	i.outages = nil
	i.mu.Unlock()
}

// Injected returns how many failures have been injected so far.
func (i *Injector) Injected() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected
}

// Fail returns the injected failure for one operation, or nil to let it
// through.
func (i *Injector) Fail(op string) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	now := i.now()
	inOutage := false
	for _, w := range i.outages {
		if !now.Before(w.from) && now.Before(w.to) {
			inOutage = true
			break
		}
	}
	if !inOutage && (i.failProb <= 0 || i.rng.Float64() >= i.failProb) {
		return nil
	}
	i.injected++
	return &wire.TransientError{Err: fmt.Errorf("%w: %s", ErrInjected, op)}
}

// FlakyRates wraps a kvstore.RateStore with injected failures.
type FlakyRates struct {
	Inner kvstore.RateStore
	Inj   *Injector
}

// Exchange implements kvstore.RateStore. The exchange is one round trip,
// so it has one injection point: it fails or passes whole.
func (f *FlakyRates) Exchange(puts []kvstore.Publish, prefixes []string, sums []float64) error {
	if err := f.Inj.Fail("kvstore exchange"); err != nil {
		return err
	}
	return kvstore.Exchange(f.Inner, puts, prefixes, sums)
}

// FlakyDB wraps a contractdb.Database with injected failures.
type FlakyDB struct {
	Inner contractdb.Database
	Inj   *Injector
}

// EntitledRate implements contractdb.Database.
func (f *FlakyDB) EntitledRate(npg contract.NPG, class contract.Class, region topology.Region, dir contract.Direction, at time.Time) (float64, bool, error) {
	if err := f.Inj.Fail("contractdb query"); err != nil {
		return 0, false, err
	}
	return f.Inner.EntitledRate(npg, class, region, dir, at)
}

var (
	_ kvstore.RateStore   = (*FlakyRates)(nil)
	_ contractdb.Database = (*FlakyDB)(nil)
)
