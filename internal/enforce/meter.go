// Package enforce implements the user-space half of the run-time
// enforcement system (§5): the metering algorithms that decide how much
// traffic to remark (stateless Equations 4–5 and stateful Equations 6–7),
// the remark policies deciding what to remark (flow-based vs host-based,
// §5.3), the enforcement agent tying contract database, rate store, meter,
// and BPF map together (Figure 9), and the §7.4 marking-convergence
// simulation.
package enforce

import "entitlement/internal/stats"

// Meter computes the ConformRatio for the next enforcement cycle from the
// aggregate service rates observed in the current one.
type Meter interface {
	// ConformRatio returns the fraction of traffic to treat as conforming
	// in the next cycle, in [0, 1].
	//
	// entitled is the contract's EntitledRate, total the observed aggregate
	// TotalRate, and conform the observed aggregate conforming rate.
	ConformRatio(entitled, total, conform float64) float64
	// Reset clears any state (a new enforcement period).
	Reset()
}

// Stateless implements Equations 4–5: the remarked fraction is the excess
// over the entitled rate, computed fresh from TotalRate each cycle:
//
//	NonConformRatio = (TotalRate − EntitledRate) / TotalRate
//	ConformRatio    = 1 − NonConformRatio
//
// As §7.4 shows, this oscillates under congestion: dropped non-conforming
// traffic vanishes from the next cycle's TotalRate, the meter concludes
// nothing needs remarking, and the full demand returns.
type Stateless struct{}

// ConformRatio implements Meter.
func (Stateless) ConformRatio(entitled, total, _ float64) float64 {
	if total <= 0 || total <= entitled {
		return 1
	}
	nonConform := (total - entitled) / total
	return stats.Clamp(1-nonConform, 0, 1)
}

// Reset implements Meter (stateless: nothing to clear).
func (Stateless) Reset() {}

// Stateful implements Equations 6–7: conforming and non-conforming traffic
// see different congestion, so the ratio is steered from the conforming
// rate alone, scaled by the previous cycle's ratio:
//
//	ConformRatio    = EntitledRate / ConformRate × PrevConformRatio
//	NonConformRatio = 1 − ConformRatio
//
// When all traffic returns to conformance (TotalRate ≤ EntitledRate) the
// ratio doubles per cycle — "rapid un-throttling but not immediate so as to
// avoid fluctuations".
type Stateful struct {
	prev float64
	init bool
	// RecoveryMargin is the hysteresis on the un-throttling branch: the
	// exponential recovery fires only when total < entitled×margin. At the
	// converged fixed point the observed total hovers around the entitled
	// rate, and measurement noise dipping just below it must not reopen
	// marking oscillations. Default 0.95.
	RecoveryMargin float64
}

// NewStateful returns a stateful meter starting from ConformRatio 1 (no
// remarking until the first over-entitlement observation).
func NewStateful() *Stateful { return &Stateful{prev: 1, init: true, RecoveryMargin: 0.95} }

// ConformRatio implements Meter.
func (m *Stateful) ConformRatio(entitled, total, conform float64) float64 {
	if !m.init {
		m.prev = 1
		m.init = true
	}
	margin := m.RecoveryMargin
	if margin <= 0 || margin > 1 {
		margin = 0.95
	}
	var ratio float64
	switch {
	case total < entitled*margin || total <= 0:
		// Back in conformance: exponential recovery. The margin keeps the
		// converged fixed point (observed total ≈ entitled) from drifting
		// into this branch on measurement noise and reopening the
		// oscillation the stateful meter exists to remove.
		ratio = m.prev * 2
	case conform <= 0:
		// Everything we let through was still dropped upstream; recover
		// slowly rather than divide by zero.
		ratio = m.prev * 2
	default:
		ratio = entitled / conform * m.prev
	}
	ratio = stats.Clamp(ratio, minConformRatio, 1)
	m.prev = ratio
	return ratio
}

// minConformRatio keeps the multiplicative update alive: at exactly zero the
// ratio could never recover by scaling.
const minConformRatio = 1.0 / 1024

// Reset implements Meter.
func (m *Stateful) Reset() {
	m.prev = 1
	m.init = true
}
