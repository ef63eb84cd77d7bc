package slo

import (
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Windows are the four rolling horizons the engine evaluates, paired into
// a fast alert (Fast AND FastLong over threshold) and a slow alert (Slow
// AND SlowLong over threshold), per the SRE multi-window multi-burn-rate
// recipe: the short window makes the alert reset quickly once the incident
// ends, the long window keeps one noisy minute from paging.
type Windows struct {
	Fast     time.Duration // default 5m
	FastLong time.Duration // default 1h
	Slow     time.Duration // default 6h
	SlowLong time.Duration // default 3d; also the error-budget horizon
}

// DefaultWindows returns the production horizons.
func DefaultWindows() Windows {
	return Windows{
		Fast:     5 * time.Minute,
		FastLong: time.Hour,
		Slow:     6 * time.Hour,
		SlowLong: 72 * time.Hour,
	}
}

// names for metrics, logs and reports, index-aligned with windowList.
var windowNames = [4]string{"5m", "1h", "6h", "3d"}

func (w Windows) list() [4]time.Duration {
	return [4]time.Duration{w.Fast, w.FastLong, w.Slow, w.SlowLong}
}

// Options configure an Engine. The zero value picks production defaults.
type Options struct {
	// Windows are the burn-rate horizons; zero fields default per
	// DefaultWindows. Tests shrink them to drive days of budget math with
	// seconds of samples.
	Windows Windows
	// FastBurn is the firing threshold for the fast alert pair. Default
	// 14.4: at that burn rate a 99.9% contract spends 2% of its 30-day
	// budget in one hour — page-worthy.
	FastBurn float64
	// SlowBurn is the firing threshold for the slow alert pair. Default
	// 1.0: burning at exactly budget rate for 6h+ is a ticket.
	SlowBurn float64
	// ClearRatio scales the firing threshold into the clear threshold:
	// an active alert clears only once both windows burn below
	// threshold×ClearRatio. Default 0.5. The gap is the hysteresis band —
	// burn hovering at the threshold cannot flap the alert.
	ClearRatio float64
	// ClearAfter is how many consecutive below-clear evaluations an active
	// alert must see before clearing. Default 3.
	ClearAfter int
	// LossTolerance bounds the throttled share of in-entitlement demand a
	// sample may carry and still count as available. Default 0.01 (1%),
	// matching the drill's loss threshold for measured availability.
	LossTolerance float64
	// Logger receives alert transition events (Warn on fire, Info on
	// clear). Nil disables logging.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	d := DefaultWindows()
	if o.Windows.Fast <= 0 {
		o.Windows.Fast = d.Fast
	}
	if o.Windows.FastLong <= 0 {
		o.Windows.FastLong = d.FastLong
	}
	if o.Windows.Slow <= 0 {
		o.Windows.Slow = d.Slow
	}
	if o.Windows.SlowLong <= 0 {
		o.Windows.SlowLong = d.SlowLong
	}
	if o.FastBurn <= 0 {
		o.FastBurn = 14.4
	}
	if o.SlowBurn <= 0 {
		o.SlowBurn = 1.0
	}
	if o.ClearRatio <= 0 || o.ClearRatio >= 1 {
		o.ClearRatio = 0.5
	}
	if o.ClearAfter <= 0 {
		o.ClearAfter = 3
	}
	if o.LossTolerance <= 0 {
		o.LossTolerance = 0.01
	}
	return o
}

// keyState is one series' rolling aggregates, one per window.
type keyState struct {
	key     Key
	windows [4]*rolling
}

// alertState is the hysteresis state machine for one alert pair.
type alertState struct {
	active      bool
	clearStreak int
}

// contractState groups a contract's series and alert state.
type contractState struct {
	keys []*keyState
	fast alertState
	slow alertState
}

// Transition is one alert state change, returned by Evaluate for callers
// that drive notifications.
type Transition struct {
	Contract string    `json:"contract"`
	Alert    string    `json:"alert"` // "fast_burn" or "slow_burn"
	Active   bool      `json:"active"`
	At       time.Time `json:"at"`
}

// Engine folds recorder samples into rolling windows and judges each
// contract against its SLO objective. Record-side calls are lock-free (they
// go straight to the Recorder); Evaluate and Report serialize on a mutex.
type Engine struct {
	opts Options
	rec  *Recorder

	mu         sync.Mutex
	objectives map[string]float64
	keys       map[Key]*keyState
	contracts  map[string]*contractState
	cursors    map[*Series]uint64
	order      []string // sorted contract names with state
	// capture, when attached, observes every evaluation: it arms on the
	// first burn-rate fire, persists the flight-recorder state while armed,
	// and emits the attribution envelope once every alert has cleared.
	capture *Blackbox
}

// AttachCapture wires an incident black box into the engine: every Evaluate
// gives it a chance to arm (on a burn-rate fire), flush recorder samples to
// disk, and close the capture (on hysteresis clear). Attach before the
// first Evaluate; pass nil to detach.
func (e *Engine) AttachCapture(bb *Blackbox) {
	e.mu.Lock()
	e.capture = bb
	e.mu.Unlock()
}

// NewEngine builds an engine over rec (a fresh DefaultRingCapacity
// recorder when nil).
func NewEngine(rec *Recorder, opts Options) *Engine {
	if rec == nil {
		rec = NewRecorder(0)
	}
	return &Engine{
		opts:       opts.withDefaults(),
		rec:        rec,
		objectives: make(map[string]float64),
		keys:       make(map[Key]*keyState),
		contracts:  make(map[string]*contractState),
		cursors:    make(map[*Series]uint64),
	}
}

// Recorder exposes the engine's flight recorder for sample emitters.
func (e *Engine) Recorder() *Recorder { return e.rec }

// Record appends one sample — a convenience for cold paths; hot emitters
// should cache Recorder().Series(key) and record on the handle.
func (e *Engine) Record(k Key, sm Sample) { e.rec.Record(k, sm) }

// SetObjective registers (or updates) a contract's availability SLO in
// (0, 1]. Contracts without an objective are still recorded and reported,
// but carry no burn rates or alerts.
func (e *Engine) SetObjective(contractName string, slo float64) {
	if slo <= 0 || slo > 1 {
		return
	}
	e.mu.Lock()
	if _, ok := e.objectives[contractName]; !ok {
		mContracts.Inc()
	}
	e.objectives[contractName] = slo
	e.mu.Unlock()
}

// Evaluate drains new samples from the recorder, folds them into every
// window, refreshes the entitlement_slo_* gauges, and advances the alert
// state machines. It returns the alert transitions that occurred, in
// contract order. Call it once per enforcement cycle (or scrape period);
// it is cheap — O(new samples + contracts × windows).
func (e *Engine) Evaluate(now time.Time) []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evaluateLocked(now)
}

func (e *Engine) evaluateLocked(now time.Time) []Transition {
	mEvaluations.Inc()
	e.drainLocked()
	var pre map[string]ContractSeed
	if e.capture != nil {
		// Snapshot the alert state machines BEFORE judging: a capture armed
		// by this evaluation stores the pre-arm states, so a replay that
		// seeds them and re-runs this very evaluation reproduces the arming
		// transitions instead of double-stepping the hysteresis streaks.
		pre = e.alertSeedsLocked()
	}
	var trans []Transition
	for _, name := range e.order {
		trans = append(trans, e.judgeLocked(name, now)...)
	}
	if e.capture != nil {
		e.capture.observe(e, now, pre, trans)
	}
	return trans
}

// drainLocked consumes samples recorded since the previous evaluation.
func (e *Engine) drainLocked() {
	e.rec.Each(func(s *Series) {
		ks := e.keyStateLocked(s.Key())
		next, dropped := s.DrainFrom(e.cursors[s], func(sm Sample) {
			e.foldLocked(ks, sm)
		})
		if dropped > 0 {
			mSamplesDropped.Add(int64(dropped))
		}
		e.cursors[s] = next
	})
}

// contractStateLocked returns (creating if needed) one contract's state.
func (e *Engine) contractStateLocked(name string) *contractState {
	cs, ok := e.contracts[name]
	if !ok {
		cs = &contractState{}
		e.contracts[name] = cs
		e.order = append(e.order, name)
		sort.Strings(e.order)
	}
	return cs
}

func (e *Engine) keyStateLocked(k Key) *keyState {
	if ks, ok := e.keys[k]; ok {
		return ks
	}
	ks := &keyState{key: k}
	for i, d := range e.opts.Windows.list() {
		ks.windows[i] = newRolling(d)
	}
	e.keys[k] = ks
	cs := e.contractStateLocked(k.Contract)
	// Keep a contract's series sorted by (segment, class): the report's
	// float accumulations and worst-segment tie-breaks then fold in a
	// deterministic order regardless of which goroutine's sample created a
	// series first — a replay of recorded samples must reproduce the live
	// run's report bytes exactly.
	at := len(cs.keys)
	for i, other := range cs.keys {
		if k.Segment < other.key.Segment ||
			(k.Segment == other.key.Segment && k.Class < other.key.Class) {
			at = i
			break
		}
	}
	cs.keys = append(cs.keys, nil)
	copy(cs.keys[at+1:], cs.keys[at:])
	cs.keys[at] = ks
	return ks
}

// classify turns one sample into a single-interval aggregate. Shared by the
// live fold and the black box's incident-window accounting, so both sides
// apply the same §3.3 demarcation: throttling of in-entitlement demand beyond
// the tolerance is network-attributed badness, overage is the service's own
// exposure, and an idle cycle (no in-entitlement demand) can neither meet nor
// breach the SLO — the drill's measured-availability rule.
func classify(sm Sample, lossTolerance float64) windowAgg {
	var a windowAgg
	a.Granted = sm.Granted
	a.Used = sm.Used
	a.Throttled = sm.Throttled
	a.Overage = sm.Overage
	if sm.Overage > 0 {
		a.Over = 1
	}
	if inEnt := sm.Used + sm.Throttled; inEnt > 0 {
		a.Total = 1
		if sm.Throttled <= lossTolerance*inEnt {
			a.Good = 1
		} else {
			a.BadNetwork = 1
		}
	}
	return a
}

// foldLocked classifies one sample and adds it to every window.
func (e *Engine) foldLocked(ks *keyState, sm Sample) {
	a := classify(sm, e.opts.LossTolerance)
	for _, w := range ks.windows {
		w.add(sm.At, a)
	}
}

// contractWindows computes, per window, the contract's availability — the
// MINIMUM across its series, because the paper's uptime definition requires
// ALL of the contract's in-entitlement traffic to be admitted — plus the
// summed aggregate for rate attribution and the worst series over the
// budget window.
func (cs *contractState) contractWindows(now time.Time) (avail [4]float64, budgetAgg windowAgg, worst *keyState, worstAvail float64) {
	for i := range avail {
		avail[i] = 1
	}
	worstAvail = 1
	for _, ks := range cs.keys {
		for i, w := range ks.windows {
			st := w.stats(now)
			if a := st.availability(); a < avail[i] {
				avail[i] = a
			}
			if i == 3 { // budget horizon
				budgetAgg.add(st)
				if a := st.availability(); worst == nil || a < worstAvail {
					worst, worstAvail = ks, a
				}
			}
		}
	}
	return avail, budgetAgg, worst, worstAvail
}

// burnRate converts an availability shortfall into budget-burn multiples.
func burnRate(avail, slo float64) float64 {
	if slo >= 1 {
		if avail < 1 {
			return inf
		}
		return 0
	}
	return (1 - avail) / (1 - slo)
}

const inf = 1e308 // effectively infinite burn for a 100% SLO

// judgeLocked refreshes one contract's gauges and alert state.
func (e *Engine) judgeLocked(name string, now time.Time) []Transition {
	cs := e.contracts[name]
	avail, _, _, _ := cs.contractWindows(now)
	mAvail5m.With(name).Set(avail[0])
	mAvail1h.With(name).Set(avail[1])
	mAvail6h.With(name).Set(avail[2])
	mAvail3d.With(name).Set(avail[3])

	slo, ok := e.objectives[name]
	if !ok {
		return nil
	}
	var burn [4]float64
	for i := range burn {
		burn[i] = burnRate(avail[i], slo)
	}
	mBurn5m.With(name).Set(burn[0])
	mBurn1h.With(name).Set(burn[1])
	mBurn6h.With(name).Set(burn[2])
	mBurn3d.With(name).Set(burn[3])
	mBudgetRemaining.With(name).Set(1 - burn[3])

	var trans []Transition
	if t := e.stepAlertLocked(name, "fast_burn", &cs.fast, burn[0], burn[1], e.opts.FastBurn, now); t != nil {
		trans = append(trans, *t)
	}
	if t := e.stepAlertLocked(name, "slow_burn", &cs.slow, burn[2], burn[3], e.opts.SlowBurn, now); t != nil {
		trans = append(trans, *t)
	}
	mFastActive.With(name).Set(boolGauge(cs.fast.active))
	mSlowActive.With(name).Set(boolGauge(cs.slow.active))
	return trans
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// stepAlertLocked advances one alert pair's hysteresis state machine:
// fire when BOTH windows burn at or above the threshold; clear only after
// ClearAfter consecutive evaluations with BOTH windows below
// threshold×ClearRatio. Returns the transition, if one happened.
func (e *Engine) stepAlertLocked(contractName, alert string, st *alertState, short, long, threshold float64, now time.Time) *Transition {
	firing := short >= threshold && long >= threshold
	clear := short < threshold*e.opts.ClearRatio && long < threshold*e.opts.ClearRatio
	switch {
	case !st.active && firing:
		st.active = true
		st.clearStreak = 0
		e.countTransition(contractName, alert)
		if e.opts.Logger != nil {
			e.opts.Logger.Warn("slo.alert fired",
				slog.String("contract", contractName), slog.String("alert", alert),
				slog.Float64("burn_short", short), slog.Float64("burn_long", long),
				slog.Float64("threshold", threshold), slog.Time("at", now))
		}
		return &Transition{Contract: contractName, Alert: alert, Active: true, At: now}
	case st.active && clear:
		st.clearStreak++
		if st.clearStreak >= e.opts.ClearAfter {
			st.active = false
			st.clearStreak = 0
			e.countTransition(contractName, alert)
			if e.opts.Logger != nil {
				e.opts.Logger.Info("slo.alert cleared",
					slog.String("contract", contractName), slog.String("alert", alert),
					slog.Float64("burn_short", short), slog.Float64("burn_long", long),
					slog.Time("at", now))
			}
			return &Transition{Contract: contractName, Alert: alert, Active: false, At: now}
		}
	case st.active:
		// Burn wobbled back above the clear band: restart the streak.
		st.clearStreak = 0
	}
	return nil
}

func (e *Engine) countTransition(contractName, alert string) {
	if alert == "fast_burn" {
		mFastTrans.With(contractName).Inc()
	} else {
		mSlowTrans.With(contractName).Inc()
	}
}

// AlertSeed is one alert pair's hysteresis position, serialized into the
// capture metadata so a replay can resume the state machine exactly where
// the live engine stood before the arming evaluation.
type AlertSeed struct {
	Active      bool `json:"active,omitempty"`
	ClearStreak int  `json:"clear_streak,omitempty"`
}

// ContractSeed carries both alert pairs' seeds for one contract.
type ContractSeed struct {
	Fast AlertSeed `json:"fast"`
	Slow AlertSeed `json:"slow"`
}

// alertSeedsLocked snapshots every contract's alert state machines.
func (e *Engine) alertSeedsLocked() map[string]ContractSeed {
	out := make(map[string]ContractSeed, len(e.order))
	for _, name := range e.order {
		cs := e.contracts[name]
		out[name] = ContractSeed{
			Fast: AlertSeed{Active: cs.fast.active, ClearStreak: cs.fast.clearStreak},
			Slow: AlertSeed{Active: cs.slow.active, ClearStreak: cs.slow.clearStreak},
		}
	}
	return out
}

// seedAlerts primes the alert state machines from capture metadata before a
// replay's first evaluation; contracts are created as needed.
func (e *Engine) seedAlerts(seeds map[string]ContractSeed) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, s := range seeds {
		cs := e.contractStateLocked(name)
		cs.fast = alertState{active: s.Fast.Active, clearStreak: s.Fast.ClearStreak}
		cs.slow = alertState{active: s.Slow.Active, clearStreak: s.Slow.ClearStreak}
	}
}

// ContractEval is one contract's availability and burn rates at one
// evaluation, index-aligned with windowNames.
type ContractEval struct {
	Contract     string     `json:"contract"`
	Availability [4]float64 `json:"availability"`
	Burn         [4]float64 `json:"burn"`
	HasSLO       bool       `json:"has_slo,omitempty"`
	FastActive   bool       `json:"fast_active,omitempty"`
	SlowActive   bool       `json:"slow_active,omitempty"`
}

// EvalRecord is one armed evaluation's full engine output — the live run
// appends one per Evaluate to the capture, and `sloctl replay` must
// recompute each byte-identically (compared via encoding/json, which
// renders float64 shortest-roundtrip). This is the determinism contract the
// golden test pins.
type EvalRecord struct {
	At          time.Time      `json:"at"`
	Contracts   []ContractEval `json:"contracts"`
	Transitions []Transition   `json:"transitions,omitempty"`
}

// evalRecordLocked renders the post-judge engine state for time now.
func (e *Engine) evalRecordLocked(now time.Time, trans []Transition) EvalRecord {
	ev := EvalRecord{At: now, Transitions: trans}
	for _, name := range e.order {
		cs := e.contracts[name]
		avail, _, _, _ := cs.contractWindows(now)
		ce := ContractEval{
			Contract:     name,
			Availability: avail,
			FastActive:   cs.fast.active,
			SlowActive:   cs.slow.active,
		}
		if slo, ok := e.objectives[name]; ok {
			ce.HasSLO = true
			for i := range avail {
				ce.Burn[i] = burnRate(avail[i], slo)
			}
		}
		ev.Contracts = append(ev.Contracts, ce)
	}
	return ev
}

// objectivesLocked copies the objective table for capture metadata.
func (e *Engine) objectivesLocked() map[string]float64 {
	out := make(map[string]float64, len(e.objectives))
	for k, v := range e.objectives {
		out[k] = v
	}
	return out
}
