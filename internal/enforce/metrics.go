package enforce

import "entitlement/internal/obs"

// Enforcement-plane instruments. Gauges with *_agents semantics count
// agents currently in the mode: each Agent tracks its own previous mode
// and moves the gauge only on transitions, so a fleet of N degraded
// agents reads exactly N (and falls back as they recover). The fail-open
// TRANSITION counter fires once per outage per agent — the signal an
// operator alerts on — while fail-open cycles keep showing up in
// degraded_cycles_total.
var (
	mCycleSeconds   = obs.RegisterHistogram("entitlement_enforce_cycle_seconds", "Duration of one enforcement cycle (publish, aggregate, contract query, meter, program).")
	mCycles         = obs.RegisterCounter("entitlement_enforce_cycles_total", "Enforcement cycles completed (all modes).")
	mDegradedCycles = obs.RegisterCounter("entitlement_enforce_degraded_cycles_total", "Cycles that leaned on cached or partial data after a dependency fault.")
	mDegradedAgents = obs.RegisterGauge("entitlement_enforce_degraded_agents", "Agents currently running degraded (fail-static or fail-open).")
	mFailOpenAgents = obs.RegisterGauge("entitlement_enforce_failopen_agents", "Agents currently failed open (marking action deleted).")
	mFailOpenTrans  = obs.RegisterCounter("entitlement_enforce_failopen_transitions_total", "Times an agent crossed from enforcing into fail-open (staleness budget exhausted or no data since startup).")
	mStaleSeconds   = obs.RegisterGaugeVec("entitlement_enforce_stale_seconds", "Age of the oldest cached datum the agent's last decision used, by host.", "host")
	mLastSuccess    = obs.RegisterGaugeVec("entitlement_enforce_last_success_timestamp_seconds", "Cycle time (unix seconds, agent clock) of the host's last fully healthy — non-degraded — enforcement cycle; frozen while the agent runs on cached data.", "host")

	mExchangeFails = obs.RegisterCounter("entitlement_enforce_rate_exchange_failures_total", "Failed rate-store exchanges: this host's rate publish and the service-wide aggregate, made as one call.")
	mContractFails = obs.RegisterCounter("entitlement_enforce_contract_failures_total", "Failed contract database queries.")
)
