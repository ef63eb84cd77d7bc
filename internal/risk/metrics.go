package risk

import "entitlement/internal/obs"

// Risk-simulation instruments. scenarios_total counts scenario slots
// evaluated, routed_states_total the allocator runs that served them (one per
// distinct failure state per assessment), so routed/scenarios is the dedupe
// factor of the class partition; scenario_seconds is observed once per
// allocator run. The throughput and utilization gauges describe the most
// recent Assess call: scenarios_per_second is the realized simulation rate in
// slots, worker_utilization the fraction of the worker-pool's wall-clock
// budget spent solving (1.0 = perfectly parallel, low values = stragglers or
// contention).
var (
	mAssessSeconds   = obs.RegisterHistogram("entitlement_risk_assess_seconds", "Wall-clock duration of one risk assessment (all scenarios).")
	mScenarios       = obs.RegisterCounter("entitlement_risk_scenarios_total", "Failure scenarios evaluated across all assessments.")
	mRoutedStates    = obs.RegisterCounter("entitlement_risk_routed_states_total", "Allocator runs across all assessments: one per distinct failure state among an assessment's evaluated scenarios.")
	mScenarioSeconds = obs.RegisterHistogram("entitlement_risk_scenario_seconds", "Latency of routing one distinct failure state (one allocator run).")
	mScenarioRate    = obs.RegisterGauge("entitlement_risk_scenarios_per_second", "Realized scenario throughput of the most recent assessment.")
	mWorkerUtil      = obs.RegisterGauge("entitlement_risk_worker_utilization", "Fraction of the worker pool's wall-clock budget spent evaluating scenarios in the most recent assessment.")
)

// Result-cache traffic: a hit replays a cached assessment, a miss (absent
// entry, or one filled at another topology epoch) runs a full scenario pass.
var (
	mResultCacheHits      = obs.RegisterCounter("entitlement_risk_result_cache_hits_total", "Assessments replayed from the result cache.")
	mResultCacheMisses    = obs.RegisterCounter("entitlement_risk_result_cache_misses_total", "Assessments computed from scratch (absent entry, or one filled at another topology epoch).")
	mResultCacheEvictions = obs.RegisterCounter("entitlement_risk_result_cache_evictions_total", "Cached assessments evicted by the LRU bound.")
)
