package granting

import "entitlement/internal/obs"

// Granting-plane instruments. The assessment level (scenario states, delta
// splicing) reports from the risk package (entitlement_risk_result_cache_*);
// here the decision memo reports hits — batches whose whole risk pass was
// skipped — plus LRU evictions and delta-triggered drops.
// entitlement_grantd_cache_hit_ratio tracks the decision memo — the headline
// "how often is admission free" signal.
var (
	mRequests        = obs.RegisterCounter("entitlement_grantd_requests_total", "Contract requests accepted into the admission queue.")
	mQueueDepth      = obs.RegisterGauge("entitlement_grantd_queue_depth", "Requests currently queued for a risk pass.")
	mBatches         = obs.RegisterCounter("entitlement_grantd_batches_total", "Risk passes run (each decides one coalesced batch).")
	mBatchSize       = obs.RegisterHistogram("entitlement_grantd_batch_size", "Requests decided per risk pass.")
	mDecisionSeconds = obs.RegisterHistogram("entitlement_grantd_decision_seconds", "Latency from submission to decision, per request.")
	mDecisions       = obs.RegisterCounterVec("entitlement_grantd_decisions_total", "Decisions by outcome.", "status")
	mMemoHits        = obs.RegisterCounter("entitlement_grantd_decision_cache_hits_total", "Requests answered from the decision memo (no risk pass). Counted per request, matching the /grants report.")
	mMemoMisses      = obs.RegisterCounter("entitlement_grantd_decision_cache_misses_total", "Requests that needed a full risk pass. Counted per request, matching the /grants report.")
	mMemoEvictions   = obs.RegisterCounter("entitlement_grantd_memo_evictions_total", "Memoized batch decisions evicted by the LRU bound (Options.MemoMaxEntries).")
	mCacheHitRatio   = obs.RegisterGauge("entitlement_grantd_cache_hit_ratio", "Decision-memo hit ratio since start (hits / lookups).")
	mCacheFlushes    = obs.RegisterCounter("entitlement_grantd_cache_flushes_total", "Decision-memo drops triggered by a topology mutation (any epoch change).")
	mStoreFails      = obs.RegisterCounter("entitlement_grantd_store_failures_total", "Granted contracts that failed to store in the contract database.")

	// Admission control: the queue is bounded (Options.MaxQueue) and aged
	// (Options.MaxQueueDelay); both reliefs are counted, never silent.
	mShed          = obs.RegisterCounter("entitlement_grantd_shed_total", "Requests shed at submission because the admission queue was full (Options.MaxQueue).")
	mQueueTimeouts = obs.RegisterCounter("entitlement_grantd_queue_timeouts_total", "Queued requests failed with a queue-timeout decision because they aged past Options.MaxQueueDelay.")

	// Write-ahead decision journal (Options.WAL): append volume, sync cost,
	// rotation cadence, and what replay found at the last startup.
	mJournalRecords           = obs.RegisterCounterVec("entitlement_grantd_journal_records_total", "Journal records appended, by type (sub, dec, ckpt).", "type")
	mJournalBytes             = obs.RegisterCounter("entitlement_grantd_journal_bytes_total", "Bytes appended to the decision journal, including record framing.")
	mJournalFsyncs            = obs.RegisterCounter("entitlement_grantd_journal_fsyncs_total", "fsync calls issued by the decision journal.")
	mJournalCheckpoints       = obs.RegisterCounter("entitlement_grantd_journal_checkpoints_total", "Journal rotations: a snapshot checkpoint opened a new generation and older generations were pruned.")
	mJournalErrors            = obs.RegisterCounter("entitlement_grantd_journal_errors_total", "Journal append or sync failures (decisions are still served; a restart re-derives them deterministically).")
	mJournalReplayRecords     = obs.RegisterCounter("entitlement_grantd_journal_replay_records_total", "Records replayed from the journal at startup.")
	mJournalReplayTruncations = obs.RegisterCounter("entitlement_grantd_journal_replay_truncations_total", "Journal generations whose torn or corrupt tail was truncated during replay.")
	mRecoveredDecisions       = obs.RegisterCounter("entitlement_grantd_recovered_decisions_total", "Decided requests restored from the journal at startup (served byte-identically).")
	mRecoveredPending         = obs.RegisterCounter("entitlement_grantd_recovered_pending_total", "In-flight requests restored from the journal at startup and re-queued for deterministic re-decision.")
)

func updateHitRatio() {
	hits, misses := mMemoHits.Value(), mMemoMisses.Value()
	if total := hits + misses; total > 0 {
		mCacheHitRatio.Set(float64(hits) / float64(total))
	}
}
