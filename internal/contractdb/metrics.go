package contractdb

import "entitlement/internal/obs"

// Contract-database server instruments. The contracts gauge is the size of
// the served store — the number of NPGs whose entitlements this process
// can answer for.
var (
	mRequests      = obs.RegisterCounterVec("entitlement_contractdb_requests_total", "Requests handled by contractdb servers, by method.", "method")
	mRequestErrors = obs.RegisterCounter("entitlement_contractdb_request_errors_total", "contractdb requests that returned an error (bad payload, invalid contract, or store failure).")
	mContracts     = obs.RegisterGauge("entitlement_contractdb_contracts", "Contracts held by the contractdb server's backing store.")

	// Write-ahead contract log (OpenStore): append volume, sync cost, and
	// what replay found at the last startup.
	mLogRecords           = obs.RegisterCounterVec("entitlement_contractdb_log_records_total", "Contract log records appended, by type (put, del, snap).", "t")
	mLogBytes             = obs.RegisterCounter("entitlement_contractdb_log_bytes_total", "Bytes appended to the contract log, including record framing.")
	mLogFsyncs            = obs.RegisterCounter("entitlement_contractdb_log_fsyncs_total", "fsync calls issued by the contract log (one per acknowledged mutation, one per snapshot).")
	mLogReplayTruncations = obs.RegisterCounter("entitlement_contractdb_log_replay_truncations_total", "Contract log generations whose torn or corrupt tail was truncated during replay.")
	mLogErrors            = obs.RegisterCounter("entitlement_contractdb_log_errors_total", "Contract log append, sync or rotation failures (the mutation was refused, or the rotation deferred).")
)
