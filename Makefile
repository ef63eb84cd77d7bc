# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet vet-metrics vet-imports vet-dead vet-schema vet-schema-update test race chaos crash slo replay trace wirecompat fuzz-smoke bench bench-build bench-smoke bench-regress bench-rebaseline cover loc figures examples grantd-demo

all: build vet vet-metrics vet-imports vet-dead vet-schema bench-build test

# Every leg that picks tests by name goes through one of these, so a rename
# fails the leg instead of turning it into a silent pass: `go test` exits 0
# when -run, -fuzz or -bench matches nothing.
#
#   $(call require_tests,<pattern>,<packages>)   fail unless every |-separated
#       alternative of <pattern> names at least one Test/Fuzz/Benchmark/Example
#       in <packages> (patterns here are flat alternations of plain names)
#   $(call go_test_run,<go test flags>,<pattern>,<packages>)   the check, then
#       go test <flags> -run '<pattern>' <packages>
#   $(call go_test_fuzz,<fuzz target>,<package>)   the check, then a
#       $(FUZZTIME) fuzz pass
define require_tests
	@list="$$(go test -list '.' $(2))" || { echo "$$list"; exit 1; }; \
	for alt in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$list" | grep -E '^(Test|Fuzz|Benchmark|Example)' | grep -Eq -- "$$alt" || \
			{ echo "FAIL: '$$alt' selects no test in $(2)"; exit 1; }; \
	done
endef

define go_test_run
	$(call require_tests,$(2),$(3))
	go test $(1) -run '$(2)' $(3)
endef

define go_test_fuzz
	$(call require_tests,$(1),$(2))
	go test -count=1 -run=NONE -fuzz '$(1)' -fuzztime $(FUZZTIME) $(2)
endef

race:
	go test -race ./...

# Fault-injection harness: agents against real TCP servers through a chaos
# proxy (outage -> fail-static -> fail-open -> reconvergence), plus the
# dead-server wedge regression, all under the race detector.
chaos:
	$(call go_test_run,-race -count=1 -timeout 180s -v,TestChaosEnforcementSurvivesOutage|TestAgentRunNotWedgedByDeadServer,./internal/integration/)
	go test -race -count=1 -timeout 120s ./internal/faults/ ./internal/wire/

# Durability plane. The shared record log first: the format's torn/corrupt
# tail suite and crash-tail sweep, strict generation naming (stray files are
# never replayed, numbered after or pruned), failed rotations and the rotation
# cadence. Then grantd's journal on top of it: the randomized crash-recovery
# property (Kill + torn journal tail, 50 seeded runs) and its second sweep
# across rotations (concurrent submitters, un-synced tail lost, no observed
# decision lost), the journal's own record-shape rejections, failed rotations
# through the service, rotations that fall due while a commit group is staged
# or a submission is in the decider, the commit cadence, the checkpoint
# amortisation at cmd/grantd's defaults, the parent commit's journal fixture,
# and the overload/queue-timeout admission tests. Then contractdb's contract
# log: the crash-recovery property (50 seeds of put/replace/delete across
# rotations, killed after a random write, un-synced tail torn), replay
# rejections, the round trip and the log telemetry. And the two end-to-end
# SIGKILL drills — a real grantd subprocess killed mid-storm must restart on
# its journal, serve pre-kill decisions byte-identically, re-decide in-flight
# work, and leave agents converged; a real contractdb subprocess killed
# mid-storm must come back with every acknowledged put while no agent ever
# leaves enforcement and grantd is not restarted. All under the race detector.
crash:
	go test -race -count=1 -timeout 120s ./internal/recordlog/
	$(call go_test_run,-race -count=1 -timeout 300s,TestCrashRecoveryProperty|TestCrashRecoveryAcrossRotations|TestOverloadShed|TestQueueTimeout|TestWAL|TestReplayWAL|TestJournalCheckpointRotation|TestJournalFailedRotation|TestJournalAmortisedAtDefaults|TestGroupCommitSharesSyncs|TestRotationKeepsStagedGroup|TestCheckpointCarriesInflightSubmission|TestRecoverParentJournal|TestServiceCleanRestart,./internal/granting/)
	$(call go_test_run,-race -count=1 -timeout 120s,TestStoreCrashRecoveryProperty|TestOpenStoreRejectsInvalid|TestSnapshotRoundTrip|TestLogTelemetry|TestServerDurableStoreSLOAndErrors,./internal/contractdb/)
	$(call go_test_run,-race -count=1 -timeout 300s -v,TestGrantdCrashRecoverySockets|TestContractdbCrashRecoverySockets,./internal/integration/)

build:
	go build ./...

vet:
	go vet ./...

# The end-to-end benchmark is its own module under bench/, so `./...` from
# the root never compiles it: an API it calls can be deleted with every
# other leg green. Vet it and run its tests (which stand up the real fleet
# over loopback) against this tree.
bench-build:
	cd bench && go vet ./... && go test -count=1 ./...

# Metric-name lint: scans every obs.Register* call site in the tree and
# fails unless each metric name matches ^entitlement_[a-z0-9_]+$ and is
# registered exactly once process-wide (duplicate names would also panic at
# init, but the scan catches them without having to link the package).
vet-metrics:
	go vet ./...
	$(call go_test_run,-count=1,TestVetMetricNames,./internal/obs/)

# Stdlib-only lint: scans the import block of every .go file in the module
# and fails if anything imports outside the standard library and this module.
# Guards the repo invariant that builds need no network and no vendoring.
vet-imports:
	$(call go_test_run,-count=1,TestVetStdlibImports,./internal/obs/)

# Dead-export lint: fails when an exported package-level func, type, var,
# non-iota const or method has no referrer outside _test.go files (bench/
# included), when a metric var registered through obs.Register* is never used
# by its own package's non-test code, or when an allow-list entry in
# internal/obs/vet_dead_test.go no longer covers a dead declaration. The
# fixture test proves it trips on each of the three.
vet-dead:
	$(call go_test_run,-count=1,TestVetDeadExports|TestVetDeadExportsFixture,./internal/obs/)

# Schema compatibility gate: re-derives a fingerprint for every wire schema
# from the live Go types and fails if any shape drifted from the committed
# schema/v1/schema.lock without a version bump. Compatible changes
# regenerate the lock with vet-schema-update (the lock diff documents
# exactly what changed on the wire); breaking changes need a new schema
# version. Policy: schema/v1 package doc and DESIGN.md §14.
vet-schema:
	go run ./cmd/schemavet

vet-schema-update:
	go run ./cmd/schemavet -update

test:
	go test ./...

# SLO conformance plane: engine/recorder unit+property tests, then the
# acceptance drill — an injected network incident must breach exactly one
# contract, fire the fast-burn alert exactly once, and burn the error
# budget monotonically, asserted from the report JSON and live /metrics.
slo:
	go test -race -count=1 -timeout 120s ./internal/slo/
	$(call go_test_run,-race -count=1 -timeout 120s -v,TestSLOConformanceIncident,./internal/integration/)

# Incident black box: lifecycle/budget/crash-tail unit tests, the link
# lookback and budget rules, the envelope reload from a capture, the parent
# commit's capture fixture, the capture decoder's fuzz seed corpus, the
# drain-race accounting invariant, sloctl's commands against the fixture, and
# the golden end-to-end drill — a recorded incident, envelope included, must
# replay byte-identically through the real engine and the envelope must name
# the injected root cause. All under the race detector.
replay:
	$(call go_test_run,-race -count=1 -timeout 180s,TestBlackbox|TestBlackboxLinkLookback|TestBlackboxLinkRecordsSurviveBudget|TestBlackboxEnvelopeFromCapture|TestReplayEnvelopeDivergence|TestReadParentCapture|TestEnvelopeRoundtrip|TestDrainDropAccountingRace|FuzzBlackboxDecode,./internal/slo/)
	$(call go_test_run,-race -count=1 -timeout 120s,TestRun,./cmd/sloctl/)
	$(call go_test_run,-race -count=1 -timeout 180s -v,TestBlackboxIncidentReplay,./internal/integration/)

bench:
	go test -count=1 -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or panic without paying for a full measurement run.
bench-smoke:
	go test -count=1 -run=NONE -bench=. -benchtime=1x ./...

# Distributed tracing spine: the trace package's unit/property/fuzz-seed
# suite, the wire propagation and SetSpan race tests, and the golden
# cross-process drill — one grant submitted over real TCP must come back as
# ONE trace spanning submitter, grantd, and contractdb with correct
# parent/child edges and monotone timings, and tail sampling must keep 100%
# of incident traces while probabilistically dropping healthy ones. All
# under the race detector.
trace:
	go test -race -count=1 -timeout 120s ./internal/obs/trace/
	$(call go_test_run,-race -count=1 -timeout 120s,TestCallPropagatesSpanTree|TestSetSpanRaceWithConcurrentCalls,./internal/wire/)
	$(call go_test_run,-race -count=1 -timeout 180s -v,TestDistributedTraceSpine|TestTailSamplingRetention,./internal/integration/)

# Wire compatibility matrix: every codec pairing (binary client vs JSON
# server and the reverse, JSON payloads inside the binary envelope
# included), old frames without Trace/ID, torn and oversized binary frames
# answered with error responses, the mid-connection JSON-after-binary
# regression, and a kvstore client against a server from before the
# "exchange" method — all under the race detector, across the wire and
# kvstore layers.
wirecompat:
	$(call go_test_run,-race -count=1 -timeout 120s,TestWireCompatMatrix|TestOldFrameWithoutTraceOrID|TestBinaryServerRejectsJSONFrameMidConnection|TestBinaryServerRejectsTornAndOversizedFrames|TestBinaryServerRejectsUnparseableJSONFrame|TestNegotiationFallbackToJSON|TestRenegotiateAfterReconnect|TestCrossCodecGolden|TestCallBinaryServerMisbehaves|TestClientNegotiateServerMisbehaves,./internal/wire/)
	$(call go_test_run,-race -count=1 -timeout 120s,TestClientCodecMatrix|TestBinaryPutKeysDoNotAliasFrameBuffer|TestExchangeFallsBackOnOldServer,./internal/kvstore/)

# Short fuzz pass over every parser that faces untrusted bytes: the wire
# JSON framing and binary envelope, the record log's frame scanner, the
# journal replay and black-box capture decoders on top of it (record shapes,
# folding arbitrary field values), the traceparent codec, and the metrics text
# scraper.
# ~30s per target keeps the whole pass under CI's patience while still
# churning well past the seed corpus.
FUZZTIME ?= 30s
fuzz-smoke:
	$(call go_test_fuzz,FuzzReadMessage,./internal/wire/)
	$(call go_test_fuzz,FuzzBinaryFrameDecode,./internal/wire/)
	$(call go_test_fuzz,FuzzRecordlogScan,./internal/recordlog/)
	$(call go_test_fuzz,FuzzJournalReplay,./internal/granting/)
	$(call go_test_fuzz,FuzzBlackboxDecode,./internal/slo/)
	$(call go_test_fuzz,FuzzParseTraceContext,./internal/obs/trace/)
	$(call go_test_fuzz,FuzzParseText,./internal/obs/)

# The micro-benchmarks whose numbers are committed in BENCH.txt and gated by
# bench-regress, named once: full Benchmark function names (sub-benchmarks ride
# along) and the packages that define them. Each is the only definition of its
# number; TestCommittedBaselineParses (cmd/benchgate) fails tier-1 when one of
# these names is missing from the packages' test files or from BENCH.txt.
BENCH_GATE := BenchmarkAllocateRunner|BenchmarkKVStoreAggregation|BenchmarkAssessCold|BenchmarkAssessWarm|BenchmarkSLORecord|BenchmarkSLOEvaluate|BenchmarkBlackboxAppend|BenchmarkBlackboxAppendDisarmed|BenchmarkIncidentReplay|BenchmarkSpanStart|BenchmarkSpanFinish|BenchmarkSpanStartFinish|BenchmarkSpanChildStartFinish|BenchmarkContextEncode|BenchmarkContextParse|BenchmarkTraceAssembly|BenchmarkKVPutCodec|BenchmarkClientPutBinary|BenchmarkClientPutJSON|BenchmarkClientExchangeBinary
BENCH_GATE_PKGS := . ./internal/risk/ ./internal/slo/ ./internal/obs/trace/ ./schema/v1/ ./internal/kvstore/

# Five samples of each into .bench-fresh/BENCH.txt (go test runs benchmark
# packages one at a time). require_tests first: a renamed benchmark fails the
# leg here instead of shrinking the run.
define bench_measure
	$(call require_tests,$(BENCH_GATE),$(BENCH_GATE_PKGS))
	mkdir -p .bench-fresh
	go test -run=NONE -bench '$(BENCH_GATE)' -benchmem -count=5 $(BENCH_GATE_PKGS) > .bench-fresh/BENCH.txt || { cat .bench-fresh/BENCH.txt; exit 1; }
endef

# Perf-regression gate: re-measure and fail if any benchmark's median ns/op
# is past 2x its median in the committed BENCH.txt (sub-1µs baselines are
# recorded but not gated: noise), or a committed benchmark no longer runs.
bench-regress:
	$(bench_measure)
	go run ./cmd/benchgate -ratio 2 -min-baseline-ns 1000 BENCH.txt .bench-fresh/BENCH.txt

# The one command that writes BENCH.txt, for deliberate perf changes and for
# benchmarks added to BENCH_GATE. Commit the result with the change: the
# BENCH.txt diff (benchstat reads both sides) is the review artefact.
bench-rebaseline:
	$(bench_measure)
	cp .bench-fresh/BENCH.txt BENCH.txt

cover:
	go test -cover ./internal/... ./schema/...

# Line counts by `wc -l`, the one way ROADMAP's "net lines fall" bars are
# measured: non-test Go outside bench/, test Go outside bench/, and the
# benchmark module's .go files.
loc:
	@printf '%-30s %s\n' 'non-test Go outside bench/:' "$$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@printf '%-30s %s\n' 'test Go outside bench/:' "$$(find . -path ./bench -prune -o -name '*_test.go' -print | xargs cat | wc -l)"
	@printf '%-30s %s\n' 'bench/ .go:' "$$(find bench -name '*.go' | xargs cat | wc -l)"

# Regenerate every evaluation figure (text). Use FIGURE=fig-25 to filter.
figures:
	go run ./cmd/benchgen $(if $(FIGURE),-figure $(FIGURE),)

# Self-contained grantd walkthrough: in-process contract database, one
# online grant through the service, two enforcement agents picking it up.
grantd-demo:
	go run ./cmd/grantd -demo

examples:
	go run ./examples/quickstart
	go run ./examples/segmentedhose
	go run ./examples/drill
	go run ./examples/misbehaving
	go run ./examples/agents
	go run ./examples/capacityplanning
