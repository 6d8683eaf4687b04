# Convenience targets for the dbpl reproduction.

GO ?= go

.PHONY: all build vet fmt-check test test-short race bench report examples faults fuzz fuzz-wire serve-tests chaos-tests telemetry-tests index-tests repl-tests commit-tests failover-tests trace-tests perfbench-check clean

all: build vet fmt-check test faults race serve-tests chaos-tests telemetry-tests index-tests repl-tests commit-tests failover-tests trace-tests perfbench-check fuzz-wire

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean, or if vet finds anything.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency stress tests (core engine, persist stores) are only
# meaningful under the race detector.
race:
	$(GO) test -race ./...

# Skips the end-to-end `go run` example tests.
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every experiment (E1–E19) as paper-style tables.
report:
	$(GO) run ./cmd/benchreport

report-quick:
	$(GO) run ./cmd/benchreport -quick

examples:
	@for d in quickstart figure1 employees parkinglot billofmaterials evolution textsearch; do \
		echo "=== $$d ==="; $(GO) run ./examples/$$d || exit 1; done

# The fault-injection and crash-consistency suites: every persistence
# store driven through iofault.Injector — per-operation failures, torn
# writes, and a crash at every mutating I/O boundary — plus fsck/salvage
# and the v1 log compatibility checks.
faults:
	$(GO) test -run 'Fault|Crash|Fsck|Salvage|Poison|V1Log|Inject|LoseUnsynced' \
		./internal/persist/... ./cmd/dbpl/

# The server battery: the e2e suite, the commit/abort isolation stress,
# and the client/wire unit tests, all under the race detector, plus the
# cmd-level signal regression tests.
serve-tests:
	$(GO) test -race ./internal/server/... ./client/ ./cmd/dbpl/

# The resilience battery (docs/RESILIENCE.md): the netfault proxy unit
# tests, the chaos e2e suite (resets/partitions/corruption/overload
# around acknowledged writes), the idempotency dedup, and the client
# retry-policy tests — all under the race detector.
chaos-tests:
	$(GO) test -race -run 'Chaos|Idem|Retry|Overload|Health|Forward|Latency|Reset|Flip|Blackhole|Partition' \
		./internal/server/... ./client/

# The observability battery (docs/OBSERVABILITY.md): the telemetry
# package unit tests (histogram edges, snapshot immutability, codec,
# Prometheus exposition, instrumented FS), the server STATS/slow-log/ops
# e2e tests, the client trace and metrics tests, and the stats-verb
# subprocess test — all under the race detector.
telemetry-tests:
	$(GO) test -race ./internal/telemetry/
	$(GO) test -race -run 'Telemetry|Stats|Trace|SlowLog|SlowOps|OpsHandler|OpsEndpoint|Health|Prom|Snapshot|Histogram' \
		./internal/server/... ./client/ ./cmd/dbpl/

# The index battery (docs/INDEXES.md): the extent/field-index unit,
# quick-check and concurrent-maintenance tests, the cost-model and
# join-planning tests, the server index e2e (DDL lifecycle, txn refusal,
# restart durability, STATS counters), and the persist-layer 'X'-record
# durability + crash tests proving an index definition is never ahead of
# the durable offset — all under the race detector.
index-tests:
	$(GO) test -race ./internal/index/ ./internal/plan/
	$(GO) test -race -run 'Index|Plan|Explain|Extent' \
		./internal/server/... ./internal/relation/ ./internal/persist/intrinsic/ ./client/

# The replication battery (docs/REPLICATION.md): the wire codec for the
# REPLICATE stream, the store-level ship/apply round-trip and the
# follower-prefix crash matrix, the follower e2e suite (reads served,
# writes refused typed, restart/resume both directions), the replication
# chaos tests (partition/heal, flipped bytes on the stream, follower
# crash mid-apply), and the client fan-out tests (read-your-writes
# pinning, staleness bound, fallback) — all under the race detector.
repl-tests:
	$(GO) test -race -run 'Repl|Follower|Replica|Heartbeat|ReadOnly|PrimaryRestart|ReadGroups|ApplyGroup' \
		./internal/server/... ./internal/persist/intrinsic/ ./client/

# The group-commit battery (docs/PERSISTENCE.md durability modes): the
# store-level batched-append tests (stage/sync round trip, byte-identity
# with the serial log, the crash matrix at every I/O boundary, prefix
# replay), the coalescer white-box tests (shared fsync, fail-the-whole-
# batch, the stage→ack poison regression, exactly-once idempotency, the
# async watermark), and the e2e concurrency stress — all under the race
# detector.
commit-tests:
	$(GO) test -race -run 'Batch|Stage|SyncBatch|Coalescer|GroupCommit|Async|Compact' \
		./internal/persist/intrinsic/ ./internal/server/...

# The failover battery (docs/REPLICATION.md failover runbook): the
# store-level promotion tests (durable epoch bump, crash matrix at every
# I/O boundary, prefix/divergence properties, fork detection on rejoin),
# the server chaos battery (kill-primary promotion, fencing of a
# partitioned stale primary's late acks, typed divergent-rejoin refusal,
# bit flips and hung links during promotion), and the client-driven
# write-failover e2e — all under the race detector.
failover-tests:
	$(GO) test -race -run 'Promote|Failover|Fence|Fenced|Diverge|VerifyTail|Epoch|HangNext|WriteFailover' \
		./internal/persist/intrinsic/ ./internal/server/... ./client/ ./cmd/dbpl/

# The tracing battery (docs/OBSERVABILITY.md Tracing): the trace package
# unit tests (span nesting, sampler determinism, forced-retention ring
# under racing writers, codec hardening), the wire tests for the traced
# frame fast path and the 6-field REPDATA form, the server trace e2e
# suite (group-commit span nesting, the follower's linked apply trace,
# TRACES opcode, sampling off), and the client zero-alloc stamping test
# — all under the race detector.
trace-tests:
	$(GO) test -race ./internal/telemetry/trace/
	$(GO) test -race -run 'Trace|Exemplar|ReplData|AppendTracedFrame|SlowLogConcurrent|Delta' \
		./internal/server/... ./internal/telemetry/... ./client/

# The repository benchmark (perfbench/) is its own Go module, which the
# root `go build ./...` never enters: vet it and run its tests so a change
# to an internal API it uses cannot break the benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz passes over the decoders and the language pipeline.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalValue -fuzztime=30s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzDecodeType -fuzztime=30s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzRun -fuzztime=30s ./internal/lang/

# The wire-decoder fuzz contract (part of `make all`): malformed frames,
# truncated length prefixes and oversize claims must yield typed wire
# errors — never a panic, never an unbounded allocation.
fuzz-wire:
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/server/wire/

clean:
	$(GO) clean ./...
