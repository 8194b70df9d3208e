# Pre-commit gate: `make check` runs the format/vet/build gate, the
# race-enabled tests of the packages with the hottest concurrency
# (iscsi, obs, middlebox, netsim, bufpool, the durable WAL, the
# scale-out control plane — sdn, splice, vswitch, core, cloud,
# orchestrator — the content-addressed replication stack: cas,
# objstore, scrub, services/replicate — the per-byte path every workload
# shares: blockdev, services/crypt — and volume, which picks the target's
# execution mode), the allocs/op regression gates for the zero-copy chain hot
# path, one iSCSI leg at 4 KiB and 64 KiB, the flow lookup, the cipher and
# a histogram observation, a short-mode soak smoke, and a short-mode backup
# smoke. `make test` is the full suite. `make bench` prints the data-plane microbenchmarks with
# allocation stats and appends a dated before/after summary to
# BENCH_results.json (via stormbench -fastpath). `make crash` runs the
# WAL durability-cost sweep and the kill/replay scenarios (stormbench
# -crash, non-zero exit on data loss). `make trace` runs the end-to-end
# tracing experiment. `make soak` runs the sustained multi-tenant churn
# soak at full scale (500 tenants, dated entry in BENCH_results.json,
# non-zero exit on any failed gate). `make backup` runs the
# content-addressed replication suite (dedup ratio, fan-out throughput,
# scrub repair after corruption; dated entry in BENCH_results.json).
# `make overload` runs the resource-exhaustion suite (WAL/CAS full typed
# refusal, brownout breaker trip/recover, bounded memory; dated entry in
# BENCH_results.json). `make lint-taxonomy` greps the data-path services
# for raw fmt.Errorf at exhaustion sites that should carry an xerr class.
# `make lint-params` fails when non-test Go outside internal/policy indexes a
# spec's policy Params map instead of using its typed accessors.
# `make bench-ab W=<workload> [BASE=<ref>] [PAIRS=10]` measures the working
# tree against BASE with the repository benchmark (`go run ./bench`) in
# alternating pairs and prints `bench compare` plus wins per pair.

GO ?= go
RACE_PKGS := ./internal/iscsi ./internal/obs ./internal/middlebox ./internal/netsim ./internal/bufpool ./internal/initiator ./internal/target ./internal/services/replica ./internal/faults ./internal/wal ./internal/sdn ./internal/splice ./internal/vswitch ./internal/core ./internal/cloud ./internal/orchestrator ./internal/workload ./internal/cas ./internal/objstore ./internal/scrub ./internal/services/replicate ./internal/xerr ./internal/testutil ./internal/blockdev ./internal/services/crypt ./internal/volume
BENCH_PKGS := ./internal/iscsi ./internal/middlebox ./internal/bufpool ./internal/experiments ./internal/blockdev ./internal/services/crypt ./internal/volume

.PHONY: check fmt vet build test race bench bench-ab allocs crash trace soak soak-short backup backup-short overload overload-short lint-taxonomy lint-params

check: fmt vet build lint-taxonomy lint-params race allocs soak-short backup-short overload-short

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Allocation regression gates (skipped under -race, which instruments
# allocations): the zero-copy chain hot path, one unmodelled iSCSI leg (4 KiB
# and 64 KiB), the lock-free flow lookup, the per-request (not per-sector) cipher
# and the bucketed histogram's Observe.
allocs:
	$(GO) test -run 'TestChainWrite4KAllocBudget|TestLeg4KAllocBudget|TestLeg64KAllocBudget|TestLookupAllocFree|TestDevice64KAllocBudget|TestHistogramObserveAllocFree' -count=1 -v ./internal/experiments ./internal/volume ./internal/vswitch ./internal/services/crypt ./internal/obs | grep -E 'allocs|FAIL|ok '

test:
	$(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench 'PDU|Encode|Writeback|Chain|Leg4K|Leg64K|GetRelease|Transform|MemDiskRW' -benchmem $(BENCH_PKGS)
	$(GO) run ./cmd/stormbench -fastpath

# Paired A/B of one benchmark workload, BASE against the working tree; see
# scripts/bench-ab.sh.
BASE ?= HEAD
PAIRS ?= 10
bench-ab:
	scripts/bench-ab.sh $(W) $(BASE) $(PAIRS)

crash:
	$(GO) run ./cmd/stormbench -crash

trace:
	$(GO) run ./cmd/stormbench -trace

# Full-scale sustained soak: 500 tenants with deploy/teardown churn,
# p99/alloc/lock-wait telemetry, dated entry in BENCH_results.json.
soak:
	$(GO) run ./cmd/stormbench -soak

# Short soak smoke for the pre-commit gate: small tenant count, short
# measured window, results not recorded.
soak-short:
	$(GO) run ./cmd/stormbench -soak -soaktenants 96 -soakdur 1500ms -json ''

# Full backup suite: multi-round delta workload through the replication
# box, dedup/convergence/scrub-repair gates, dated entry in
# BENCH_results.json.
backup:
	$(GO) run ./cmd/stormbench -backup

# Short backup smoke for the pre-commit gate: small image, results not
# recorded.
backup-short:
	$(GO) run ./cmd/stormbench -backup -backupchunks 128 -backuprounds 3 -json ''

# Full overload suite: WAL-full and CAS-full typed refusal and recovery,
# 1-slow-of-3 brownout with breaker trip/recover, bounded heap growth;
# dated entry in BENCH_results.json, non-zero exit on any failed gate.
overload:
	$(GO) run ./cmd/stormbench -overload

# Short overload smoke for the pre-commit gate: fewer brownout writes,
# results not recorded.
overload-short:
	$(GO) run ./cmd/stormbench -overload -overloadwrites 200 -json ''

# Taxonomy lint: exhaustion/overload/draining sentinels on the data path
# must carry an xerr class (xerr.New), not a bare errors.New — an untyped
# sentinel defeats retry-budget and circuit-breaker classification.
lint-taxonomy:
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' -E 'errors\.New\("[^"]*(full|drain|overload|exhaust|busy)' internal/wal internal/cas internal/middlebox internal/services internal/iscsi 2>/dev/null || true); \
	if [ -n "$$out" ]; then \
		echo "untyped exhaustion/overload sentinels (use xerr.New):"; echo "$$out"; exit 1; \
	fi

# Params lint: policy params are declared, validated and parsed only in
# internal/policy (its params table); everything else reads them through the
# typed MiddleBoxSpec accessors, so a second parse cannot drift from the table.
lint-params:
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' -F '.Params[' . | grep -v '^\./internal/policy/' || true); \
	if [ -n "$$out" ]; then \
		echo "policy params indexed outside internal/policy (use the typed MiddleBoxSpec accessors):"; echo "$$out"; exit 1; \
	fi
