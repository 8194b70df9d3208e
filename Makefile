# Pre-commit gate: `make check` runs the format/vet/build gate, the `cross`
# step (vet and build for GOARCH=arm64, so the portable fallback of every
# amd64 assembly file keeps compiling), the race-enabled tests of the packages with the hottest concurrency
# (iscsi, obs, middlebox, netsim, bufpool, the durable WAL, the
# scale-out control plane — sdn, splice, vswitch, core, cloud,
# orchestrator — the content-addressed replication stack: cas,
# objstore, scrub, services/replicate — the per-byte path every workload
# shares: blockdev, services/crypt — volume, which picks the target's
# execution mode, and the monitor chain: extfs, semantic, services/monitor),
# the allocs/op regression gates for the zero-copy chain hot path, one iSCSI
# leg at 4 KiB and 64 KiB, the flow lookup, the cipher, a histogram
# observation, a journal append and commit, a WAL segment rotation, the
# monitor's per-access path, a directory lookup, a write-back admit and
# apply, a goroutine-executed target command, a CAS read and verify, a clean
# scrub pass and a replicate box's quorum write, a few seconds of fuzzing per trust-boundary parser and of the cipher kernel
# (`make fuzz-short`), and the smoke sizes of the soak, backup and overload
# suites (`stormbench -short soak`, `-short backup`, `-short overload`).
# `make test` is the full suite; `make check-stable` repeats it 20 times on
# one P and 20 times on two to hunt flakes (not part of `make check`). `make bench` prints the data-plane microbenchmarks with
# allocation stats. `make soak` runs the stormbench suite `soak`, the
# sustained multi-tenant churn soak at full scale (500 tenants). `make backup`
# runs the suite `backup`, content-addressed replication (dedup ratio, fan-out
# throughput, scrub repair after corruption). `make overload` runs the suite
# `overload`, resource exhaustion (WAL/CAS full typed refusal, brownout breaker
# trip/recover, bounded memory). Each adds a dated entry to BENCH_results.json
# and exits non-zero on any failed gate.
# `make lint-taxonomy` greps the data-path services for raw fmt.Errorf at
# exhaustion sites that should carry an xerr class.
# `make lint-params` fails when non-test Go outside internal/policy indexes a
# spec's policy Params map instead of using its typed accessors.
# `make lint-reach` fails when a non-test function is linked by none of the
# programs (cmd/*, bench, examples/*) and is not on scripts/lintreach/allow.txt,
# or when an exported Config/Options field is set by no non-test code and is not
# on scripts/lintreach/options.txt, or when an entry on either list is linked or
# set now, or gone (~4 s with a warm build cache).
# `make bench-ab W=<workload> [BASE=<ref>] [PAIRS=10]` measures the working
# tree against BASE with the repository benchmark (`go run ./bench`) in
# alternating pairs and prints `bench compare` plus wins per pair.

GO ?= go
RACE_PKGS := ./internal/iscsi ./internal/obs ./internal/middlebox ./internal/netsim ./internal/bufpool ./internal/initiator ./internal/target ./internal/services/replica ./internal/faults ./internal/wal ./internal/sdn ./internal/splice ./internal/vswitch ./internal/core ./internal/cloud ./internal/orchestrator ./internal/workload ./internal/cas ./internal/objstore ./internal/scrub ./internal/services/replicate ./internal/xerr ./internal/testutil ./internal/blockdev ./internal/services/crypt ./internal/volume ./internal/extfs ./internal/semantic ./internal/services/monitor
BENCH_PKGS := ./internal/iscsi ./internal/middlebox ./internal/bufpool ./internal/blockdev ./internal/services/crypt ./internal/volume

.PHONY: check check-stable fmt vet build cross test race bench bench-ab allocs fuzz-short soak soak-short backup backup-short overload overload-short lint-taxonomy lint-params lint-reach

check: fmt vet build cross lint-taxonomy lint-params lint-reach race allocs fuzz-short soak-short backup-short overload-short

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The non-amd64 build: services/crypt's AES-CTR kernel is amd64 assembly, and
# this keeps the crypto/cipher path that replaces it elsewhere compiling.
cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Allocation regression gates (skipped under -race, which instruments
# allocations): the zero-copy chain hot path, one unmodelled iSCSI leg (4 KiB
# and 64 KiB), the lock-free flow lookup, the per-request (not per-sector)
# cipher and one Transform (0 on the VAES kernel, the CTR stream on the
# crypto/cipher fallback), the bucketed histogram's Observe, a WAL
# record's Append and Commit, a WAL segment rotation, a relay journal record's Append and Complete
# (in memory and WAL-backed), the monitor's data-block access and one-entry
# directory change, a directory lookup, a write-back admit and apply, a
# target command run on its own goroutine, a CAS read and verify, a clean
# scrub pass, and a 4 KiB quorum write through a healthy replicate box.
allocs:
	$(GO) test -run 'TestChainWrite4KAllocBudget|TestLeg4KAllocBudget|TestLeg64KAllocBudget|TestLookupAllocFree|TestDevice64KAllocBudget|TestTransformAllocBudget|TestHistogramObserveAllocFree|TestAppendCommitAllocFree|TestRotationAllocBudget|TestDataAccessAllocFree|TestDirEntryChangeAllocBudget|TestLookupAllocsOnlyBlockReads|TestWriteBackAdmitApplyAllocBudget|TestJournalAppendCompleteAllocBudget|TestGoroutineCommandAllocBudget|TestReadPathAllocFree|TestCleanPassAllocFree|TestBoxWriteAllocBudget' -count=1 -v ./internal/volume ./internal/vswitch ./internal/services/crypt ./internal/obs ./internal/wal ./internal/semantic ./internal/extfs ./internal/middlebox ./internal/target ./internal/cas ./internal/scrub ./internal/services/replicate | grep -E 'allocs|FAIL|ok '

# A few seconds of native fuzzing per parser of tenant-written bytes (policy
# JSON among them), of the log files a crash leaves for wal.Open, and of the
# AES-CTR kernel against crypto/cipher, from the corpora under each
# package's testdata/fuzz. Minimization is capped so a new input cannot spend
# the budget shrinking itself.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzWalkDirBlock$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/extfs
	$(GO) test -run '^$$' -fuzz '^FuzzReconstructorMetadata$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/semantic
	$(GO) test -run '^$$' -fuzz '^FuzzPDUReader$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/iscsi
	$(GO) test -run '^$$' -fuzz '^FuzzLoginPairs$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/iscsi
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCDB$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/scsi
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSense$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/scsi
	$(GO) test -run '^$$' -fuzz '^FuzzOpenBlockBackend$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzWALOpen$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/policy
	$(GO) test -run '^$$' -fuzz '^FuzzTransform$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/services/crypt

test:
	$(GO) test ./...

# Flake hunt, kept out of `make check` for its length: the full suite 20 times
# at GOMAXPROCS=1, then 20 times at GOMAXPROCS=2, stopping at the first
# failing run.
check-stable:
	@for procs in 1 2; do \
		for i in $$(seq 1 20); do \
			echo "check-stable: GOMAXPROCS=$$procs run $$i/20"; \
			GOMAXPROCS=$$procs $(GO) test -count=1 ./... || exit 1; \
		done; \
	done; \
	echo "check-stable: 40 runs passed"

bench:
	$(GO) test -run '^$$' -bench 'PDU|Encode|Writeback|Chain|Leg4K|Leg64K|GetRelease|Transform|MemDiskRW' -benchmem $(BENCH_PKGS)

# Paired A/B of one benchmark workload, BASE against the working tree; see
# scripts/bench-ab.sh.
BASE ?= HEAD
PAIRS ?= 10
bench-ab:
	scripts/bench-ab.sh $(W) $(BASE) $(PAIRS)

# Full-scale sustained soak: 500 tenants with deploy/teardown churn,
# p99/alloc/lock-wait telemetry, dated entry in BENCH_results.json.
soak:
	$(GO) run ./cmd/stormbench soak

# Short soak smoke for the pre-commit gate: small tenant count, short
# measured window, results not recorded.
soak-short:
	$(GO) run ./cmd/stormbench -short soak

# Full backup suite: multi-round delta workload through the replication
# box, dedup/convergence/scrub-repair gates, dated entry in
# BENCH_results.json.
backup:
	$(GO) run ./cmd/stormbench backup

# Short backup smoke for the pre-commit gate: small image, results not
# recorded.
backup-short:
	$(GO) run ./cmd/stormbench -short backup

# Full overload suite: WAL-full and CAS-full typed refusal and recovery,
# 1-slow-of-3 brownout with breaker trip/recover, bounded heap growth;
# dated entry in BENCH_results.json, non-zero exit on any failed gate.
overload:
	$(GO) run ./cmd/stormbench overload

# Short overload smoke for the pre-commit gate: fewer brownout writes,
# results not recorded.
overload-short:
	$(GO) run ./cmd/stormbench -short overload

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

# Reach lint: builds every program without inlining, reads its symbols with
# `go tool nm`, and fails on a non-test function none of them links unless
# scripts/lintreach/allow.txt lists it with a reason. It also type-checks the
# module and fails on an exported field of a Config/*Config/Options struct that
# no non-test code sets unless scripts/lintreach/options.txt lists it. An entry
# that is linked or set, or no longer declared, fails too, so the lists only
# shrink.
lint-reach:
	$(GO) run ./scripts/lintreach
