GO ?= go

.PHONY: all build test race vet fuzz overload soak churn bench bench-smoke bench-e2e bench-e2e-compare profile-delivery alloc-guard size flags callers example-smoke check clean

all: check

build:
	$(GO) build ./...

# The nested benchmark/ module compiles against internal/comm, internal/wal
# and the root API, but the root module's ./... does not descend into it.
test:
	$(GO) test ./...
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Race-check the concurrency-heavy packages: the actor runtime, the fabric
# and the virtual clock (plus the fault machinery, the DMS caches, the
# storage device, the pooled kernel scratch in iso/mesh/vortex that workers
# share through sync.Pool, the session-lease registry, and the root package's
# durable TCP bridge with its reconnect/drain scenarios). The WAL's group
# commit is a concurrency primitive of its own: its tests run twenty times.
race:
	$(GO) test -race ./internal/core/ ./internal/comm/ ./internal/vclock/ ./internal/faults/ ./internal/dms/ ./internal/storage/ ./internal/grid/ ./internal/iso/ ./internal/mesh/ ./internal/vortex/ ./internal/commands/ ./internal/session/ ./internal/wal/ .
	$(GO) test -race -count=20 -run 'TestGroupCommit' ./internal/wal/

# The seeded overload-resilience suite under the race detector: admission
# control, session quotas, stream backpressure, slow-consumer culling, the
# DMS memory budget and the pending-queue ring.
overload:
	$(GO) test -race -count=1 -run 'Overload|Admission|Quota|SlowConsumer|StreamWindow|MemBudget|Budget|MsgRing|Evict|Shed|Corrupt|Memo' ./internal/core/ ./internal/dms/ ./internal/storage/ ./internal/faults/

# Randomized fault-scenario soak: SOAK_SEEDS crash timelines (varying
# command, group size, victim rank and crash time) each checked for result
# equivalence against its fault-free reference, plus the targeted recovery
# and tagged-stream suites under the race detector. RESTART_SEEDS
# hard-kill-restart timelines (varying kill point and WAL fsync policy) each
# verify the recovered stream stays byte-identical to a crash-free run.
SOAK_SEEDS ?= 24
RESTART_SEEDS ?= 8
soak:
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -count=1 -v -run 'TestSoakRecovery' ./internal/core/
	$(GO) test -race -count=1 -run 'TestSpan|TestDuplicateRedispatch|TestTagged|TestRedistributeOff|TestWatermark' ./internal/core/
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -count=1 -v -run 'TestReconnectStorm' .
	RESTART_SEEDS=$(RESTART_SEEDS) $(GO) test -race -count=1 -v -run 'TestRestartSoak' .

# Membership soak under the race detector: CHURN_SEEDS seeded churn
# timelines (mid-request crash with a planned reboot, optional flapper, one
# free spare worker) each checked byte-identical against a fault-free
# reference, plus the targeted rejoin/fencing/rolling-restart suite.
CHURN_SEEDS ?= 16
churn:
	CHURN_SEEDS=$(CHURN_SEEDS) $(GO) test -race -count=1 -v -run 'TestChurnSoak' ./internal/core/
	$(GO) test -race -count=1 -run 'TestRejoin|TestEpochFencing|TestRollingRestart' ./internal/core/

vet:
	$(GO) vet ./...

# Kernel micro-benchmarks (real wall time, not virtual): the extraction,
# mesh, codec and lambda2 hot paths, five runs each to stdout so every
# number comes with its spread. BENCHMARK.json's end-to-end workloads
# (make bench-e2e) are the performance record.
KERNEL_BENCH ?= MarchingTetrahedra|ExtractRangeReuse|MeshWeld|MeshEncodeBinary|MeshAppend$$|ComputeNormals|Lambda2Field|BlockEncodeDecode|SliderSweepScan|SliderSweepBuild
bench:
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem -count 5 .

# One-iteration smoke pass over the headline benchmarks: catches a broken or
# wildly regressed hot path in seconds without recording numbers. Part of
# `make check`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Lambda2Field|StreamedFrames|SliderStormMemoN4' -benchtime 1x -count=1 .

# Real-clock end-to-end benchmark over loopback TCP (benchmark/README.md): all
# four workloads, appended as one report to benchmark/out/$(E2E_OUT).json.
E2E_OUT ?= run
bench-e2e:
	$(GO) run -C benchmark . -out out/$(E2E_OUT).json

# Judge report B against report A by the bounds in BENCHMARK.json:
#   make bench-e2e-compare A=benchmark/out/a.json B=benchmark/out/b.json
bench-e2e-compare:
	@test -n "$(A)" && test -n "$(B)" || { echo "usage: make bench-e2e-compare A=a.json B=b.json"; exit 1; }
	$(GO) run -C benchmark . -compare $(abspath $(A)) $(abspath $(B))

# Where the delivery path allocates (ROADMAP item 3a): the three loopback
# delivery benchmarks of delivery_test.go — an iso_slider_warm request, the
# same request in journal mode and a shared_view_memo hit, real clock, TCP —
# under a 4 KiB-sampled memory profile,
# printed as the top 20 sites by bytes and by objects. The binary and profiles
# stay in PROFILE_DIR. results/delivery-alloc-top20.txt is this target's output
# on the parent commit and on the change, one after the other.
PROFILE_DIR ?= /tmp/viracocha-profile
profile-delivery:
	@mkdir -p $(PROFILE_DIR)
	@for b in Iso IsoJournal MemoHit; do \
		$(GO) test -run '^$$' -bench "DeliveryLoopback$$b$$" -benchtime 300x -benchmem -memprofilerate 4096 \
			-memprofile $(PROFILE_DIR)/$$b.mem -o $(PROFILE_DIR)/viracocha.test . | grep '^Benchmark' || exit 1; \
		for index in alloc_space alloc_objects; do \
			$(GO) tool pprof -sample_index=$$index -top -nodecount=20 $(PROFILE_DIR)/viracocha.test $(PROFILE_DIR)/$$b.mem 2>/dev/null \
				| grep -v '^\(File\|Time\|Build ID\):' || exit 1; \
		done; \
	done

# The allocation guard CI runs: at most six bytes allocated per byte delivered
# over a 47-partial loopback stream (the parent commit of the guard took 10.8),
# no allocation at all when a rank parks on stream credit and an ack
# releases it, and none when a held iso extractor moves between blocks of
# different sizes.
alloc-guard:
	$(GO) test -count=1 -run 'TestDeliveryAllocationGuard|TestFlowParkAllocatesNothing|TestExtractorResetAllocatesNothing' -v . ./internal/core/ ./internal/iso/

# Short fuzz pass over the message codec (incl. fault-plan-mutated frames
# and the message batches of WAL checkpoints), the memo-key float canonicalizer, the WAL
# frame parser (torn/corrupt tails must truncate, never crash or mis-parse)
# and the WAL checkpoint reader (malformed disk input is rejected or absorbed,
# never a panic; the minimizer is capped so the short pass spends its time
# executing).
fuzz:
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzDecodeMutated -fuzztime=10s
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzDecodeBatchMutated -fuzztime=10s
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzCanonicalFloat -fuzztime=10s
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzFrameIsEncode -fuzztime=10s
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzParamParsing -fuzztime=10s
	$(GO) test ./internal/wal/ -run=^$$ -fuzz=FuzzWALReplay -fuzztime=10s
	$(GO) test . -run=^$$ -fuzz=FuzzCheckpointLoad -fuzztime=10s -fuzzminimizetime=1s

# Code size as simplicity PRs report it, before and after: non-test Go lines
# outside benchmark/ (tracked files), the server's flag definitions, the
# declared fields (names, not lines) of the config structs a library caller
# can set, and the non-test lines outside internal/comm that index a
# message's Params by a literal key.
SIZE_STRUCTS = viracocha.go:viracocha.Options internal/core/runtime.go:core.Config \
	internal/core/runtime.go:core.FTConfig internal/core/overload.go:core.OverloadConfig
size:
	@echo "non-test Go lines: $$(git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l)"
	@echo "server flags: $$(grep -cE 'flag\.(Bool|Int|Int64|Float64|String|Duration|Var)\(' cmd/viracocha-server/main.go)"
	@for s in $(SIZE_STRUCTS); do \
		f=$${s%%:*}; t=$${s#*:}; \
		echo "$$t fields: $$(awk -v t="$${t#*.}" ' \
			$$0 ~ "^type " t " struct" { body = 1; next } \
			body && /^}/ { body = 0 } \
			body { sub(/\/\/.*/, ""); if (NF) n++; for (i = 1; i < NF && $$i ~ /,$$/; i++) n++ } \
			END { print n + 0 }' $$f)"; \
	done
	@n=$$(git grep -c 'Params\["' -- '*.go' ':!*_test.go' ':!internal/comm' | awk -F: '{ n += $$2 } END { print n + 0 }'); \
		echo "Params[\"...\"] lines outside internal/comm: $$n"

# The server's flag definitions, README's flag table and every server command
# line in README.md and the verify skill name the same flags.
flags:
	@sh scripts/checkflags.sh

# Everything left has a caller: no func or method outside benchmark/ is named
# only by its own definition (and so reached by its own unit tests at most),
# except the names scripts/callers.sh exempts with a reason each.
callers:
	@sh scripts/callers.sh

# The surviving TCP example is the smoke test of the served path: in-process
# server with the server's settings, a streamed view-dependent isosurface, a
# frame per packet. It writes its PPM frames into a scratch directory.
example-smoke:
	@d=$$(mktemp -d) && $(GO) build -o $$d/streamingiso ./examples/streamingiso && (cd $$d && ./streamingiso); s=$$?; rm -rf $$d; exit $$s

check: vet flags callers build test race churn bench-smoke example-smoke

clean:
	$(GO) clean ./...
