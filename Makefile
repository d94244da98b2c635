GO ?= go

.PHONY: all build test race vet fuzz overload soak churn bench bench-smoke bench-e2e bench-e2e-compare profile-delivery alloc-guard size figures flags callers example-smoke check clean

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
# share through sync.Pool, the session scripts, and the root package's
# durable TCP bridge with its reconnect/drain scenarios). Three concurrency
# primitives run twenty times: the WAL log's one writer goroutine (shared
# fsyncs, staged writes, cuts, the interval deadline, Kill and its exit), the
# same writer seen from the bridge — writing, syncing and checkpointing
# outside the bridge and sink locks — and the bridge's session leases, whose
# resume fencing rests on the bridge's lock.
WAL_TESTS = TestGroupCommitSharesFsync|TestSyncFailureReachesEveryWaiter|TestSyncAfterKill|TestStagedBatchIsOneWrite|TestCutCheckpointsAtItsPlace|TestIntervalSyncsIdleTail|TestKillWritesStagedWithoutWaitingForFsync|TestWriterExitsWithLog
LEASE_TESTS = TestExpiredResumePurgesSession|TestRacingResumesOneWins|TestAttachedSessionHoldsNoLease|TestRestoredLeaseResumesAtRecordedEpoch|TestResumeOfEphemeralSessionDenied
WRITER_TESTS = TestFsyncOutsideBridgeLock|TestSealOutsideBridgeLock|TestJournalRecordsRideTheNextCommit|TestWALWriterExits
race:
	$(GO) test -race ./internal/core/ ./internal/comm/ ./internal/vclock/ ./internal/faults/ ./internal/dms/ ./internal/storage/ ./internal/grid/ ./internal/iso/ ./internal/mesh/ ./internal/vortex/ ./internal/commands/ ./internal/session/ ./internal/wal/ .
	$(GO) test -race -count=20 -run '$(WAL_TESTS)' ./internal/wal/
	$(GO) test -race -count=20 -run '$(WRITER_TESTS)' .
	$(GO) test -race -count=20 -run '$(LEASE_TESTS)' .

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
# verify the recovered stream stays byte-identical to a crash-free run. The
# crash-cut sweep restarts on every record boundary and one torn cut inside
# every record of one durable request's WAL, under fsync always and interval,
# and resumes a client holding what it acknowledged, every logged frame, or
# frames past the log (CRASHCUT_STRIDE=1: every state; plain go test visits
# every sixth).
SOAK_SEEDS ?= 24
RESTART_SEEDS ?= 8
soak:
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -count=1 -v -run 'TestSoakRecovery' ./internal/core/
	$(GO) test -race -count=1 -run 'TestSpan|TestDuplicateRedispatch|TestTagged|TestRedistributeOff|TestWatermark' ./internal/core/
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -count=1 -v -run 'TestReconnectStorm' .
	RESTART_SEEDS=$(RESTART_SEEDS) $(GO) test -race -count=1 -v -run 'TestRestartSoak' .
	CRASHCUT_STRIDE=1 $(GO) test -race -count=1 -v -run 'TestCrashCut' .

# Membership soak under the race detector: CHURN_SEEDS seeded churn
# timelines (mid-request crash with a planned reboot, optional flapper, one
# free spare worker) each checked byte-identical against a fault-free
# reference, plus the targeted rejoin/fencing/rolling-restart suite.
CHURN_SEEDS ?= 16
churn:
	CHURN_SEEDS=$(CHURN_SEEDS) $(GO) test -race -count=1 -v -run 'TestChurnSoak' ./internal/core/
	$(GO) test -race -count=1 -run 'TestRejoin|TestEpochFencing|TestRollingRestart' ./internal/core/

# go vet, and gofmt -l: a file it lists fails the target.
vet:
	$(GO) vet ./...
	@f=$$(gofmt -l .); test -z "$$f" || { echo "gofmt -l lists files that need formatting:"; echo "$$f"; exit 1; }

# Kernel micro-benchmarks (real wall time, not virtual): the extraction,
# mesh, codec, DMS miss and lambda2 hot paths, five runs each to stdout so every
# number comes with its spread. BENCHMARK.json's end-to-end workloads
# (make bench-e2e) are the performance record.
KERNEL_BENCH ?= MarchingTetrahedra|ExtractRangeReuse|MeshWeld|MeshEncodeBinary|MeshDecodeBinary|MeshAppend$$|AssembleStream|ComputeNormals|Lambda2Field|StreamedVortexScan|BlockEncodeDecode|DMSColdStep|SliderSweepScanFull|SliderSweepViewer
bench:
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem -count 5 .

# One-iteration smoke pass over the headline benchmarks: catches a broken or
# wildly regressed hot path in seconds without recording numbers. Part of
# `make check` and of CI.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Lambda2Field|StreamedVortexScan|StreamedFrames|SliderStormMemoN4|AssembleStream|DMSColdStep|ExtractRangeReuse|SliderSweepViewer' -benchtime 1x -count=1 .

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

# The allocation guard CI runs: at most four bytes allocated per byte
# delivered over a 47-partial loopback stream (10.8 before the guard, 4.4
# before received frames reused their connection's buffer), no allocation at
# all when a rank parks on stream credit and an ack releases it, none when a
# held iso extractor moves between blocks of different sizes, and nothing of
# a received frame's payload size in a connection's steady state.
alloc-guard:
	$(GO) test -count=1 -run 'TestDeliveryAllocationGuard|TestFlowParkAllocatesNothing|TestExtractorResetAllocatesNothing|TestConnRecvAllocatesOnlyParams' -v . ./internal/core/ ./internal/iso/ ./internal/comm/

# Short fuzz pass over every decoder and parser that takes bytes from outside:
# the message codec (plain frames and fault-plan-mutated frames, both also
# with their checksum made good so mutations reach the parser; and the
# message batches of WAL checkpoints, mutated with every sub-record's
# checksum made good too), the frame (checksum made good too) and
# parameter parsers, the memo-key float
# canonicalizer, the mesh wire decoder every client runs on its socket, the
# stored-block parser (each input's CRC-32C re-sealed, so mutations get past
# the checksum), the WAL frame parser (torn/corrupt tails must truncate, never
# crash or mis-parse) and the WAL checkpoint reader (malformed disk input is
# rejected or absorbed, never a panic), and the server's
# -fault rule parser (no panic, no NaN probability, negative duration or
# out-of-range count accepted, no allocation sized by a rule's numbers), and
# the admission parser every decoded command goes through (no panic, one
# memo key for equal number spellings), and the
# client's session-script parser (no panic; an accepted script has steps,
# each with a command and no negative think time). The message, block
# and checkpoint targets cap the minimizer, whose default minute per new input
# would leave a short pass no time to execute. FUZZTIME is each target's run
# time.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzDecode$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzDecodeMutated -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzDecodeBatchMutated -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzCanonicalFloat -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzFrameIsEncode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/comm/ -run=^$$ -fuzz=FuzzParamParsing -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mesh/ -run=^$$ -fuzz=FuzzDecodeBinary -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/storage/ -run=^$$ -fuzz=FuzzDecodeBlock -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/wal/ -run=^$$ -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME)
	$(GO) test . -run=^$$ -fuzz=FuzzCheckpointLoad -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/faults/ -run=^$$ -fuzz=FuzzParseRule -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run=^$$ -fuzz=FuzzParseRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/session/ -run=^$$ -fuzz=FuzzSessionDecode -fuzztime=$(FUZZTIME)

# Code size as simplicity PRs report it, before and after: non-test Go lines
# outside benchmark/ (tracked files), the server's flag definitions, the
# declared fields (names, not lines) of the config structs a library caller
# can set and of the one price list, and the non-test lines outside
# internal/comm that index a message's Params by a literal key or parse one
# of its parameters with IntParam.
SIZE_STRUCTS = viracocha.go:viracocha.Options internal/core/runtime.go:core.Config \
	internal/core/runtime.go:core.FTConfig internal/core/overload.go:core.OverloadConfig \
	internal/dms/server.go:dms.Config internal/core/cost.go:core.Model
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
	@n=$$(git grep -c 'IntParam(' -- '*.go' ':!*_test.go' ':!internal/comm' | awk -F: '{ n += $$2 } END { print n + 0 }'); \
		echo "IntParam( lines outside internal/comm: $$n"

# The virtual figures, checked by the machine: regenerate every table of the
# paper's evaluation at scale 2 on one P (about half a minute) and diff each
# committed results/*.tsv against it. fig14.tsv and ablation-prefetch.tsv are
# left out: each holds a cell that same-instant ties of the virtual clock
# decide differently from run to run (ROADMAP item 1). Drop the exclusion when
# item 1's baton lands.
FIGURES_SKIP = fig14.tsv ablation-prefetch.tsv
figures:
	@d=$$(mktemp -d); \
	GOMAXPROCS=1 $(GO) run ./cmd/viracocha-bench -scale 2 -dat $$d >/dev/null || { rm -rf $$d; exit 1; }; \
	s=0; for f in results/*.tsv; do \
		n=$${f#results/}; \
		case " $(FIGURES_SKIP) " in *" $$n "*) continue;; esac; \
		diff -u $$f $$d/$$n || s=1; \
	done; \
	rm -rf $$d; test $$s = 0 || { echo "results/ differs from a fresh run: the virtual figures moved"; exit 1; }

# The server's flag definitions, README's flag table and every server command
# line in README.md and the verify skill name the same flags.
flags:
	@sh scripts/checkflags.sh

# Reachable or gone: the type-checked census in scripts/callers walks the call
# graph from every main, init and package-level initialiser of both modules;
# a func or method outside benchmark/ it does not reach fails the target,
# unless its exempt list names it with a reason. So does a registered command
# that no non-test Go outside internal/commands sends.
callers:
	$(GO) test -count=1 ./scripts/callers/

# The surviving TCP example is the smoke test of the served path: in-process
# server with the server's settings, a streamed view-dependent isosurface, a
# frame per packet. It writes its PPM frames into a scratch directory.
example-smoke:
	@d=$$(mktemp -d) && $(GO) build -o $$d/streamingiso ./examples/streamingiso && (cd $$d && ./streamingiso); s=$$?; rm -rf $$d; exit $$s

check: vet flags callers build test figures race churn bench-smoke example-smoke

clean:
	$(GO) clean ./...
