# Convenience targets for the BCL reproduction. Everything is plain
# `go` underneath; nothing here is required.

GO ?= go

# Fault/traffic-schedule seed of the seeded experiments (chaos,
# survival, collectives, healthwatch, serve, reqobs): `make chaos SEED=7`.
SEED ?= 1

.PHONY: all test race short fuzz bench hostbench experiments chaos survival collectives metrics profile multitenant healthwatch serve reqobs baseline check hostcheck examples tools clean

all: test

test:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . is not empty:"; gofmt -l .; exit 1; }
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

# Native fuzzing: each of the seventeen fuzz targets searches for 5 s,
# about 160 s in all (`go test` runs only their seed corpora). A failing
# input is saved under the package's testdata/fuzz and replays with
# `go test`. CI runs the same.
fuzz:
	@for t in sim:FuzzEventQueue sim:FuzzQueue sim:FuzzRing sim:FuzzFreeList mem:FuzzAddrSpaceCopy \
		mem:FuzzPinTable oskernel:FuzzShadow nic/gbn:FuzzDoneRing nic/gbn:FuzzGoBackN trace:FuzzCappedTracer \
		obs:FuzzSnapshot obs:FuzzHistBuckets obs/health:FuzzDecodeBundle bench:FuzzDiff svc:FuzzReader svc/txn:FuzzTwoPC fabric:FuzzScheduleMatchesInjectors; do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime 5s ./internal/$${t%%:*} || exit 1; \
	done

# Every benchmark in the repository, once each: the paper reports in the
# root package and the microbenchmarks under internal/ (the sim kernel's
# are what an event-queue change is judged by). One iteration shows that
# each still runs, not how fast; CI does the same.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./...

# Host-time benchmark (benchmark/README.md): how fast the simulator
# itself runs, five workloads, every op verified.
hostbench:
	$(GO) run ./benchmark

# Regenerate every table and figure of the paper (EXPERIMENTS.md's
# "Full output" section is this, captured).
experiments:
	$(GO) run ./cmd/bclbench all

# Deterministic chaos soak: seeded outage schedule over a dual-rail
# cluster. Override the schedule with SEED=<n>.
chaos:
	$(GO) run ./cmd/bclbench -seed $(SEED) chaos

# Survivable-NIC gauntlet: firmware crashes healed by the kernel
# watchdog (journal replay + epoch resync, exactly-once delivery),
# random bit corruption caught by the per-fragment CRC, and a gray
# slow-rail window where the adaptive RTO must beat fixed backoff on
# the P99.9 tail. Override the crash schedule with SEED=<n>; the crash
# flow trace shows one message crossing a firmware reboot.
survival:
	$(GO) run ./cmd/bclbench -seed $(SEED) survival
	$(GO) run ./cmd/bcltrace -crash

# NIC-offloaded collectives: host vs offload latency/trap table at
# 2-64 ranks, the seeded fault soak, and the causal flow trace of one
# offloaded broadcast + barrier.
collectives:
	$(GO) run ./cmd/bclbench -seed $(SEED) collectives
	$(GO) run ./cmd/bcltrace -coll

# Metrics registry showcase: the metered ping-pong (registry snapshot
# in Prometheus text + JSON) and the causal flow trace of one message
# under a forced packet drop.
metrics:
	$(GO) run ./cmd/bclbench -metrics pingpong
	$(GO) run ./cmd/bcltrace -flow

# Virtual-time profiler: attribution table for one 8-byte eager send
# (exclusive per-(node, layer, phase) times, per-CPU busy/idle, host
# overlap) plus the LogP/LogGP parameters fitted from profiler spans.
profile:
	$(GO) run ./cmd/bcltrace -prof
	$(GO) run ./cmd/bclbench logp

# Multi-tenant cluster: the gang scheduler admits a latency-sensitive
# pingpong job next to a bandwidth hog, the kernel's endpoint ownership
# checks reject cross-tenant buffer/ring access, and weighted
# round-robin send arbitration bounds the pingpong tail.
multitenant:
	$(GO) run ./cmd/bclbench multitenant

# Cluster health engine: the healthwatch gauntlet (clean phase must
# fire zero alerts; the fault phase must fire crc-spike, watchdog-trip
# and rail-divergence), the bcltop replay of the fault phase, and the
# pretty-printed postmortem bundle of its first alert. Override the
# fault schedule with SEED=<n>.
healthwatch:
	$(GO) run ./cmd/bclbench -seed $(SEED) healthwatch
	$(GO) run ./cmd/bclbench -seed $(SEED) -watch
	$(GO) run ./cmd/bcltrace -health

# Service tier: the sharded RPC/KV store with sessions, client caches
# and presumed-abort 2PC under an open-loop swarm of simulated users —
# baseline throughput/tail, QoS-vs-FIFO under a stream hog, and the
# seeded chaos phase (duplicates + link outage + firmware crash), plus
# the causal flow trace of one cross-shard transaction. Override the
# fault schedule with SEED=<n>.
serve:
	$(GO) run ./cmd/bclbench -seed $(SEED) serve
	$(GO) run ./cmd/bcltrace -rpc

# Request-level observability: the reqobs gauntlet (tail-sampled
# request traces with forced retention of aborts/retransmits/SLO
# violations, histogram exemplars in the OpenMetrics dump, space-saving
# heavy-hitter sketches driving the hot-shard-divergence rule, and the
# deterministic slow-request log), the bcltop replay of the hot-key
# phase, and the ranked slow-request log of the chaos phase. Override
# the fault schedule with SEED=<n>.
reqobs:
	$(GO) run ./cmd/bclbench -seed $(SEED) reqobs
	$(GO) run ./cmd/bclbench -seed $(SEED) -watch reqobs
	$(GO) run ./cmd/bcltrace -slow -seed $(SEED)

# Continuous benchmark gate. `make baseline` (re)writes
# baselines/BENCH_*.json from a fresh run of the gated experiments;
# `make check` reruns them at seed 1 and requires every fresh artifact
# to equal its committed baseline byte for byte and every verdict to
# pass. Each artifact carries two oracles: the events its experiment
# executed and their fingerprint (events, event_fp: how the host
# scheduled the model), and model_fp (what the model did: its packets,
# completions and final counters). Each gate prints `check <gate> PASS
# (byte-identical)` or `FAIL: model moved` / `FAIL: model untouched
# (only events, event_fp moved)`, followed by one `path: baseline ->
# fresh` line per JSON leaf that moved and one `verdict <name>: fail`
# line per failing verdict; all twelve passing prints "baselines
# reproduce byte for byte". Then the sweep: the six seeded experiments
# at seeds 2..32 must fail exactly the lines of baselines/KNOWN_RED.txt,
# each red line printed once ("sweep: seeds 2..32 fail exactly the N
# lines of …"; an unlisted red line or a listed one that no longer fails
# is a FAIL). About 30 s. Then it runs `make hostcheck`. CI runs all of
# it on every push.
baseline:
	$(GO) run ./cmd/bclbench -baseline

check:
	$(GO) run ./cmd/bclbench -check
	@$(MAKE) --no-print-directory hostcheck

# The host half of `make check`; CI runs it as is. Each host-benchmark
# workload runs for a moment and must verify every op; the model line it
# prints first (ops, events, model digest: deterministic per seed and
# size) must match baselines/HOSTBENCH_model.txt, the event order on
# five workloads the baselines do not reach (a change that removes
# events on purpose regenerates it with the same loop, and says so).
# Budgets, from the same runs (objects and bytes per op repeat exactly;
# CHANGES.md keeps their history): eager_pingpong at most 1 object per
# op and mpi_halo70 at most 300; svc_openloop at most 0.48 objects and
# 310 bytes per request and svc_observed at most 1.1 objects, so that a
# 2PC or reply-cache core that allocates per request fails; svc_observed
# at --seconds 6, long enough for the 64-deep sample ring to wrap, at
# most 530 bytes per request; mpi_halo70's peak RSS at --seconds 8
# within 1.5x of --seconds 2's, and at most 45 MB.
hostcheck:
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	for w in $$(cut -d' ' -f1 baselines/HOSTBENCH_model.txt); do \
		$(GO) run ./benchmark --workload $$w --seed 1 --seconds 2 --trace 0 > "$$out/host_$$w.txt" || exit 1; \
		tail -n 1 "$$out/host_$$w.txt" | grep '"correct":true' | grep -q '"failed":0' || \
			{ echo "$$w: an op failed verification" >&2; tail -n 1 "$$out/host_$$w.txt" >&2; exit 1; }; \
		sed -n 1p "$$out/host_$$w.txt"; \
	done | diff baselines/HOSTBENCH_model.txt - && echo "host benchmark model lines reproduce" && \
	allocs() { sed -n '$$s/.*"allocs_per_op":{"value":\([0-9.e+-]*\).*/\1/p' "$$out/host_$$1.txt"; } && \
	bytes() { sed -n '$$s/.*"alloc_bytes_per_op":{"value":\([0-9.e+-]*\).*/\1/p' "$$1"; } && \
	eager=$$(allocs eager_pingpong) && halo=$$(allocs mpi_halo70) && \
	echo "allocations per op: eager_pingpong $$eager (budget 1), mpi_halo70 $$halo (budget 300)" && \
	if awk -v e="$$eager" -v h="$$halo" 'BEGIN { exit !(e != "" && h != "" && e <= 1 && h <= 300) }'; \
	then echo "a message makes no garbage"; else echo "a message makes garbage again"; exit 1; fi && \
	svc=$$(allocs svc_openloop) && observed=$$(allocs svc_observed) && \
	echo "allocations per request: svc_openloop $$svc (budget 0.48), svc_observed $$observed (budget 1.1)" && \
	if awk -v s="$$svc" -v o="$$observed" 'BEGIN { exit !(s != "" && o != "" && s <= 0.48 && o <= 1.1) }'; \
	then echo "a request makes no garbage"; else echo "a request makes garbage again"; exit 1; fi && \
	openb=$$(bytes "$$out/host_svc_openloop.txt") && \
	echo "allocated bytes per request: svc_openloop $$openb (budget 310)" && \
	if awk -v b="$$openb" 'BEGIN { exit !(b != "" && b <= 310) }'; \
	then echo "the service tables grow in packed slots"; else echo "the service tables grow in padded slots again"; exit 1; fi && \
	$(GO) run ./benchmark --workload svc_observed --seed 1 --seconds 6 --trace 0 > "$$out/observed6.txt" && \
	{ tail -n 1 "$$out/observed6.txt" | grep '"correct":true' | grep -q '"failed":0' || \
		{ echo "svc_observed at --seconds 6: an op failed verification" >&2; tail -n 1 "$$out/observed6.txt" >&2; exit 1; }; } && \
	obsb=$$(bytes "$$out/observed6.txt") && \
	echo "allocated bytes per request: svc_observed $$obsb at --seconds 6 (budget 530)" && \
	if awk -v b="$$obsb" 'BEGIN { exit !(b != "" && b <= 530) }'; \
	then echo "the sampler refills what it evicts"; else echo "the sampler makes garbage again"; exit 1; fi && \
	rss() { $(GO) run ./benchmark --workload mpi_halo70 --seed 1 --seconds $$1 --trace 0 | \
		sed -n '$$s/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/p'; } && \
	short=$$(rss 2) && long=$$(rss 8) && \
	echo "mpi_halo70 peak RSS: $$short MB at --seconds 2, $$long MB at --seconds 8 (budget 45)" && \
	if awk -v s="$$short" -v l="$$long" 'BEGIN { exit !(s > 0 && l <= 1.5 * s) }'; \
	then echo "peak RSS is flat in work done"; else echo "peak RSS grows with work done"; exit 1; fi && \
	if awk -v l="$$long" 'BEGIN { exit !(l > 0 && l <= 45) }'; \
	then echo "a simulated frame stores the half it uses"; else echo "simulated frames store whole pages again"; exit 1; fi

# Every example, run and checked: each panics on a wrong result, and its
# stdout (virtual times, deterministic) must equal the committed
# examples/<name>/stdout.golden byte for byte. A change that moves an
# example's output on purpose rewrites that file and says so. CI runs
# the same.
examples:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	for e in quickstart stencil masterworker rma; do \
		$(GO) run ./examples/$$e > "$$out" || { echo "examples/$$e failed" >&2; exit 1; }; \
		diff examples/$$e/stdout.golden "$$out" || { echo "examples/$$e: stdout differs from stdout.golden" >&2; exit 1; }; \
		echo "examples/$$e: stdout matches stdout.golden"; \
	done

tools:
	$(GO) run ./cmd/bcltrace

clean:
	$(GO) clean ./...
