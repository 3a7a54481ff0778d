# Convenience targets for the BCL reproduction. Everything is plain
# `go` underneath; nothing here is required.

GO ?= go

# Fault/traffic-schedule seed of the seeded experiments (chaos,
# survival, collectives, healthwatch, serve, reqobs): `make chaos SEED=7`.
SEED ?= 1

.PHONY: all test race short fuzz bench hostbench experiments chaos survival collectives metrics profile multitenant healthwatch serve reqobs baseline check tools clean

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
# is a FAIL). About 30 s; CI runs it on every push. What the commands
# print, the host benchmark's model lines and its allocation and RSS
# budgets are held by `go test .` (TestOutputs in outputs_test.go).
baseline:
	$(GO) run ./cmd/bclbench -baseline

check:
	$(GO) run ./cmd/bclbench -check

tools:
	$(GO) run ./cmd/bcltrace

clean:
	$(GO) clean ./...
