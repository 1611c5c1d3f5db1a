# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet lint fmt-check bench bench-baseline bench-compare cover figures examples clean check fuzz fuzz-smoke faults wal parallel bench-compare-parallel load load-baseline conformance cluster

# The hot-path benchmark set and flags; bench-baseline and bench-compare
# must agree so the committed BENCH_baseline.txt stays comparable. The
# sub-microsecond DominanceCheck set needs far more iterations than the
# millisecond Fig12 workloads to escape warmup noise.
BENCH_FIG_FLAGS = -run='^$$' -bench=Fig12 -benchtime=100x -count=3 -benchmem
BENCH_DOM_FLAGS = -run='^$$' -bench=DominanceCheck -benchtime=5000x -count=3 -benchmem

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs nnclint, the repo's own static-analysis suite: hotpath-alloc,
# scratch-escape, lock-balance, ctx-flow, no-reflect-sort, bench-hygiene,
# wal-order, snapshot-lifecycle, goroutine-lifecycle, error-taxonomy and
# atomic-publish, all from one type-checked pass over the module
# (internal/lint included — the linter lints itself). Zero findings is
# the bar; suppress only with an explained //nnc:allow.
lint:
	$(GO) run ./cmd/nnclint -root .

# fmt-check fails if any file needs gofmt (testdata corpora included).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: formatting + vet + build + nnclint + race tests +
# a one-shot Figure 12 benchmark smoke so the engine's hot path stays
# exercised, plus a short fuzz pass over the on-disk decoders.
check: fmt-check
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/nnclint -root .
	$(GO) test -race ./...
	$(GO) test -run='^$$' -bench=Fig12 -benchtime=1x .
	$(MAKE) fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem .

# bench-baseline refreshes the committed perf baseline; run it on the
# reference machine after an intentional perf change and commit the file.
bench-baseline:
	$(GO) test $(BENCH_FIG_FLAGS) . | tee BENCH_baseline.txt
	$(GO) test $(BENCH_DOM_FLAGS) . | tee -a BENCH_baseline.txt

# bench-compare re-runs the same set and diffs against the committed
# baseline. Informational by default (-gate=0): absolute ns/op is only
# comparable on the reference machine, but allocs/op is portable.
bench-compare:
	$(GO) test $(BENCH_FIG_FLAGS) . > bench_new.txt
	$(GO) test $(BENCH_DOM_FLAGS) . >> bench_new.txt
	$(GO) run ./cmd/benchdiff BENCH_baseline.txt bench_new.txt

# parallel runs the worker sweep with the scaling gate armed: speedup,
# p95 and p99 under load must stay inside the thresholds (the gate
# self-disables on single-proc machines where scaling is unmeasurable).
# The sweep lands in a scratch artifact (the committed BENCH_parallel.json
# is refreshed deliberately via nncbench -parallel -force on the reference
# machine); mutex/block contention profiles land next to it.
parallel:
	$(GO) run ./cmd/nncbench -parallel -scale=small -gate -force -profiledir=. -out=bench_parallel_new.json

# bench-compare-parallel re-records the sweep to a scratch artifact and
# diffs it against the committed BENCH_parallel.json per backend and
# worker count (qps, p95, p99, speedup). Informational by default —
# absolute throughput is machine-bound; pass GATE=-gate=15 to fail on
# >15% regressions when comparing on the same machine.
bench-compare-parallel:
	$(GO) run ./cmd/nncbench -parallel -scale=small -force -out=bench_parallel_new.json
	$(GO) run ./cmd/benchdiff -parallel $(GATE) BENCH_parallel.json bench_parallel_new.json

# load runs the nncload serving-tier smoke with its relative gate armed
# (cached-hot QPS ≥ 3× uncached, bounded p99, zero errors — ratios within
# one run, so the gate holds on any machine), then diffs the fresh
# artifact against the committed BENCH_load.json. The committed artifact
# is refreshed deliberately via `make load-baseline`.
load:
	$(GO) run ./cmd/nncload -scale=small -gate -out=bench_load_new.json
	$(GO) run ./cmd/benchdiff -load $(GATE) BENCH_load.json bench_load_new.json

load-baseline:
	$(GO) run ./cmd/nncload -scale=small -gate -out=BENCH_load.json

# conformance runs the cache-invalidation conformance suite under the
# race detector: random inserts/deletes interleaved with cached queries,
# every served answer byte-equal to a fresh uncached search, on both the
# in-memory and WAL-backed mutable disk backends.
conformance:
	$(GO) test -race -run 'InvalidationConformance|Door|Shield' ./internal/server/front ./internal/core

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

figures:
	$(GO) run ./cmd/nncbench -figure=all -scale=small

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/players
	$(GO) run ./examples/checkins
	$(GO) run ./examples/tradeoff
	$(GO) run ./examples/nncore

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_new.txt bench_parallel_new.json bench_load_new.json bench_cluster_new.json mutex.prof block.prof

verify:
	$(GO) run ./cmd/nncbench -verify -scale=small

fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/dataio
	$(GO) test -fuzz=FuzzOpen -fuzztime=30s ./internal/pager
	$(GO) test -fuzz=FuzzRecordDecode -fuzztime=30s ./internal/diskstore
	$(GO) test -fuzz=FuzzNodeDecode -fuzztime=30s ./internal/diskrtree
	$(GO) test -fuzz=FuzzSuperDecode -fuzztime=30s ./internal/diskindex

# fuzz-smoke is the short decoder pass wired into `make check`: every
# on-disk decoder (object record, rtree node, super page) survives 10s of
# coverage-guided input without panicking or accepting garbage.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzRecordDecode -fuzztime=10s ./internal/diskstore
	$(GO) test -run='^$$' -fuzz=FuzzNodeDecode -fuzztime=10s ./internal/diskrtree
	$(GO) test -run='^$$' -fuzz=FuzzSuperDecode -fuzztime=10s ./internal/diskindex

# wal runs the durability suite under the race detector: WAL unit tests,
# the crash kill-point sweeps (exact pre-or-post transaction recovery at
# every byte offset the log can die at), snapshot-isolated readers under
# a concurrent writer, the mutable/in-memory conformance suite, the
# structural fsck's seeded-corruption detection, and the HTTP mutation
# endpoints.
wal:
	$(GO) test -race -run 'WAL|Crash|Snapshot|Mutable|Mutation|FsckStruct|Recover|Scan|Append|Truncated|Dump|Checkpoint' \
		./internal/wal ./internal/diskindex ./internal/server

# cluster runs the scatter-gather tier under the race detector: the
# merge-invariant property sweep (sharded == single node, byte for byte,
# shard counts 1–8 × every operator and filter configuration), the
# breaker state machine, and the seeded chaos suite (drop/delay/5xx/
# half-response/flap injection, replica kill → failover, shard kill →
# flagged 206 degradation, restore → probe-driven recovery), then the
# nncload failover drill with its qualitative gate armed.
cluster:
	$(GO) test -race ./internal/cluster ./internal/clusterfault
	$(GO) run ./cmd/nncload -cluster -gate -out=bench_cluster_new.json

# faults runs the end-to-end fault-injection suite under the race
# detector: engine degradation, quarantine, retry, fsck, legacy compat.
faults:
	$(GO) test -race -run 'Fault|Faults|Degrad|Partial|Torn|Transient|Quarantine|Legacy|Fsck|Rewrite|Waiter|Panic|Ready|Healthz|Stream|BitFlip|ShortRead|Classify|PageError|Backoff|Sleep' \
		./internal/faults ./internal/faultfile ./internal/pager ./internal/diskindex ./internal/core ./internal/server
