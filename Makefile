# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet lint fmt-check loc bench cover figures examples clean check verify fuzz fuzz-smoke faults wal conformance cluster

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

# loc prints the size ROADMAP's "halve the structural code" acceptance is
# stated in: lines of non-test .go files, nnclint's golden corpora
# (internal/lint/testdata) excluded — per package directory, then in total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './internal/lint/testdata/*' -exec wc -l {} + \
	| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate — the steps of the CI lint and check jobs plus the
# fuzz smoke, one list: formatting + vet + build + nnclint + race tests + a
# one-shot Figure 12, disk-cold and commit benchmark smoke so the engine's
# hot path stays exercised in memory, against a page file and through the
# WAL write path, the batch scaling gate
# without the race detector (it skips under it) and the parallel-search
# benchmarks at four procs (the only place the batch path is timed), the
# size count, and a short fuzz pass over the on-disk decoders and the
# request pipeline.
check: fmt-check
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/nnclint -root .
	$(GO) test -race ./...
	$(GO) test -run='^$$' -bench=Fig12 -benchtime=1x .
	$(GO) test -run='^$$' -bench='SearchK/disk-cold' -benchtime=1x .
	$(GO) test -run='^$$' -bench='Commit$$' -benchtime=1x .
	$(GO) test -run=TestSearchParallelScales ./internal/core
	GOMAXPROCS=4 $(GO) test -run='^$$' -bench=ParallelSearch -benchtime=1x .
	$(MAKE) loc
	$(MAKE) fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem .

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
	rm -f cover.out

verify:
	$(GO) run ./cmd/nncbench -verify -scale=small

fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/dataio
	$(GO) test -fuzz=FuzzOpen -fuzztime=30s ./internal/pager
	$(GO) test -fuzz=FuzzRecordDecode -fuzztime=30s ./internal/diskstore
	$(GO) test -fuzz=FuzzNodeDecode -fuzztime=30s ./internal/diskrtree
	$(GO) test -fuzz=FuzzSuperDecode -fuzztime=30s ./internal/diskindex
	$(GO) test -fuzz=FuzzBuildQuery -fuzztime=30s -fuzzminimizetime=1s ./internal/server

# fuzz-smoke is the short decoder pass wired into `make check`: every
# on-disk decoder (object record, rtree node, super page) and the HTTP
# request pipeline (decodeBody → buildQuery) survive 10s of
# coverage-guided input without panicking or accepting garbage. The
# request corpus seeds a 4097-instance body; left at its 60s default the
# fuzzer spends the whole run minimizing mutations of it, hence
# -fuzzminimizetime.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzRecordDecode -fuzztime=10s ./internal/diskstore
	$(GO) test -run='^$$' -fuzz=FuzzNodeDecode -fuzztime=10s ./internal/diskrtree
	$(GO) test -run='^$$' -fuzz=FuzzSuperDecode -fuzztime=10s ./internal/diskindex
	$(GO) test -run='^$$' -fuzz=FuzzBuildQuery -fuzztime=10s -fuzzminimizetime=1s ./internal/server

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
# flagged 206 degradation, restore → probe-driven recovery).
cluster:
	$(GO) test -race ./internal/cluster ./internal/clusterfault

# faults runs the end-to-end fault-injection suite under the race
# detector: engine degradation, quarantine, retry, fsck, legacy compat.
faults:
	$(GO) test -race -run 'Fault|Faults|Degrad|Partial|Torn|Transient|Quarantine|Legacy|Fsck|Rewrite|Waiter|Panic|Ready|Healthz|Stream|BitFlip|ShortRead|Classify|PageError|Backoff|Sleep' \
		./internal/faults ./internal/faultfile ./internal/pager ./internal/diskindex ./internal/core ./internal/server
