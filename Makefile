# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet lint fmt-check loc product-graph tolerances bench cover figures examples clean check verify smoke fuzz fuzz-smoke faults wal conformance cluster

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs nnclint, the repo's own static-analysis suite: hotpath-alloc,
# scratch-escape, lock-balance, ctx-flow, snapshot-lifecycle,
# goroutine-lifecycle, error-taxonomy and atomic-publish — conventions
# spread over many sites that no Go type states — all from one
# type-checked pass over the module
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
# (internal/lint/testdata) excluded — per package directory, then in total,
# then the product graph (what `go list -deps ./cmd/nncserver` pulls from
# this module: the server and everything it serves with, none of the
# reference implementations, tools or examples), then the share under cmd/
# and how many binaries that is.
loc:
	@p=$$($(GO) list -deps -f '{{if and .Module (not .Standard)}}{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}{{end}}' ./cmd/nncserver | xargs cat | wc -l); \
	find . -name '*.go' ! -name '*_test.go' ! -path './internal/lint/testdata/*' -exec wc -l {} + \
	| awk -v p=$$p '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1; if (d ~ /^\.\/cmd\//) c += $$1 } \
		END { for (d in n) { printf "%7d %s\n", n[d], d | "sort -k2"; b += (d ~ /^\.\/cmd\//) }; close("sort -k2"); \
			printf "%7d total\n%7d product graph (go list -deps ./cmd/nncserver)\n%7d cmd/ in %d binaries\n", t, p, c, b }'

# product-graph fails if the server's dependency graph reaches a reference
# implementation (anything under internal/ref/), a test-only fault injector
# (faultfile, clusterfault) or the linter: what the product serves with
# never includes what it is checked against.
product-graph:
	@bad="$$($(GO) list -deps ./cmd/nncserver | grep -E '^spatialdom/internal/(ref/|(faultfile|clusterfault|lint)$$)' | xargs)"; \
	[ -z "$$bad" ] || { echo "product-graph: ./cmd/nncserver depends on $$bad"; exit 1; }

# tolerances fails if a float literal with a negative exponent, decimal
# (1e-9 and the like) or hex (0x1p-26), appears in non-test Go under
# internal/core, internal/distr or internal/flow, but for two named
# constants: the unit of the bucket rung's integer masses, distr.MassUnit,
# and the entry test's mass witness, core's massWitness. The dominance
# checks compare distances exactly and mass under uncertain.MassBound, and
# no other tolerance.
tolerances:
	@hits="$$(grep -rnE '[0-9]e-[0-9]|0[xX][0-9a-fA-F_.]*[pP]-[0-9]' --include='*.go' --exclude='*_test.go' internal/core internal/distr internal/flow \
		| grep -vE '^internal/(distr/buckets\.go:[0-9]+:const MassUnit = 0x1p-60|core/checker\.go:[0-9]+:const massWitness = 0x1p-26)$$')"; \
	[ -z "$$hits" ] || { echo "tolerances: a tolerance in the dominance checks:"; echo "$$hits"; exit 1; }

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate, one list: formatting + vet + build + nnclint + race tests + a
# one-shot Figure 12, disk-cold, P-SD-miss, band-scan, wide-object P-SD,
# Table 2, commit and door-write benchmark smoke so the engine's hot path
# stays exercised in memory, against a page file, on objects wider than any
# repo-benchmark workload has (Table 2's sizes, with its flow-solve gate and
# candidate digests), through the WAL write path and through the
# front door's write sweep, the Figure 16 ablation driver at tiny scale (every
# filter stack, as `nnc figure` runs it), the concurrent-search scaling gate
# and the result cache's entry-cost gate without the race detector (both
# skip under it) and the parallel-search
# benchmarks at four procs, the server boot smoke, the size count, the
# product graph's import rule, and a short fuzz pass over every
# decoder of outside bytes, the request pipeline and S-SD's entry test.
# CI's check job is `make check`, so this list is the only one.
check: fmt-check
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/nnclint -root .
	$(GO) test -race ./...
	$(GO) test -run='^$$' -bench=Fig12 -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='SearchK/disk-cold' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='SearchPSDMiss' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='BandScan' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='DominanceCheck/PSD/m=64' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench=Table2 -benchtime=1x .
	$(GO) test -run='^$$' -bench='Commit$$' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='DoorWrite' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='BandStep' -benchtime=1x -benchmem .
	$(GO) run ./cmd/nnc figure -figure=16 -scale=tiny
	$(GO) test -run=TestConcurrentSearchScales ./internal/core
	$(GO) test -run=TestCacheEntryCostMatchesHeap ./internal/server/front
	GOMAXPROCS=4 $(GO) test -run='^$$' -bench=ParallelSearch -benchtime=1x -benchmem .
	$(MAKE) smoke
	$(MAKE) loc
	$(MAKE) product-graph
	$(MAKE) tolerances
	$(MAKE) fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem .

# conformance runs the cache-invalidation conformance suite under the
# race detector: random inserts/deletes interleaved with cached queries,
# every served answer byte-equal to a fresh uncached search, on both the
# in-memory and WAL-backed mutable disk backends. COUNT repeats it (CI
# runs 5, so the soak phase runs five times a PR). BandStep adds core's
# walk of the step a door repair runs.
COUNT ?= 1
conformance:
	$(GO) test -race -count=$(COUNT) -run 'InvalidationConformance|Door|Shield|Cache|BandStep' ./internal/server/front ./internal/core

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

figures:
	$(GO) run ./cmd/nnc figure -figure=all -scale=small

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/players
	$(GO) run ./examples/checkins
	$(GO) run ./examples/tradeoff
	$(GO) run ./examples/nncore

clean:
	rm -f cover.out

verify:
	$(GO) run ./cmd/nnc verify -scale=small

# smoke is the only coverage cmd/nncserver's boot path and cmd/nncclient
# have. One dataset: `nnc build` writes it to a page file, then a memory
# and a disk server start with the same dataset flags on two loopback
# ports. Both must reach /readyz 200, answer /query with the same body
# (elapsed_us aside), exit on SIGTERM after logging "bye" — and a bad
# dataset flag must exit 2. Before that, nncclient drives the memory
# server: a -q query that prints a candidates table, -health and -smoke,
# each exiting 0.
# Then the router: `nnc shard` splits the same dataset in two, two servers
# load the halves and `nncserver -router` fronts them. Its /query
# candidates must be the memory server's byte for byte, `nncclient -smoke
# -shards` must pass, all three must log "bye" on SIGTERM, and the router
# flags that are gone (-hedge-after, -breaker-threshold) must exit 2.
# Then the crash a reader must not paper over: a third server opens the
# file -mutable, takes one /insert and is killed with -9, so the insert is
# in the WAL only. A read-only server on that file must exit 1 naming the
# log; a -mutable one must replay it and answer /query with the object.
# `nnc fsck` must print "clean" for the file right after the build and
# again after the replaying server's clean shutdown.
# Last, a rebuild over a pending WAL: one more -mutable server takes an
# /insert and is killed with -9, then `nnc build` writes the file afresh.
# The rebuilt file must fsck clean, and a read-only server must boot on it
# and answer the memory server's candidates: the build dropped the old log.
smoke:
	@set -eu; d=$$(mktemp -d); trap 'kill $$(cat $$d/*.pid 2>/dev/null) 2>/dev/null || true; rm -rf $$d' EXIT; \
	ready() { \
		for try in $$(seq 100); do \
			[ "$$(curl -s -o /dev/null -w '%{http_code}' 127.0.0.1:$$2/readyz || true)" = 200 ] && return 0; sleep 0.1; \
		done; \
		echo "smoke: $$1 server never became ready"; cat $$d/$$1.log; exit 1; \
	}; \
	$(GO) build -o $$d/nnc ./cmd/nnc; $(GO) build -o $$d/nncserver ./cmd/nncserver; $(GO) build -o $$d/nncclient ./cmd/nncclient; \
	checkfile() { $$d/nnc fsck $$d/o.pg >$$d/fsck.txt 2>&1 && tail -1 $$d/fsck.txt | grep -qx clean || { echo "smoke: nnc fsck $$1"; cat $$d/fsck.txt; exit 1; }; }; \
	data='-n=400 -m=6 -seed=7'; $$d/nnc build $$data -out=$$d/o.pg >/dev/null; checkfile "of the built file failed"; \
	$$d/nncserver $$data -addr=127.0.0.1:18471 2>$$d/mem.log & echo $$! >$$d/mem.pid; \
	$$d/nncserver -disk=$$d/o.pg -addr=127.0.0.1:18472 2>$$d/disk.log & echo $$! >$$d/disk.pid; \
	for s in mem:18471 disk:18472; do \
		ready $${s%:*} $${s#*:}; \
		curl -s -X POST 127.0.0.1:$${s#*:}/query -d '{"instances":[[5000,5000,5000],[5100,5050,4900]],"operator":"PSD","k":2}' \
			| sed -E 's/"elapsed_us":[0-9]+//' >$$d/$${s%:*}.json; \
	done; \
	grep -q '"candidates":\[{' $$d/mem.json || { echo "smoke: no candidates"; cat $$d/mem.json; exit 1; }; \
	cmp $$d/mem.json $$d/disk.json || { echo "smoke: memory and disk servers disagree"; exit 1; }; \
	client() { $$d/nncclient -addr=http://127.0.0.1:18471 "$$@" >$$d/client.txt 2>&1 || { echo "smoke: nncclient $$* failed"; cat $$d/client.txt; exit 1; }; }; \
	client -op=PSD -k=2 -q='5000,5000,5000;5100,5050,4900'; \
	grep -qE '^1 +[0-9]+' $$d/client.txt || { echo "smoke: nncclient -q printed no candidates"; cat $$d/client.txt; exit 1; }; \
	client -health; client -smoke; \
	kill -TERM $$(cat $$d/mem.pid $$d/disk.pid); wait; \
	for s in mem disk; do grep -q ' bye$$' $$d/$$s.log || { echo "smoke: $$s server did not shut down cleanly"; cat $$d/$$s.log; exit 1; }; done; \
	code=0; $$d/nncserver -n=-1 2>/dev/null || code=$$?; [ $$code = 2 ] || { echo "smoke: nncserver -n=-1 exited $$code, want 2"; exit 1; }; \
	$$d/nnc shard $$data -shards=2 -out=$$d/shards >/dev/null 2>&1; shards='127.0.0.1:18474;127.0.0.1:18475'; \
	for s in 0:18474 1:18475; do \
		$$d/nncserver -input=$$d/shards/shard-00$${s%:*}.csv -addr=127.0.0.1:$${s#*:} 2>$$d/shard$${s%:*}.log & echo $$! >$$d/shard$${s%:*}.pid; \
		ready shard$${s%:*} $${s#*:}; \
	done; \
	$$d/nncserver -router -shards="$$shards" -addr=127.0.0.1:18476 2>$$d/router.log & echo $$! >$$d/router.pid; \
	ready router 18476; \
	curl -s -X POST 127.0.0.1:18476/query -d '{"instances":[[5000,5000,5000],[5100,5050,4900]],"operator":"PSD","k":2}' >$$d/router.json; \
	cands() { sed -E 's/.*"candidates":(\[[^]]*\]).*/\1/' $$1; }; \
	[ "$$(cands $$d/router.json)" = "$$(cands $$d/mem.json)" ] || { echo "smoke: the router's candidates differ from the memory server's"; cat $$d/router.json $$d/mem.json; exit 1; }; \
	client -addr=http://127.0.0.1:18476 -smoke -shards="$$shards"; \
	kill -TERM $$(cat $$d/router.pid $$d/shard0.pid $$d/shard1.pid); wait; \
	for s in router shard0 shard1; do grep -q ' bye$$' $$d/$$s.log || { echo "smoke: $$s server did not shut down cleanly"; cat $$d/$$s.log; exit 1; }; done; \
	for f in -hedge-after=1ms -breaker-threshold=3; do \
		code=0; $$d/nncserver -router -shards="$$shards" $$f 2>/dev/null || code=$$?; [ $$code = 2 ] || { echo "smoke: nncserver -router $$f exited $$code, want 2"; exit 1; }; \
	done; \
	$$d/nncserver -disk=$$d/o.pg -mutable -addr=127.0.0.1:18473 2>$$d/crash.log & echo $$! >$$d/crash.pid; \
	ready crash 18473; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST 127.0.0.1:18473/insert -d '{"id":900001,"instances":[[5000,5000,5000]],"probs":[1]}'); \
	[ "$$code" = 200 ] || { echo "smoke: /insert answered $$code"; cat $$d/crash.log; exit 1; }; \
	kill -9 $$(cat $$d/crash.pid); wait || true; rm $$d/crash.pid; \
	code=0; timeout 10 $$d/nncserver -disk=$$d/o.pg -addr=127.0.0.1:18473 2>$$d/ro.log || code=$$?; \
	[ $$code = 1 ] && grep -q "$$d/o.pg.wal" $$d/ro.log || { echo "smoke: read-only server over a pending WAL exited $$code, want 1 naming the log"; cat $$d/ro.log; exit 1; }; \
	$$d/nncserver -disk=$$d/o.pg -mutable -addr=127.0.0.1:18473 2>$$d/replay.log & echo $$! >$$d/replay.pid; \
	ready replay 18473; \
	curl -s -X POST 127.0.0.1:18473/query -d '{"instances":[[5000,5000,5000]],"operator":"PSD","k":1}' >$$d/replay.json; \
	grep -q '"id":900001' $$d/replay.json || { echo "smoke: the insert did not survive the crash"; cat $$d/replay.json $$d/replay.log; exit 1; }; \
	kill -TERM $$(cat $$d/replay.pid); wait; \
	grep -q ' bye$$' $$d/replay.log || { echo "smoke: the replay server did not shut down cleanly"; cat $$d/replay.log; exit 1; }; \
	checkfile "after the replay server's shutdown failed"; \
	$$d/nncserver -disk=$$d/o.pg -mutable -addr=127.0.0.1:18473 2>$$d/pending.log & echo $$! >$$d/pending.pid; \
	ready pending 18473; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST 127.0.0.1:18473/insert -d '{"id":900002,"instances":[[5000,5000,5000]],"probs":[1]}'); \
	[ "$$code" = 200 ] || { echo "smoke: /insert before the rebuild answered $$code"; cat $$d/pending.log; exit 1; }; \
	kill -9 $$(cat $$d/pending.pid); wait || true; rm $$d/pending.pid; \
	$$d/nnc build $$data -out=$$d/o.pg >/dev/null; checkfile "of the file rebuilt over a pending WAL failed"; \
	$$d/nncserver -disk=$$d/o.pg -addr=127.0.0.1:18472 2>$$d/rebuilt.log & echo $$! >$$d/rebuilt.pid; \
	ready rebuilt 18472; \
	curl -s -X POST 127.0.0.1:18472/query -d '{"instances":[[5000,5000,5000],[5100,5050,4900]],"operator":"PSD","k":2}' >$$d/rebuilt.json; \
	[ "$$(cands $$d/rebuilt.json)" = "$$(cands $$d/mem.json)" ] || { echo "smoke: the rebuilt file's candidates differ from the memory server's"; cat $$d/rebuilt.json $$d/mem.json; exit 1; }; \
	kill -TERM $$(cat $$d/rebuilt.pid); wait; \
	grep -q ' bye$$' $$d/rebuilt.log || { echo "smoke: the server on the rebuilt file did not shut down cleanly"; cat $$d/rebuilt.log; exit 1; }; \
	echo "smoke: memory and disk servers agree, nncclient drives them, shut down cleanly; a router over two shard servers answers the memory server's candidates; a pending WAL is refused read-only and replayed -mutable; nnc fsck finds the file clean after the build and after the replay; a rebuild over a pending WAL drops it and serves read-only"

# The ten fuzz targets: eight decoders of bytes this process did not
# write — the CSV loader, the page-file opener, the object record, the
# rtree node, the super page, the WAL record scanner, a shard's
# /shard/query reply as the router decodes it — and the HTTP request
# pipeline (decodeBody → buildQuery): never a panic, never garbage
# accepted. The ninth and tenth are property targets: whenever S-SD's
# entry test counts a band member against a rectangle, the checker finds
# that member dominating the objects inside it (FuzzSSDEntryTest), and
# wherever S-SD's mass rung decides a pair of objects on bucket masses, the
# exact scan agrees (FuzzSSDBucketRung).
# Several corpora seed large inputs; left at its 60s default the fuzzer
# spends the whole run minimizing mutations of them, hence
# -fuzzminimizetime. FUZZTIME is per target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzRead -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/dataio
	$(GO) test -run='^$$' -fuzz=FuzzOpen -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/pager
	$(GO) test -run='^$$' -fuzz=FuzzRecordDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/diskstore
	$(GO) test -run='^$$' -fuzz=FuzzNodeDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/diskrtree
	$(GO) test -run='^$$' -fuzz=FuzzSuperDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/diskindex
	$(GO) test -run='^$$' -fuzz=FuzzScan -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzShardReply -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzBuildQuery -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzSSDEntryTest -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSSDBucketRung -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/core

# fuzz-smoke is the short pass wired into `make check`: the same ten
# targets at 5s each.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s

# wal runs the durability suite under the race detector: WAL unit tests,
# the crash kill-point sweeps (exact pre-or-post transaction recovery at
# every byte offset the log can die at), snapshot-isolated readers under
# a concurrent writer, the mutable/in-memory conformance suite, the
# structural fsck's seeded-corruption detection, the HTTP mutation
# endpoints, and the buffer pool's page ownership (a commit's Put takes the
# staged buffer as the frame unless a reader holds the page pinned).
wal:
	$(GO) test -race -run 'WAL|Crash|Snapshot|Pin|Mutable|Mutation|FsckStruct|Recover|Scan|Append|Commit|Truncated|Dump|Checkpoint' \
		./internal/wal ./internal/diskindex ./internal/server ./internal/pager

# cluster runs the scatter-gather tier under the race detector: the
# merge-invariant property sweep (sharded == single node, byte for byte,
# shard counts 1–8 × every operator and filter configuration), the
# breaker state machine and its blame at an attempt's deadline, and the
# seeded chaos suite (drop/delay/5xx/half-response/flap injection, replica
# kill → failover, shard kill → flagged 206 degradation, restore →
# probe-driven recovery, a slow primary → a hedge wins inside its delay,
# a one-replica shard's 500 → a retry answers 200). The router has no
# tuning flag beyond -shard-timeout and -breaker-cooldown, so the suite
# exercises the same envelope a deployment runs.
cluster:
	$(GO) test -race ./internal/cluster ./internal/clusterfault

# faults runs the end-to-end fault-injection suite under the race
# detector: engine degradation, quarantine, retry, fsck, the refused header
# versions.
faults:
	$(GO) test -race -run 'Fault|Faults|Degrad|Partial|Torn|Transient|Quarantine|Version|Fsck|Rewrite|Waiter|Panic|Ready|Healthz|BitFlip|ShortRead|Classify|PageError|Backoff|Sleep' \
		./internal/faults ./internal/faultfile ./internal/pager ./internal/diskindex ./internal/core ./internal/server
