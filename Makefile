# Standard verification pipeline; `make check` is what CI should run.

GO ?= go
FUZZTIME ?= 5s

.PHONY: check vet build test race bench bench-smoke bench-check fuzz-smoke

check: vet build race bench-smoke fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or that fail outright, without paying for real measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The layered serving benchmark (bench/README.md), run for what it checks
# rather than what it times: all four workloads at 15 s each (~80 s), no
# traced pass. Every boot diffs the Fig. III-2 golden; repeats must be
# byte-stable, batch members byte-equal to single responses, concurrent
# leases pairwise disjoint, a SIGKILLed server must recover its leases,
# fronts must be non-dominated, SIGTERM must drain cleanly, and no operation
# may fail. 15 s is the shortest window that reliably leaves moga_front ten
# samples beyond its p95. Timings from separate invocations are not
# comparable (only interleaved runs are), so nothing here compares them.
bench-check:
	$(GO) run ./bench --seconds 15 --trace 0

# Short fuzzing pass over every parser the rsgend service exposes to
# untrusted input. `go test -fuzz` accepts one target per invocation,
# hence the per-package lines. The DAG decoder's target is differential
# (hand-written scanner vs the encoding/json oracle) and seeded with a 100 KB
# document; the short minimize budget keeps the engine from spending the
# whole pass shrinking mutations of it. The cost reader's target draws a
# mantissa and a fraction of 1-19 digits and holds the bits read off the
# scanned digits to strconv.ParseFloat's. `Scanner.Skip`, which checks the
# syntax of every value the envelope walk passes over, is held to
# encoding/json's Valid the same way. The vgDL finder's target is
# differential too (run-table finder vs the per-host oracle), as is the
# ClassAd matcher's (one evaluation per run vs every host's machine ad, with
# job ads that read Name falling back to the ads), and so are the
# platform's widest-path target (the union-find table vs a Dijkstra row per
# cluster, on drawn topologies with links deleted and odd speeds) and the
# scheduler's dense-table target (link- and speed-class tables and the
# grouped path's bandwidth table vs TransferTime and a division per host),
# and so is its indexed-host target (the bucketed host search forced on vs
# the scan forced, on 128–640-host collections with drawn clock classes).
# The events body and the observations query string are fuzzed through
# their handlers, which must answer 2xx or a 4xx JSON error. The last two
# targets are not parsers: they draw whole moga searches and require
# Workers 1 and 2 to return the same result, since scoring runs concurrently
# with breeding, and the search memo to hit exactly when every input the
# result depends on is equal.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/vgdl
	$(GO) test -run xxx -fuzz 'FuzzFindDifferential$$' -fuzztime $(FUZZTIME) ./internal/vgdl
	$(GO) test -run xxx -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/classad
	$(GO) test -run xxx -fuzz 'FuzzParseExpr$$' -fuzztime $(FUZZTIME) ./internal/classad
	$(GO) test -run xxx -fuzz 'FuzzMatchDifferential$$' -fuzztime $(FUZZTIME) ./internal/classad
	$(GO) test -run xxx -fuzz 'FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/sword
	$(GO) test -run xxx -fuzz 'FuzzDecodeDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/dag
	$(GO) test -run xxx -fuzz 'FuzzCostDigits$$' -fuzztime $(FUZZTIME) ./internal/dag
	$(GO) test -run xxx -fuzz 'FuzzSkipValid$$' -fuzztime $(FUZZTIME) ./internal/dag
	$(GO) test -run xxx -fuzz 'FuzzSelectRequest$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run xxx -fuzz 'FuzzAdviseRequest$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run xxx -fuzz 'FuzzBatchRequest$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run xxx -fuzz 'FuzzEventsBody$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run xxx -fuzz 'FuzzObservationsQuery$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run xxx -fuzz 'FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/broker/durable
	$(GO) test -run xxx -fuzz 'FuzzWidest$$' -fuzztime $(FUZZTIME) ./internal/platform
	$(GO) test -run xxx -fuzz 'FuzzDenseTable$$' -fuzztime $(FUZZTIME) ./internal/sched
	$(GO) test -run xxx -fuzz 'FuzzIndexedHostSelection$$' -fuzztime $(FUZZTIME) ./internal/sched
	$(GO) test -run xxx -fuzz 'FuzzSearchWorkers$$' -fuzztime $(FUZZTIME) ./internal/moga
	$(GO) test -run xxx -fuzz 'FuzzSearchMemo$$' -fuzztime $(FUZZTIME) ./internal/moga
