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
# whole pass shrinking mutations of it. The vgDL finder's target is
# differential too (run-table finder vs the per-host oracle), and so is the
# scheduler's dense-table target (link-class tables vs TransferTime).
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/vgdl
	$(GO) test -run xxx -fuzz 'FuzzFindDifferential$$' -fuzztime $(FUZZTIME) ./internal/vgdl
	$(GO) test -run xxx -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/classad
	$(GO) test -run xxx -fuzz 'FuzzParseExpr$$' -fuzztime $(FUZZTIME) ./internal/classad
	$(GO) test -run xxx -fuzz 'FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/sword
	$(GO) test -run xxx -fuzz 'FuzzDecodeDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/dag
	$(GO) test -run xxx -fuzz 'FuzzSelectRequest$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run xxx -fuzz 'FuzzAdviseRequest$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run xxx -fuzz 'FuzzBatchRequest$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run xxx -fuzz 'FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/broker/durable
	$(GO) test -run xxx -fuzz 'FuzzDenseTable$$' -fuzztime $(FUZZTIME) ./internal/sched
