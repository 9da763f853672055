# Developer entry points. Everything here is stdlib + toolchain only;
# CI (.github/workflows/ci.yml) runs the same commands.

GO ?= go

.PHONY: all build test race lint reprolint fmt bench bench-module bench-json clean

all: lint test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint is the consolidated static gate: vet, formatting, and the
# repo's own reprolint analyzer suite (see internal/analysis — the
# //repro: directives and what each analyzer enforces).
lint: reprolint
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

reprolint:
	$(GO) run ./tools/reprolint ./...

fmt:
	gofmt -w .

bench:
	$(GO) test ./internal/core/ -run xxx -bench 'BenchmarkProcess|BenchmarkProcessStages' -benchtime 1000x -benchmem
	$(GO) test ./internal/ensemble/ -run xxx -bench 'BenchmarkEnsemble$$' -benchtime 10x -benchmem
	$(GO) test ./internal/ensemble/ -run xxx -bench 'BenchmarkEnsembleStages|BenchmarkEnsembleRead' -benchmem
	$(GO) test . -run xxx -bench 'BenchmarkReadParallel|BenchmarkWriteBesideReader' -benchmem
	$(GO) test ./internal/ratelimit/ -run xxx -bench BenchmarkAllowParallel -cpu 1,2

# bench-module compiles and smokes the nested benchmark module (bench/
# has its own go.mod, so `go build ./...` and `go test ./...` at the
# root never see it): vet, its unit tests, and three quick workload runs
# — sync-replay through the ensemble's public write path, relay-sat
# through the serving loop under the ledger's own generator, clock-reads
# through the published read path beside a writer.
bench-module:
	cd bench && $(GO) vet . && $(GO) test -short . && $(GO) run . -quick -workload sync-replay && $(GO) run . -quick -workload relay-sat && $(GO) run . -quick -workload clock-reads

# bench-json snapshots the serving-path benchmarks (the shards × io ×
# txstamp grid of BenchmarkServeLoopback: ns/op, allocs/op,
# syscalls/reply, kernel stamp coverage) into BENCH_<date>.json via
# tools/benchjson, so perf claims are diffable data.
bench-json:
	$(GO) test ./internal/ntp/ -run xxx -bench BenchmarkServeLoopback -benchmem | $(GO) run ./tools/benchjson

clean:
	$(GO) clean ./...
