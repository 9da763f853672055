# Developer entry points. Everything here is stdlib + toolchain only;
# CI (.github/workflows/ci.yml) runs the same commands.

GO ?= go

.PHONY: all build test race lint reprolint fmt bench bench-module loc clean

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
	$(GO) test ./internal/core/ -run xxx -bench 'BenchmarkProcess|BenchmarkProcessStages|BenchmarkOffsetScan' -benchtime 1000x -benchmem
	$(GO) test ./internal/ensemble/ -run xxx -bench 'BenchmarkEnsemble$$' -benchtime 10x -benchmem
	$(GO) test ./internal/ensemble/ -run xxx -bench 'BenchmarkEnsembleStages|BenchmarkEnsembleRead' -benchmem
	$(GO) test . -run xxx -bench 'BenchmarkReadParallel|BenchmarkWriteBesideReader' -benchmem
	$(GO) test ./internal/ratelimit/ -run xxx -bench BenchmarkAllowParallel -cpu 1,2
	$(GO) test ./internal/sim/ -run xxx -bench BenchmarkMultiStreamNext -benchtime 10x -benchmem -cpu 1,2

# bench-module compiles and smokes the nested benchmark module (bench/
# has its own go.mod, so `go build ./...` and `go test ./...` at the
# root never see it): vet, its unit tests, and a quick run of each of
# the four workloads — sync-replay through the ensemble's public write
# path, relay-open and relay-sat through the serving loop under the
# ledger's own open- and closed-loop generators (both wait for the
# relay's upstream warmup first), clock-reads through the published read
# path beside a writer.
bench-module:
	cd bench && $(GO) vet . && $(GO) test -short . && $(GO) run . -quick -workload sync-replay && $(GO) run . -quick -workload relay-open && $(GO) run . -quick -workload relay-sat && $(GO) run . -quick -workload clock-reads

# loc prints the three line counts a simplicity PR reports (CHANGES.md
# quotes them before and after): non-test code in the root module — Go
# and the assembly beside it, whose share is shown — its test Go, and
# the nested bench/ module — tracked files only, testdata excluded.
loc:
	@printf 'non-test Go+asm (root module): %s (of which *.s: %s)\n' \
		$$(git ls-files '*.go' '*.s' | grep -v _test.go | grep -v '^bench/' | grep -v testdata | xargs cat | wc -l) \
		$$(git ls-files '*.s' | grep -v '^bench/' | xargs cat | wc -l)
	@printf 'test Go (root module):         %s\n' $$(git ls-files '*_test.go' | grep -v '^bench/' | grep -v testdata | xargs cat | wc -l)
	@printf 'bench/ module Go:              %s\n' $$(git ls-files 'bench/*.go' | xargs cat | wc -l)

clean:
	$(GO) clean ./...
