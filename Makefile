GO ?= go

.PHONY: build test race vet bench bench-test results mutate examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# go vet's standard checks plus the repo's own four-analyzer suite
# (wallclock, clockflow, outputpurity, poolsafe —
# see DESIGN.md "Concurrency & lifetime invariants"). Any finding fails
# the target; ./... includes the examples tree.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/gflink-vet ./...

bench:
	$(GO) run ./cmd/gflink-bench -list

# Run every program under examples/ and diff its stdout against the
# stdout.golden beside it; any difference, or a program that fails,
# fails the target. Quickstart prints the path of the trace it writes
# to the temp dir, so TMPDIR is pinned to keep that line fixed.
examples:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for d in examples/*/; do \
		echo "== $$d"; \
		TMPDIR=/tmp $(GO) run "./$$d" > "$$out" || exit 1; \
		diff -u "$${d}stdout.golden" "$$out" || exit 1; \
	done

# Rewrite EXPERIMENTS.md's Full results from the code. TestResultsGolden
# fails whenever the two disagree; after a change that moves a result on
# purpose, run this and re-derive the scorecard from the new tables.
results:
	$(GO) test ./internal/bench -run '^TestResultsGolden$$' -count=1 -update

# Apply each allocation mutant of cmd/gflink-mutate/mutants.json, one at
# a time, to a temporary copy of the module and run the allocation
# budgets (DESIGN.md invariant 10) against it; fails when a mutant
# survives. About ten seconds per mutant.
mutate:
	$(GO) run ./cmd/gflink-mutate

# benchmark/ is a module of its own, so `go test ./...` at the root
# never reaches its tests.
bench-test:
	cd benchmark && $(GO) test .
