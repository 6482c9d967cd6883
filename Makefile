GO ?= go

.PHONY: build test race vet bench bench-test results mutate

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
