GO ?= go

.PHONY: build test race vet vet-baseline bench bench-test results

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# go vet's standard checks plus the repo's own six-analyzer suite
# (wallclock, bufescape, clockflow, outputpurity, hotalloc, poolsafe —
# see DESIGN.md "Concurrency & lifetime invariants").
# Findings recorded in vet-baseline.json are suppressed: CI ratchets
# on NEW findings only; the examples tree is vetted alongside the
# module.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/gflink-vet -baseline vet-baseline.json ./... ./examples/...

# Re-record the suppression baseline. Run only when deliberately
# accepting existing findings; the diff to vet-baseline.json is the
# review surface.
vet-baseline:
	$(GO) run ./cmd/gflink-vet -write-baseline vet-baseline.json ./... ./examples/...

bench:
	$(GO) run ./cmd/gflink-bench -list

# Rewrite EXPERIMENTS.md's Full results from the code. TestResultsGolden
# fails whenever the two disagree; after a change that moves a result on
# purpose, run this and re-derive the scorecard from the new tables.
results:
	$(GO) test ./internal/bench -run '^TestResultsGolden$$' -count=1 -update

# benchmark/ is a module of its own, so `go test ./...` at the root
# never reaches its tests.
bench-test:
	cd benchmark && $(GO) test .
