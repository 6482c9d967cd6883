GO ?= go

.PHONY: build test race vet vet-baseline bench bench-test check-deprecated

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# go vet's standard checks plus the repo's own thirteen-analyzer suite
# (wallclock, clockgo, maporder, lockhold, lockorder, buflifecycle,
# bufescape, spanpair, clockflow, counterkey, outputpurity, hotalloc,
# poolsafe — see DESIGN.md "Concurrency & lifetime invariants").
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

# benchmark/ is a module of its own, so `go test ./...` at the root
# never reaches its tests.
bench-test:
	cd benchmark && $(GO) test .

# Fail when non-test code calls a Deprecated: positional constructor
# (NewGStreamManager / NewGMemoryManager). The shims exist only so the
# tests that pin their equivalence to the options constructors keep
# compiling; new code uses NewStreamManager / NewMemoryManager.
check-deprecated:
	@hits=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=testdata \
		-E '\bNewG(StreamManager|MemoryManager)\(' . | grep -v 'func NewG' || true); \
	if [ -n "$$hits" ]; then \
		echo "deprecated positional constructors called from non-test code:"; \
		echo "$$hits"; \
		exit 1; \
	fi
