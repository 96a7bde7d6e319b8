# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race vet loc fmt bench-smoke

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs every test twice under the race detector, as CI does.
race:
	$(GO) test -race -count=2 ./...

# vet runs the stock analyzers. The repo's own suite (vetactive), the
# retired-name check and gofmt are tests in internal/analysis, so `make
# test` runs them.
vet:
	$(GO) vet ./...

# loc prints the non-test Go line count ROADMAP item 2 tracks.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1

fmt:
	gofmt -l -w .

# bench/ is a module of its own, invisible to ./... above: vet it and run
# its tests, which include a short run of every activebench workload.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
