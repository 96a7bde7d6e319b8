# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race vet fmt bench-smoke

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs the stock analyzers, then builds the repo's own analysis
# suite (cmd/vetactive) and runs it over every package through the
# go vet vettool protocol. Both must be clean.
vet:
	$(GO) vet ./...
	$(GO) build -o bin/vetactive ./cmd/vetactive
	$(GO) vet -vettool=$(CURDIR)/bin/vetactive ./...

fmt:
	gofmt -l -w .

# bench/ is a module of its own, invisible to ./... above: vet it and run
# its tests, which include a short run of every activebench workload.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
