# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race vet noswitch loc fmt bench-smoke

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
vet: noswitch
	$(GO) vet ./...
	$(GO) build -o bin/vetactive ./cmd/vetactive
	$(GO) vet -vettool=$(CURDIR)/bin/vetactive ./...

# noswitch fails when a retired reference-path switch, the second index's
# option or the shared config block returns to shipped code: the old paths
# are _test.go oracles, not options.
noswitch:
	! grep -rnE '\b(Legacy[A-Z][A-Za-z]*|CloneFanout|DisableIndex|DisableBatching|DisableShedding|MatchShards|nodecfg)\b' --include='*.go' --exclude='*_test.go' cmd internal examples active.go

# loc prints the non-test Go line count ROADMAP item 2 tracks.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1

fmt:
	gofmt -l -w .

# bench/ is a module of its own, invisible to ./... above: vet it and run
# its tests, which include a short run of every activebench workload.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
