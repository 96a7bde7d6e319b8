# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race allocs vet noswitch loc fmt bench-smoke

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# allocs runs every allocation-bound test by name, without -race: the
# race detector's instrumentation allocates, so under it these tests skip
# or gate their bounds off and `make race` enforces none of them.
allocs:
	$(GO) test -count=1 -run '^(TestHandlePubAllocs|TestClientDispatchAllocs|TestSwapCostIndependentOfTableSize|TestDecodeBorrowAllocRegression)$$' ./internal/pubsub
	$(GO) test -count=1 -run '^TestFigure1JourneyAllocs$$' ./internal/core
	$(GO) test -count=1 -run '^TestLoopDispatchAllocs$$' ./internal/netapi
	$(GO) test -count=1 -run '^TestSimnetDeliveryAllocs$$' ./internal/simnet
	$(GO) test -count=1 -run '^(TestSendChunkedAllocs|TestSendManyOfOneAllocsAsSend)$$' ./internal/transport
	$(GO) test -count=1 -run '^(TestChunkedReceiveKeepsFrames|TestManifestBoundsPieces|TestPaddedChunkFramesOverTCP)$$' ./internal/store
	$(GO) test -count=1 -run '^(TestBinaryEncodeAllocs|TestXMLCodecAllocs)$$' ./internal/wire
	$(GO) test -count=1 -run '^TestEncodeSortsNamesWithoutAllocating$$' ./internal/event
	$(GO) test -count=1 -run '^(TestQuietPutDoesNotAllocate|TestClassify)$$' ./internal/match
	$(GO) test -count=1 -run '^TestKBAskAndOneDoNotAllocate$$' ./internal/knowledge

# vet runs the stock analyzers, then builds the repo's own analysis
# suite (cmd/vetactive) and runs it over every package through the
# go vet vettool protocol. Both must be clean.
vet: noswitch
	$(GO) vet ./...
	$(GO) build -o bin/vetactive ./cmd/vetactive
	$(GO) vet -vettool=$(CURDIR)/bin/vetactive ./...

# noswitch fails when a retired reference-path switch, the second index's
# option, the shared config block, simnet's partitioned execution, the
# fan-out pool's size knob, a second send path for a publish (the pool,
# its drain and the concurrent-send capability it needed), Siena
# advertisements, runtime registry refresh or the store's buffer for
# chunks ahead of their manifest returns to shipped code: the old paths
# are _test.go oracles or seams, not options, and the last three carried
# no traffic.
noswitch:
	! grep -rnE '\b(Legacy[A-Z][A-Za-z]*|CloneFanout|DisableIndex|DisableBatching|DisableShedding|MatchShards|nodecfg|Shards|ExecPartitions|Partitioned|FanoutWorkers|fanout-workers|fanoutPool|DrainFanout|ConcurrentSender|ConcurrentSends|UseAdvertisements|AdvMsg|UnadvMsg|RefreshRegistry|maxEarlyChunks)\b' --include='*.go' --exclude='*_test.go' cmd internal examples active.go

# loc prints the non-test Go line count ROADMAP item 2 tracks.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1

fmt:
	gofmt -l -w .

# bench/ is a module of its own, invisible to ./... above: vet it and run
# its tests, which include a short run of every activebench workload.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
