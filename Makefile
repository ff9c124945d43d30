GO ?= go

.PHONY: build test serve smoke fuzz fmt vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Runs the analysis server on :8080 (override with ADDR=host:port).
serve:
	$(GO) run ./cmd/thermflowd -addr $(or $(ADDR),:8080)

# Starts the real thermflowd x2 + thermflowgate binaries with every
# file- and listener-bearing flag, runs one authenticated job to done,
# then checks SIGHUP reloads and a clean SIGTERM exit (the CI smoke
# step). Cluster behaviour is tested in Go: go test ./internal/e2etest.
smoke:
	sh scripts/smoke.sh

# Short fuzz pass over the IR parsers, the JobSpec wire codec, the
# disk tier's answer decoder and the WAL recovery path (the seed
# corpora alone run under plain `make test`).
fuzz:
	$(GO) test ./internal/ir -fuzz 'FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/ir -fuzz 'FuzzParseModule$$' -fuzztime 30s
	$(GO) test . -fuzz 'FuzzJobSpecDecode$$' -fuzztime 30s
	$(GO) test . -fuzz 'FuzzDecodeCompiled$$' -fuzztime 30s
	$(GO) test ./internal/joblog -fuzz 'FuzzJoblogRecover$$' -fuzztime 30s

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench/ is its own Go module, outside the root ./... pattern; vetting
# it here catches a root API change that breaks thermbench's build.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

ci: fmt vet build test
