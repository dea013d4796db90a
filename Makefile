# ARGO build/verify gates. `make check` is the CI entry point.

GO ?= go

.PHONY: all check fmt vet build test race benchsmoke perfbench profile passes fuzz cover soak clean

all: check

check: fmt vet build race benchsmoke perfbench soak

# gofmt must produce no output (no unformatted files).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# CPU/heap profiles of the two simulator-bound experiment benchmarks and
# of the simulator itself on the 16-core mesh, written under profiles/
# (gitignored) for `go tool pprof`.
profile:
	mkdir -p profiles
	$(GO) test -run=^$$ -bench='BenchmarkE2Tightness$$' -benchtime=10x \
		-cpuprofile profiles/e2.cpu.prof -memprofile profiles/e2.mem.prof .
	$(GO) test -run=^$$ -bench='BenchmarkE5NoC$$' -benchtime=10x \
		-cpuprofile profiles/e5.cpu.prof -memprofile profiles/e5.mem.prof .
	$(GO) test -run=^$$ -bench='^BenchmarkSimulate$$/^leon3-4x4$$' -benchtime=200x \
		-cpuprofile profiles/sim.cpu.prof -memprofile profiles/sim.mem.prof .

# One-iteration smoke run so `make check` catches bitrot in the
# benchmarks without paying for a full measurement.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# The end-to-end benchmark (perfbench/) is its own module, so `go build
# ./...` and `go vet ./...` above never compile it; vet and test it here
# so API changes it depends on cannot break it unnoticed.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .

# Native-fuzzing smoke of every fuzz target: seed corpus plus FUZZTIME
# of random exploration per target (go's fuzz engine takes one target
# per invocation). CI runs this as the fuzz-smoke job; raise FUZZTIME
# locally for a real exploration session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz='^FuzzParseSCIL$$' -fuzztime=$(FUZZTIME) ./internal/scil
	$(GO) test -run=^$$ -fuzz='^FuzzADLPlatform$$' -fuzztime=$(FUZZTIME) ./internal/adl
	$(GO) test -run=^$$ -fuzz='^FuzzSessionEdit$$' -fuzztime=$(FUZZTIME) ./internal/session
	$(GO) test -run=^$$ -fuzz='^FuzzVMExec$$' -fuzztime=$(FUZZTIME) ./internal/ir/vm
	$(GO) test -run=^$$ -fuzz='^FuzzSnapshotRemap$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzSlice$$' -fuzztime=$(FUZZTIME) ./internal/ir/slice
	$(GO) test -run=^$$ -fuzz='^FuzzHashRing$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run=^$$ -fuzz='^FuzzSolveMIP$$' -fuzztime=$(FUZZTIME) ./internal/lp

# Soak smokes, under the race detector: session churn (many sessions,
# randomized edits, eviction/TTL, differential verification) and the
# cluster scale-out check (2-replica coordinator must beat one
# constrained replica by >=1.5x on a cache-miss workload; skipped on
# single-core hosts).
soak:
	$(GO) test -race -run='^TestSessionSoak$$' -count=1 ./internal/session
	$(GO) test -race -run='^TestClusterSoakThroughput$$' -count=1 -v ./internal/service

# Statement coverage over the full module; prints the total and leaves
# cover.out (gitignored) for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# Print the registered pass pipeline (name, artifacts, cacheability,
# feedback-loop membership).
passes:
	$(GO) run ./cmd/argocc -passes

clean:
	$(GO) clean ./...
