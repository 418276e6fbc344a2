GO ?= go

# Build version stamped into the binaries (pilfilld_build_info, -version).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X pilfill/internal/obs.Version=$(VERSION)"

.PHONY: ci fmt vet build test race cluster-smoke bench bench-solver bench-solver-short bench-engine bench-engine-short bench-chip bench-chip-short trace-smoke cluster-trace-smoke serve

ci: fmt vet build test race cluster-smoke trace-smoke cluster-trace-smoke bench-solver-short bench-engine-short bench-chip-short

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/jobqueue ./internal/server ./internal/obs ./internal/shard ./internal/cluster

# Cluster bit-identity smoke test under the race detector: in-process
# multi-worker scatter/gather (including the kill-a-worker fault path) must
# produce a merged report bit-identical to the single-process run.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestClusterBitIdentical|TestClusterSurvivesWorkerKill' ./internal/cluster

bench:
	$(GO) test -bench 'EnginePreprocess' -benchtime 10x -run '^$$' .

# Solver-core benchmark (ILP-I, ILP-II and the DualAscent path): runs the
# BenchmarkILPI/BenchmarkILPII/BenchmarkSimplex microbenchmarks and writes
# the node/pivot work per case — with each path's pivots==0 fraction, the
# dual fallback rate, and bit-equality checks of the dual objective against
# the ILP optima — to BENCH_solver.json, failing above the frozen per-case
# work ceilings (half the row-based reference's work) or below the 5x dual
# wall-time floor.
# bench-solver-short is the single-case CI variant; it writes its own
# BENCH_solver_short.json so CI never overwrites the full-run file.
bench-solver:
	$(GO) test -bench 'ILPI$$|ILPII$$|Simplex' -benchtime 2x -run '^$$' .
	$(GO) run ./cmd/benchsolver -check -o BENCH_solver.json

bench-solver-short:
	$(GO) run ./cmd/benchsolver -short -check -o BENCH_solver_short.json

# End-to-end engine benchmark (warm steady-state solve path): per method
# tiles/sec, ns/tile and allocs/op plus the ILP-II worker-scaling curve,
# written to BENCH_engine.json. Fails above 1 alloc per tile for any method,
# below the 5x DualAscent solve-phase ns/tile reduction over ILP-II, or when
# a warm run's result diverges from the warm-up run's.
# bench-engine-short is the single-case CI variant (no scaling sweep),
# written to BENCH_engine_short.json.
bench-engine:
	$(GO) run ./cmd/benchengine -check -o BENCH_engine.json

bench-engine-short:
	$(GO) run ./cmd/benchengine -short -check -o BENCH_engine_short.json

# Chip-scale dedup benchmark: a synthetic repeating-pattern chip solved with
# the content-hash tile memo off and on, written to BENCH_chip.json. Fails
# below the 10x dedup-speedup or 100x pattern-repetition floors, or on any
# memo-on vs memo-off result divergence. bench-chip is the full
# 1000x1000-tile (1M-tile) chip; bench-chip-short is the 100x100 CI variant.
bench-chip:
	$(GO) run ./cmd/benchchip -check -o BENCH_chip.json

bench-chip-short:
	$(GO) run ./cmd/benchchip -short -check -o BENCH_chip_short.json

# Tracing smoke test: run a small case with -trace and validate the Chrome
# trace-event JSON (parses, has the run/prep/tile/solve span hierarchy).
trace-smoke:
	$(GO) run ./cmd/pilfill -case T2 -window 32 -r 2 -method Greedy -trace trace-smoke.json >/dev/null
	$(GO) run ./cmd/tracecheck trace-smoke.json
	@rm -f trace-smoke.json

# Cluster tracing smoke test: an in-process two-worker chip run with span
# collection, under the race detector, writes the merged multi-process trace;
# tracecheck then lints it in -multi mode (coordinator lane plus one process
# group per region dump, every span's parent resolving within its process).
cluster-trace-smoke:
	$(GO) test -race -count=1 -run TestClusterMergedTrace ./internal/cluster \
		-args -cluster-trace-out $(CURDIR)/cluster-trace-smoke.json
	$(GO) run ./cmd/tracecheck -multi \
		-names run,tile,solve,chip,region,attempt,merge cluster-trace-smoke.json
	@rm -f cluster-trace-smoke.json

# Run the fill-synthesis daemon with development-friendly settings.
serve:
	$(GO) run $(LDFLAGS) ./cmd/pilfilld -addr :8419 -queue-capacity 32 -pprof
