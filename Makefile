# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench obsreport experiments claims profile fmt vet loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/par/ ./internal/analysis/ ./internal/tasks/ \
		./internal/centrality/ ./internal/uds/ ./internal/stream/ \
		./internal/core/ ./internal/matching/ ./internal/obs/ ./internal/msbfs/ \
		./internal/graph/

# Run the pipeline benchmark (bench/, described by BENCHMARK.json): shed
# and evaluate generated graphs end to end, every workload in turn. For
# one workload: bash bench/run.sh --workload suite-grqc
bench:
	bash bench/run.sh

# Render the cross-run quality trend report over a directory of run
# manifests (-metrics output). Add OBSREPORT_FLAGS="-max-regress 10%" to
# fail on quality regressions; `go run ./cmd/obsreport diff a.json b.json`
# compares two runs.
#
#	make obsreport RUNS=results/quality
RUNS ?= results
OBSREPORT_FLAGS ?=
obsreport:
	$(GO) run ./cmd/obsreport $(OBSREPORT_FLAGS) $(RUNS)

# Reproduce every paper artifact at laptop scale and self-audit the shapes.
experiments:
	$(GO) run ./cmd/experiments -run all -scale 32 -out results/full_scale32.txt
	$(GO) run ./cmd/checkclaims -in results/full_scale32.txt

claims:
	$(GO) run ./cmd/checkclaims -in results/full_scale8.txt

# Capture a worked observability example (EXPERIMENTS.md): a CRR reduction
# of a scale-16 ca-HepPh stand-in with a JSON run manifest, CPU profile and
# execution trace, then summarize the profile.
profile:
	mkdir -p results/profile
	$(GO) run ./cmd/gengraph -dataset ca-HepPh -scale 16 -seed 1 -out results/profile/hepph.txt
	$(GO) run ./cmd/shed -in results/profile/hepph.txt -out results/profile/reduced.txt \
		-method crr -p 0.5 -seed 1 \
		-metrics results/profile/run.json -stats-json results/profile/stats.json \
		-profile cpu -profile-out results/profile/cpu.pprof -trace results/profile/trace.out
	$(GO) tool pprof -top -nodecount 15 results/profile/cpu.pprof

fmt:
	gofmt -w .

# Count the Go lines of tracked files outside bench/ (its own module):
# non-test, then test. These are the figures a change's line count reports.
loc:
	@printf 'non-test Go lines: '; git ls-files -- '*.go' ':!bench/' | grep -v '_test\.go$$' | xargs cat | wc -l
	@printf 'test Go lines:     '; git ls-files -- '*.go' ':!bench/' | grep '_test\.go$$' | xargs cat | wc -l

vet:
	$(GO) vet ./...

clean:
	rm -rf .bench_build test_output.txt bench_output.txt
