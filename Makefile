# tsperr build/verify targets.
#
# `make check` is the tier-2 verification gate: vet, the project linters
# (tsperrlint source passes + the netlist structural lint), and the full
# test suite under the race detector (the resilience tests exercise the
# scenario worker pool concurrently).

GO ?= go

.PHONY: all build test fmt-check lint lint-fix-check check fuzz cover smoke smoke-cluster smoke-surrogate smoke-oppoint bench pprof clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# `make fmt-check` fails when gofmt would rewrite any tracked Go file
# outside testdata/ (analyzer fixtures there keep their deliberate layout).
fmt-check:
	@files=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$files" ]; then echo "gofmt -l lists unformatted files:"; echo "$$files"; exit 1; fi

# `make lint` runs the project-specific static analysis (DESIGN.md §9/§14):
# the gofmt check, the tsperrlint pass suite over every package including
# test files, the structural lint over every generated pipeline netlist, and
# the suppression-budget ratchet (lint.budget: directive counts only go down).
lint: fmt-check
	$(GO) run ./cmd/tsperrlint -tests ./...
	$(GO) run ./cmd/tsperrlint -netlist
	$(GO) run ./cmd/tsperrlint -ignores -budget lint.budget ./... >/dev/null

# `make lint-fix-check` asserts the tree is triage-clean: all seven
# analyzers report nothing (no outstanding fix-ups) and the suppression
# inventory is within budget. CI runs it; run it before sending a PR that
# touches determinism-, slab- or batch-sensitive code.
lint-fix-check: lint
	@echo "lint-fix-check: triage clean — 0 findings, suppressions within budget"

check: lint fuzz
	$(GO) vet ./...
	$(GO) test -race ./...

# `make fuzz` runs the native fuzz targets briefly: long enough to catch a
# canonical-hashing regression, short enough for the pre-commit gate. The
# checked-in seed corpus always runs as part of `make test` regardless.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRequestHash -fuzztime $(FUZZTIME) ./internal/server/

# `make cover` is the coverage ratchet: total statement coverage must stay
# at or above COVER_MIN. Raise the floor when coverage grows; never lower it
# to admit a regression. (Measured 78.9% when the ratchet was introduced.)
COVER_MIN ?= 75.0

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { sub(/%/, "", $$3); \
		   if ($$3 + 0 < min) { printf "FAIL: coverage %.1f%% below ratchet %.1f%%\n", $$3, min; exit 1 } \
		   printf "coverage %.1f%% (ratchet %.1f%%)\n", $$3, min }'

# `make smoke` runs the tsperrd daemon end to end: warm-up, one estimate, a
# 16-request dedup burst, and a SIGTERM drain (mirrors the CI smoke job).
smoke:
	./scripts/tsperrd-smoke.sh

# `make smoke-cluster` runs the distributed chaos smoke: a coordinator plus
# two workers, one SIGKILLed mid-run; the surviving nodes must return a
# complete validation byte-identical to a single-node run, then drain cleanly.
smoke-cluster:
	./scripts/tsperrd-cluster-smoke.sh

# `make smoke-surrogate` runs the two-tier daemon end to end: untrained
# escalations, background training, shadow residuals from forced-exact
# requests, the response tier field, and a SIGTERM drain.
smoke-surrogate:
	./scripts/tsperrd-surrogate-smoke.sh

# `make smoke-oppoint` runs the operating-point search end to end: a 2x2
# voltage/temperature grid through POST /v1/oppoint, a warm re-run that must
# answer every bisection probe from the cache (pinned via the oppoint
# sub-request metrics), and a SIGTERM drain.
smoke-oppoint:
	./scripts/tsperrd-oppoint-smoke.sh

# `make bench` records the full benchmark suite as go-test JSON events in
# BENCH_<date>.json (benchstat-friendly after extracting the output lines:
#   jq -r 'select(.Action=="output").Output' BENCH_<date>.json | benchstat -).
BENCH_OUT := BENCH_$(shell date +%Y-%m-%d).json

bench:
	$(GO) test -run '^$$' -bench . -benchmem -json . | tee $(BENCH_OUT)

# `make pprof` captures CPU and allocation profiles of the warm end-to-end
# stringsearch estimate (BenchmarkEndToEndWarm drives the simulate -> activity
# -> DTA hot path). Inspect with:
#   go tool pprof -top cpu.prof
#   go tool pprof -top -sample_index=alloc_objects mem.prof
pprof:
	$(GO) test -run '^$$' -bench 'BenchmarkEndToEndWarm$$' -benchtime 1000x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof / mem.prof; try: $(GO) tool pprof -top cpu.prof"

clean:
	$(GO) clean ./...
