GO ?= go

.PHONY: check vet build test race bench-smoke fuzz-smoke trace-demo mem-demo insight-demo telem-demo bench-gate bench-baseline loc

# check is the tier-1 gate: everything must pass before a merge.
check: vet build test race bench-smoke fuzz-smoke

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l *.go bench cmd examples internal); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree runs under the race detector, so a new package is
# covered without anyone adding it to a list. -short skips the
# experiments sweep (most of the full run's wall time); the
# concurrent code it drives has its own package tests.
race:
	$(GO) test -race -short ./...

# bench-smoke vets and smoke-tests the end-to-end benchmark. bench/ is
# its own module (replace repro => ../), so `go test ./...` above never
# builds it; without this a refactor of internal/ that breaks it would
# only fail the benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# fuzz-smoke runs every native fuzz target in the tree for a few
# seconds each: the committed seed corpus (testdata/fuzz) first, then
# whatever the mutator reaches in FUZZ_TIME. `go test -fuzz` takes one
# target of one package at a time, so the targets are listed first; a
# crasher is written to the package's testdata/fuzz and fails the run.
FUZZ_TIME ?= 5s

fuzz-smoke:
	@$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { names = names " " $$1 } /^ok/ { n = split(names, t, " "); for (i = 1; i <= n; i++) print $$2, t[i]; names = "" }' | \
	while read -r pkg target; do \
		echo "fuzz $$pkg $$target ($(FUZZ_TIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZ_TIME) -fuzzminimizetime 2s $$pkg || exit 1; \
	done

# trace-demo runs a faulted fwsim demo, dumps its event journal as
# Chrome trace-event JSON, and sanity-checks that the dump parses and
# carries events (cmd/tracecheck). The artifact is Perfetto-loadable.
trace-demo:
	$(GO) run ./cmd/fwsim -metrics text -nodes 3 -invocations 12 -faults seed=7,rate=0.05 -trace-dump trace-demo.json > /dev/null
	$(GO) run ./cmd/tracecheck trace-demo.json
	rm -f trace-demo.json

# bench-gate runs the hot-path benchmarks and compares them against
# the committed baseline (BENCH_simharness.json), failing on
# regression. CI uses a short benchtime; see docs/benchmarking.md for
# the tolerance policy. Both targets pin GOMAXPROCS=1: the committed
# baseline is recorded that way, and the parallel benchmarks' ratios
# (msgbus_batch_speedup) only compare like with like.
bench-gate:
	GOMAXPROCS=1 $(GO) run ./cmd/benchgate -benchtime 200ms -out bench-fresh.json

# bench-baseline refreshes the committed baseline from a longer run on
# the current machine. Commit the resulting BENCH_simharness.json.
bench-baseline:
	GOMAXPROCS=1 $(GO) run ./cmd/benchgate -write -benchtime 1s -count 2

# insight-demo replays the chaos storm through the insight experiment,
# writes the report and service-graph artifacts, and fails on any WARN
# shape check (blame attribution, exemplar resolution, same-seed
# byte-identical reports).
insight-demo:
	mkdir -p insight-demo-artifacts
	$(GO) run ./cmd/fwbench -run insight -artifacts insight-demo-artifacts > insight-demo.log || { cat insight-demo.log; rm -f insight-demo.log; exit 1; }
	cat insight-demo.log
	! grep -q '\[WARN' insight-demo.log
	grep -q 'digraph insight' insight-demo-artifacts/insight-servicegraph.dot
	test -s insight-demo-artifacts/insight-report.json
	rm -f insight-demo.log

# telem-demo runs the tail-sampling experiment — the exposed chaos
# storm with the telemetry governor armed — writes the sampled NDJSON
# journal and coverage-annotated insight report, and fails on any WARN
# shape check (>=5x byte reduction, 100% error/fault/DLQ retention,
# same-seed byte-identical exports).
telem-demo:
	mkdir -p telem-demo-artifacts
	$(GO) run ./cmd/fwbench -run telem -artifacts telem-demo-artifacts > telem-demo.log || { cat telem-demo.log; rm -f telem-demo.log; exit 1; }
	cat telem-demo.log
	! grep -q '\[WARN' telem-demo.log
	test -s telem-demo-artifacts/telem-sampled.ndjson
	test -s telem-demo-artifacts/telem-insight.json
	rm -f telem-demo.log

# mem-demo runs the memory-timeline experiment (Fig-10 methodology on a
# scaled host), writes its CSV artifacts, and sanity-checks them with
# cmd/memcheck: header shape, the mem_used_bytes series, and strictly
# advancing virtual timestamps.
mem-demo:
	mkdir -p mem-demo-artifacts
	$(GO) run ./cmd/fwbench -run memtl -artifacts mem-demo-artifacts
	$(GO) run ./cmd/memcheck mem-demo-artifacts/memory-timeline-fireworks.csv
	$(GO) run ./cmd/memcheck mem-demo-artifacts/memory-timeline-firecracker.csv

# loc prints a PR's column of the table in DESIGN.md §6 — non-test .go
# lines of tracked files per package, in the table's row order — so the
# column is generated rather than hand-counted.
LOC_OBSERVABILITY = internal/metrics internal/timeseries internal/events internal/insight internal/telemetry internal/trace
LOC_MECHANISM = internal/core internal/vmm internal/snapshot internal/mem internal/chunk
LOC_OTHER = internal/lang internal/runtime internal/platform internal/experiments internal/workflow internal/cluster internal/stats cmd/fwsim cmd/fwcli cmd/benchgate

loc:
	@lines() { grep '\.go$$' | grep -v '_test\.go$$' | xargs cat | wc -l; }; \
	rows() { sum=0; for p in $$2; do n=$$(git ls-files -- $$p | lines); echo "| \`$$p\` | $$n |"; sum=$$((sum+n)); done; \
		[ -z "$$1" ] || echo "| **$$1, sum** | **$$sum** |"; }; \
	{ rows observability "$(LOC_OBSERVABILITY)"; rows mechanism "$(LOC_MECHANISM)"; rows "" "$(LOC_OTHER)"; \
	  echo "| **repo total** | **$$(git ls-files | grep -v '^bench/' | lines)** |"; \
	  echo "| \`bench_test.go\` (test file, all lines) | $$(wc -l < bench_test.go) |"; \
	} | sed -E ':a;s/([0-9])([0-9]{3})\b/\1,\2/;ta'
