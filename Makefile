GO ?= go

.PHONY: check vet build test race bench-smoke fuzz-smoke demo contract-cover bench-gate bench-baseline loc

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

# demo writes the telemetry exports of a few fwcli runs into
# demo-artifacts/, one directory per CI artifact: the memory-timeline
# CSVs of a Fireworks and a cold-booted Firecracker run; the insight
# report (blame tables and service-graph DOT) with the run's
# Perfetto-loadable trace; and a tail-sampled run's NDJSON journal with
# its coverage-annotated insight report. It asserts nothing: the
# checks on these exports are tests (storm_test.go and the packages').
DEMO = demo-artifacts
DEMO_FWCLI_ARGS = -builtin faas-fact-nodejs -repeat 20
DEMO_FWCLI = $(GO) run ./cmd/fwcli $(DEMO_FWCLI_ARGS)

demo:
	mkdir -p $(DEMO)/memory-timeline $(DEMO)/insight-report $(DEMO)/telem-report
	$(DEMO_FWCLI) -timeseries-dump $(DEMO)/memory-timeline/memory-timeline-fireworks.csv > /dev/null
	$(DEMO_FWCLI) -platform firecracker -mode cold -timeseries-dump $(DEMO)/memory-timeline/memory-timeline-firecracker.csv > /dev/null
	$(DEMO_FWCLI) -insight -trace-dump $(DEMO)/insight-report/insight-trace.json > $(DEMO)/insight-report/insight-report.txt
	$(DEMO_FWCLI) -telem seed=7,rate=0.05 -trace-dump $(DEMO)/telem-report/telem-sampled.ndjson -insight > $(DEMO)/telem-report/telem-insight.txt

# contract-cover prints the share of the module's statements that the
# contract executes: fwbench's paper checks, the five examples, demo's
# four fwcli runs and bench/'s four gateway workloads, each built with
# coverage over the whole module and run with GOCOVERDIR in a temporary
# directory. The workloads run traced (e2ebench -trace 1 at a fixed
# -ops), which replays each one in-process through bench/mirror.go's
# copy of the gateway wiring. cmd/fwsim's own handlers stay unmeasured
# while bench/ stops the gateway with SIGKILL, which no coverage flush
# survives (ROADMAP item 6). bench/'s own rows are dropped: it is a
# module of its own, whose files go tool cover cannot resolve from
# here. The functions no run entered, bar lang/ast.go's empty marker
# methods, are written to $(CONTRACT_UNCOVERED). It is not part of
# check; its figure is a row of DESIGN.md §6.
CONTRACT_UNCOVERED = contract-uncovered.txt

contract-cover:
	@dir=$$(mktemp -d) && trap 'rm -rf $$dir' EXIT && mkdir -p $$dir/bin $$dir/data $$dir/out && \
	$(GO) build -cover -coverpkg=./... -o $$dir/bin/ ./cmd/fwbench ./cmd/fwcli ./examples/... && \
	$(GO) build -o $$dir/bin/fwsim ./cmd/fwsim && \
	(cd bench && $(GO) build -cover -coverpkg=repro/... -o $$dir/bin/e2ebench .) && \
	export GOCOVERDIR=$$dir/data && \
	$$dir/bin/fwbench -run all > /dev/null && \
	for ex in $$(ls examples); do $$dir/bin/$$ex > /dev/null || exit 1; done && \
	$(MAKE) --no-print-directory demo DEMO=$$dir/demo DEMO_FWCLI="$$dir/bin/fwcli $(DEMO_FWCLI_ARGS)" > /dev/null && \
	$$dir/bin/e2ebench -trace 1 -ops 300 -fwsim $$dir/bin/fwsim -outdir $$dir/out > /dev/null && \
	$(GO) tool covdata textfmt -i=$$dir/data -o $$dir/merged.txt && \
	grep -v '^repro/bench/' $$dir/merged.txt > $$dir/profile.txt && \
	$(GO) tool cover -func=$$dir/profile.txt > $$dir/func.txt && \
	awk '$$NF == "0.0%" && !($$1 ~ /^repro\/internal\/lang\/ast\.go:/ && $$2 ~ /^(node|stmt|expr)$$/)' $$dir/func.txt > $(CONTRACT_UNCOVERED) && \
	tail -1 $$dir/func.txt && \
	echo "never entered: $$(wc -l < $(CONTRACT_UNCOVERED)) functions, listed in $(CONTRACT_UNCOVERED)"

# loc prints a PR's column of the table in DESIGN.md §6 — non-test .go
# lines of tracked files per package, in the table's row order — so the
# column is generated rather than hand-counted.
LOC_OBSERVABILITY = internal/metrics internal/timeseries internal/events internal/insight internal/telemetry
LOC_MECHANISM = internal/core internal/vmm internal/snapshot internal/mem internal/chunk
LOC_OTHER = internal/lang internal/annotate internal/runtime internal/vclock internal/platform internal/faults internal/netsim internal/experiments internal/workflow internal/cluster internal/stats cmd/fwsim cmd/fwcli cmd/benchgate

loc:
	@lines() { grep '\.go$$' | grep -v '_test\.go$$' | xargs cat | wc -l; }; \
	rows() { sum=0; for p in $$2; do n=$$(git ls-files -- $$p | lines); echo "| \`$$p\` | $$n |"; sum=$$((sum+n)); done; \
		[ -z "$$1" ] || echo "| **$$1, sum** | **$$sum** |"; }; \
	{ rows observability "$(LOC_OBSERVABILITY)"; rows mechanism "$(LOC_MECHANISM)"; rows "" "$(LOC_OTHER)"; \
	  echo "| **repo total** | **$$(git ls-files | grep -v '^bench/' | lines)** |"; \
	  echo "| \`bench_test.go\` (test file, all lines) | $$(wc -l < bench_test.go) |"; \
	} | sed -E ':a;s/([0-9])([0-9]{3})\b/\1,\2/;ta'
