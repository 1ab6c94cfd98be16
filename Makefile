# Reproduction harness for "Rain or Shine?" (ICDCS 2017).
# Everything is stdlib Go; no external dependencies.

GO ?= go

.PHONY: all build vet lint lint-fix lint-fix-check test race bench bench-fleet bench-fleet-check bench-fleet-multicore stream-replay stream-replay-check serve-load soak repro golden outputs examples fuzz clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# rainshinelint: the repo's own analyzer suite (benchgate, clockinject,
# ctxflow, detrand, frameclone, goleak, lockorder, nansafe, parsafe) run
# over every package, both standalone and as a `go vet -vettool`.
# Suppressions are per-line //lint:allow annotations with a reason;
# there are no package-wide excludes.
lint:
	$(GO) build -o bin/rainshinelint ./cmd/rainshinelint
	bin/rainshinelint ./...
	$(GO) vet -vettool=bin/rainshinelint ./...

# Apply every suggested fix in place (currently only clockinject:
# time.Now/Since on clock-injected types).
lint-fix:
	$(GO) build -o bin/rainshinelint ./cmd/rainshinelint
	bin/rainshinelint -fix ./...

# CI gate: -fix must be a no-op on a clean tree. Runs the fixer over a
# scratch copy (dot-prefixed so package loading skips it if left
# behind) and fails on any diff.
lint-fix-check:
	$(GO) build -o bin/rainshinelint ./cmd/rainshinelint
	rm -rf .lintfix-scratch
	mkdir -p .lintfix-scratch
	tar --exclude .git --exclude .lintfix-scratch --exclude bin -cf - . | (cd .lintfix-scratch && tar -xf -)
	cd .lintfix-scratch && $(CURDIR)/bin/rainshinelint -fix ./... || true
	diff -r --exclude .git --exclude .lintfix-scratch --exclude bin . .lintfix-scratch
	rm -rf .lintfix-scratch

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark sweep, then the regression snapshot: TestBenchAnalysis
# records ns/op + allocs/op for the hot analyses (CART fit, CV, Q3,
# figure regeneration, predictor training) to BENCH_analysis.json.
bench:
	$(GO) test -bench=. -benchmem .
	RAINSHINE_BENCH_OUT=$(CURDIR)/BENCH_analysis.json \
		$(GO) test -run 'TestBenchAnalysis$$' -count=1 -v .

# Fleet-scale benchmark + regression gate: the 1M-row binned CART fit
# with -benchmem, then TestBenchFleet, which fails if cart_fit_20k or
# cart_fit_1m_binned regressed >15% ns/op against BENCH_analysis.json
# and merges fresh numbers into the snapshot (recording the
# cart_fit_1m_exact baseline on first run), then the typed coding-pass
# gate (>=2x over the float64 layout, coding_pass_1m_typed mark).
# Recorded marks carry gomaxprocs; gates only engage like-for-like.
bench-fleet:
	$(GO) test -run XXX -bench 'CARTFit1MBinned$$' -benchmem -count=1 .
	RAINSHINE_BENCH_FLEET=1 RAINSHINE_BENCH_OUT=$(CURDIR)/BENCH_analysis.json \
		$(GO) test -run 'TestBenchFleet$$' -count=1 -v .
	RAINSHINE_BENCH_FLEET=1 RAINSHINE_BENCH_OUT=$(CURDIR)/BENCH_analysis.json \
		RAINSHINE_BENCH_SNAP=$(CURDIR)/BENCH_analysis.json \
		$(GO) test -run 'TestBenchFleetCodingPass$$' -count=1 -v ./internal/cart/

# Gate-only variant for CI: compares against the committed snapshot
# without rewriting it.
bench-fleet-check:
	RAINSHINE_BENCH_FLEET=1 $(GO) test -run 'TestBenchFleet$$' -count=1 -v .
	RAINSHINE_BENCH_FLEET=1 \
		$(GO) test -run 'TestBenchFleetCodingPass$$' -count=1 -v ./internal/cart/

# Multicore gate (needs >=4 procs; skips with a log on narrower boxes):
# the 1M-row binned fit with Workers=GOMAXPROCS must be byte-identical
# to serial and >=2x faster, best-of-5 vs best-of-3. Check-only — set
# RAINSHINE_BENCH_OUT to merge cart_fit_1m_binned_multicore into a
# snapshot on a box where the numbers are reproducible.
bench-fleet-multicore:
	RAINSHINE_BENCH_FLEET=1 \
		$(GO) test -run 'TestBenchFleetMulticore$$' -count=1 -timeout 20m -v ./internal/cart/

# Streaming gate: the streamed-vs-batch byte-identity replay tests under
# the race detector, then TestBenchStreamRefit, which fails unless the
# single-day incremental refit beats a from-scratch full refit (and
# regressed <15% vs the snapshot), merging incremental_refit_20k into
# BENCH_analysis.json.
stream-replay:
	$(GO) test -race -count=1 -run 'TestStreamReplayByteIdentical' -v ./internal/stream/
	RAINSHINE_BENCH_STREAM=1 RAINSHINE_BENCH_OUT=$(CURDIR)/BENCH_analysis.json \
		$(GO) test -run 'TestBenchStreamRefit$$' -count=1 -v .

# Gate-only variant for CI: compares against the committed snapshot
# without rewriting it.
stream-replay-check:
	$(GO) test -race -count=1 -run 'TestStreamReplayByteIdentical' -v ./internal/stream/
	RAINSHINE_BENCH_STREAM=1 $(GO) test -run 'TestBenchStreamRefit$$' -count=1 -v .

# Concurrent load test against the serve daemon (32 parallel clients,
# mixed endpoints, 3 distinct configs) under the race detector; records
# the throughput summary to BENCH_serve.json's "load" section.
serve-load:
	RAINSHINE_BENCH_OUT=$(CURDIR)/BENCH_serve.json \
		$(GO) test -race -count=1 -run TestServeLoad -v ./internal/server/

# Deterministic chaos soak: byte-stable degraded responses for a fixed
# seed, then hundreds of concurrent clients against deliberately tight
# admission limits with every chaos class on, under the race detector.
# Fails on latency-SLO or availability regressions; records the run to
# BENCH_serve.json's "soak" section.
soak:
	RAINSHINE_BENCH_OUT=$(CURDIR)/BENCH_serve.json \
		$(GO) test -race -count=1 -timeout 10m -run 'TestChaosSoak' -v ./internal/server/

# Regenerate every paper table and figure at full scale (seed 42).
repro:
	$(GO) run ./cmd/rainshine all

# Rewrite the seed-42 paper goldens from the CLI: `-exact all` into
# docs/paper_run_seed42.txt, and ablate, pooling, opex and predict,
# joined by blank lines, into docs/extensions_seed42.txt.
# TestPaperGolden (cmd/rainshine) compares the CLI against both; run
# this when a change moves the outputs on purpose.
golden:
	$(GO) build -o bin/rainshine ./cmd/rainshine
	bin/rainshine -exact all > docs/paper_run_seed42.txt
	{ bin/rainshine ablate && echo && bin/rainshine pooling && echo && \
		bin/rainshine opex && echo && bin/rainshine predict; } > docs/extensions_seed42.txt

# Record the canonical outputs referenced by EXPERIMENTS.md.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/spareprovisioning
	$(GO) run ./examples/vendorselection
	$(GO) run ./examples/climatecontrol
	$(GO) run ./examples/failureprediction
	$(GO) run ./examples/operations
	$(GO) run ./examples/externaldata

fuzz:
	$(GO) test -fuzz FuzzReadFrameCSV -fuzztime 30s ./internal/export/
	$(GO) test -fuzz FuzzNullBitmapRoundTrip -fuzztime 30s ./internal/export/
	$(GO) test -fuzz FuzzTypedColumnCSVRoundTrip -fuzztime 30s ./internal/export/
	$(GO) test -fuzz FuzzTicketsCSVRoundTrip -fuzztime 30s ./internal/export/
	$(GO) test -fuzz FuzzIngestTickets -fuzztime 30s ./internal/ingest/
	$(GO) test -fuzz FuzzQuantile -fuzztime 30s ./internal/stats/
	$(GO) test -fuzz FuzzChiSquareCDF -fuzztime 30s ./internal/stats/

clean:
	rm -f test_output.txt bench_output.txt
	rm -rf .lintfix-scratch bin
