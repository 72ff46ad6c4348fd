# Convenience entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: build test lint bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt + go vet + the repo's own repcheck analyzers (ANALYSIS.md).
lint:
	bash scripts/lint.sh

# Every end-to-end workload of the repo benchmark (bench/run.sh; A/B with
# `bash bench/run.sh --compare parent/ change/`).
bench:
	bash bench/run.sh --seed 1
