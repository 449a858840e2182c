#!/bin/sh
# Full tier-1 gate: build, vet, tests, a race pass over the concurrent
# packages, and the lint gate.
# Run from the repository root:  sh scripts/check.sh
set -eu

go build ./...
go vet ./...
# perfbench is a module of its own, so the root build skips it; it
# imports the pipeline and compile APIs, so build and vet it here to
# catch API drift. (Its tests are the benchmark's own, run separately.)
(cd perfbench && go build -o /dev/null ./... && go vet ./...)
go test ./...
# Static determinism/zero-alloc gate: schedvet must run clean over the
# whole module (an //schedvet:alloc-free function gaining an allocation
# or a critical package gaining an unordered map range fails here).
go run ./cmd/schedvet ./...
# Race pass over every package that runs goroutines (worker pools,
# shared observers, the daemon and its cache, batch sharding, and the
# whole-loop compile workers) plus the public API that feeds them, and
# the assignment engine's differential/fuzz-seed tests.
go test -race ./internal/pool/ ./internal/obs/ ./internal/experiments/ ./internal/explore/ ./internal/cache/ ./internal/server/ ./internal/assign/ ./internal/pipeline/ ./internal/compile/ .
# Compile-corpus oracle: every kernel the streaming executor emits for
# the regression corpus must execute functionally identical to the
# naive non-pipelined loop (sim cross-validation plus the Livermore
# value-differential, across two machine configs).
go test -run 'TestCorpusSchedulesAndSimValidates|TestLivermoreValueDifferential' -count=1 ./internal/compile/
# Short benchmark smoke pass: the assignment benchmarks, the
# session/batch benchmarks and the daemon's cold/cached benchmarks must
# still run (allocation regressions fail in the test pass above; this
# catches benchmarks broken by API drift).
go test -run xxx -bench . -benchtime 2x ./internal/assign/
go test -run xxx -bench 'BenchmarkRunBatch|BenchmarkSessionSchedule' -benchtime 1x ./internal/pipeline/
go test -run xxx -bench 'BenchmarkServerCold|BenchmarkServerCached' -benchtime 1x ./internal/server/
# Daemon smoke: a real clusterd process serves the same request as a
# miss, then as a byte-identical hit, and drains on SIGTERM.
sh scripts/serve.sh
# Fleet kill-a-worker smoke: the multi-process e2e boots a clusterlb
# over three real clusterd processes, SIGKILLs one mid-load, and
# requires every reply to complete byte-identical to a single-node
# oracle with the survivors' caches still warm.
go test -run TestFleetKillWorkerEndToEnd -count=1 ./internal/fleettest/
sh scripts/lint.sh
echo "check: OK"
