GO ?= go
FUZZTIME ?= 15s

.PHONY: tier1 tier2 build vet test race bench fuzz

# tier1 is the gate every PR must keep green: full build, vet, and the
# test suite under the race detector. The snapshot/forwarding tests in
# core and thor run explicitly with -count 1 so the checkpoint machinery
# is always exercised fresh under -race, never served from the cache;
# the chaos/retry/quarantine tests likewise, because the fault-tolerance
# layer is all goroutine coordination (watchdogs, pull queue, breaker).
# The telemetry line pins the observability invariants: the registry's
# concurrent hot path, the exposition format, and the differential proof
# that instrumentation never changes LoggedSystemState. The netchaos
# line is the partition-tolerance pin: sharded campaigns crossing a
# seeded hostile network (drops, dup deliveries, truncation, full and
# asymmetric partitions, worker auth) must stay byte-identical to solo.
tier1:
	$(GO) build ./...
	$(GO) vet ./internal/core/ ./internal/thor/
	$(GO) vet ./...
	$(GO) test -race ./internal/core/ ./internal/thor/ ./internal/scifi/ . -run 'Snapshot|Forward' -count 1
	$(GO) test -race ./internal/thor/ ./internal/trigger/ . -run 'FastPath|RunUntilFast|StepBurst' -count 1
	$(GO) test -race ./internal/core/ ./internal/chaos/ . -run 'Chaos|Retry|Quarantine|Watchdog|Panic|InvalidRun|DrainsAndFlushes' -count 1
	$(GO) test -race ./internal/telemetry/ . -run 'Telemetry|Registry|Prometheus|Handler|Progress' -count 1
	$(GO) test -race ./internal/server/ ./internal/core/ ./internal/campaign/ -run 'Differential|Fleet|Tenant|Admission|Cancel|Submit' -count 1
	$(GO) test -race ./internal/shard/ ./internal/core/ . -run 'Shard|Partition|Coalesce' -count 1
	$(GO) test -race ./internal/shard/ ./internal/chaos/ -run 'NetChaos|NetRoundTripper|NetMaxFaults|NetDeterministic|Transport|Unauthorized|Delivery|Churn' -count 1
	$(GO) test -race ./internal/proctarget/ ./internal/core/ -run 'Proc|Framework|TargetRegistry|TargetDeterministic' -count 1
	$(GO) test -race ./...

# tier2 is the crash-safety suite: the WAL crash-injection and resume
# equivalence tests, the golden end-to-end report, plus a short fuzz
# smoke of the SQL front end and the record codec.
tier2:
	$(GO) test ./internal/sqldb/ -run 'WAL|Crash|Checkpoint|Stale|OpenAt|Replay' -count 1
	$(GO) test ./internal/campaign/ -run 'Checkpoint|RecoverCursor|Sink' -count 1
	$(GO) test ./internal/core/ -run 'Resume|Pause' -count 1
	$(GO) test ./cmd/goofi/ -run 'Resume' -count 1
	$(GO) test . -run 'Golden' -count 1
	$(MAKE) fuzz FUZZTIME=5s

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench regenerates the microbenchmark numbers, runs the PID campaign
# benchmark three times for stable medians, and runs the campaign
# benchmark (perfbench/, see perfbench/README.md) once per workload.
# The BENCH_PR*.json files are the history of earlier measurements.
bench:
	$(GO) test . -run xxx -bench . -benchtime 1x
	$(GO) test . -run xxx -bench BenchmarkCampaignPID -benchtime 1x -count 3
	bash perfbench/run.sh --workload pid-long --seed 42 --seconds 25 --trace 0
	bash perfbench/run.sh --workload sort16-wal --seed 42 --seconds 25 --trace 0
	bash perfbench/run.sh --workload sort16-sharded --seed 42 --seconds 25 --trace 0
	bash perfbench/run.sh --workload proc-matmul --seed 42 --seconds 25 --trace 0

# fuzz runs each native Go fuzzer for a bounded time (override with
# FUZZTIME=1m etc.): the SQL front end and the LoggedSystemState record
# codec. New corpus entries land in the build cache; crashers land in
# the fuzzed package's testdata/fuzz/<FuzzName> directory and should be
# committed alongside the fix.
fuzz:
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzParseSQL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzLexer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME)
