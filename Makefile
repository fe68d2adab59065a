GO ?= go
GOFMT ?= gofmt

.PHONY: check build vet fmt test race bench-all bench-smoke race-ckpt race-simnet race-sched-single race-sched-multi race-farm race-spectral fuzz-smoke repro-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any file needs reformatting; print the offenders.
fmt:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The simulator runs one goroutine per rank; everything must stay
# race-detector clean. This is the full gate a PR must pass.
race:
	$(GO) test -race ./...

# Regenerate the committed baselines (BENCH_*.json at the repo root)
# through the one recorder, `repro -record`: every experiment that has
# a baseline, or just NAMES="ckptbench engine". Each file is stamped
# with commit, date, Go version, NumCPU and GOMAXPROCS. Run after an
# intentional cost change and commit the diff; the whole set takes
# about three and a half minutes on a 2-vCPU host.
bench-all:
	$(GO) run ./cmd/repro -record $(NAMES)

# The async writer is the only real host-side concurrency in the repo
# besides the parallel simnet scheduler; hammer it under the race
# detector beyond the single pass `race` gives.
race-ckpt:
	$(GO) test -race -count=2 ./internal/ckpt

# Force the host-parallel simnet scheduler (SchedAuto resolves to the
# serial reference) and put every layer that runs rank goroutines —
# the simulator itself, the MPI layer and all three solvers — under
# the race detector.
race-simnet:
	NEKTAR_SIMNET_SCHED=parallel $(GO) test -race -count=1 \
		./internal/simnet ./internal/mpi \
		./internal/core ./internal/bench

# The scheduler-equivalence suites (serial vs conservative-parallel
# differential, resolver validation, P=2048 capacity) must hold on both
# a single-core budget and a multi-core one, where the conservative
# scheduler must stay bit-identical while goroutines genuinely
# interleave. Both pins run race-enabled.
race-sched-single:
	GOMAXPROCS=1 $(GO) test -race -count=1 \
		-run 'Scheduler|ManyRanks' ./internal/simnet ./internal/mpi
race-sched-multi:
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'Scheduler|ManyRanks' ./internal/simnet ./internal/mpi

# The farm daemon runs a worker pool, retry timers, an HTTP server, and
# chaos injection against one mutex-guarded state machine; hammer it
# (and the quick subprocess chaos campaign) under the race detector.
race-farm:
	$(GO) test -race -count=1 ./internal/farm \
		&& $(GO) test -race -count=1 ./internal/bench -run TestFarmbenchChaos

# The pseudospectral solvers run per-thread flop recorders and the
# distributed transpose inside rank goroutines; force the parallel
# scheduler and put the package plus its transform substrate under the
# race detector.
race-spectral:
	NEKTAR_SIMNET_SCHED=parallel $(GO) test -race -count=1 \
		./internal/spectral ./internal/fft

# The checkpoint-record parser, the state codec inside it, the trace
# reader, the farm journal's replay and the farm's job-spec decoder
# read bytes from outside the program (restart files, recorded traces,
# whatever a crash left in the journal, POST /v1/jobs bodies); ten
# seconds of native fuzzing each on top of the seed corpus plain
# `go test` already runs. Each new
# interesting input would otherwise be minimized for up to a minute,
# during which the worker runs no new inputs: the smoke would stall
# after its first find. A failing input is still reported, unminimized.
FUZZ_SMOKE = -run '^$$' -fuzztime 10s -fuzzminimizetime 1x
fuzz-smoke:
	$(GO) test $(FUZZ_SMOKE) -fuzz FuzzDecodeRecord ./internal/ckpt
	$(GO) test $(FUZZ_SMOKE) -fuzz FuzzDecodeState ./internal/engine
	$(GO) test $(FUZZ_SMOKE) -fuzz FuzzReadEvents ./internal/engine
	$(GO) test $(FUZZ_SMOKE) -fuzz FuzzOpenJournal ./internal/farm
	$(GO) test $(FUZZ_SMOKE) -fuzz FuzzDecodeJobSpec ./internal/farm

# Every registry experiment that runs in seconds at -quick, through the
# repro front end: one pass over the registry, the flag parser and the
# report writers, including Table 3 at P=16.
repro-smoke:
	$(GO) run ./cmd/repro -quick fig7_pingpong fig9-10_basis spectral spectral -procs 4 -n 32 -steps 4 ckptbench scalebench trace table3_fig15-16_nektarale -procs 16

# The gated benchmark at smoke sizes (under a second of measurement):
# every workload runs, and the exit code is non-zero if an op fails or a
# cycles-bit-identical / slab-equals-serial / one-rank-energy / farm
# audit check does. The numbers it prints mean nothing at this size.
bench-smoke:
	bash benchmark/run.sh -quick

# Everything CI runs, in CI's order.
check: build vet fmt race race-ckpt race-simnet race-sched-single race-sched-multi race-farm race-spectral fuzz-smoke repro-smoke bench-smoke
