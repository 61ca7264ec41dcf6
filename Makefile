# BayesSuite-Go build/test entry points.
#
# `make` (or `make ci`) is the default verification flow: vet, the full
# test suite, and a race-detector pass over the concurrency-sensitive
# packages (the multi-chain runner and the streaming convergence
# detector), exercising Parallel configurations.

GO ?= go

.PHONY: ci build fmt-check vet test race fuzz fault-matrix pins bench bench-runner bench-kernels bench-hw bench-compare deadcode

ci: fmt-check vet test race fuzz fault-matrix pins

build:
	$(GO) build ./...

# Gate on canonical formatting: gofmt -l prints offending files, so any
# output fails the target.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# go vet's asmdecl check holds internal/mathx/vec_amd64.s to its Go
# declarations. The arm64 pass cross-compiles (offline, no cgo) what every
# non-amd64 build uses instead of that file: the Go encoding of the link
# functions and the kernels on top of it. The benchmark is its own module
# (benchmark/go.mod) that ./... does not reach; it compiles against
# internal symbols (mcmc.Config.BatchGrad, model.NewBatchEvaluator, the
# batched kernels), so a change to those must build and vet it too.
# The arm64 compiler fuses x*y+z into one instruction wherever the source
# lets it, which would give an arm64 build other kernel bits than amd64:
# the fused-op check disassembles the arm64 test binaries of mathx and
# kernels and fails on any fused multiply-add in glm.go, gp.go, cjs.go,
# occupancy.go, logit.go, vec.go or rows.go that does not come from a
# line calling math.FMA.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/mathx/ ./internal/kernels/
	GOARCH=arm64 $(GO) build ./...
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for p in mathx kernels; do \
		GOARCH=arm64 $(GO) test -c -o "$$tmp/$$p.test" ./internal/$$p/ || exit 1; \
		$(GO) tool objdump "$$tmp/$$p.test" > "$$tmp/$$p.asm" || exit 1; \
	done; \
	awk '$$1 ~ /^(glm|gp|cjs|occupancy|logit|vec|rows)\.go:[0-9]+$$/ && $$4 ~ /^FN?M(ADD|SUB)D$$/ { print $$1 }' "$$tmp"/*.asm | sort -u | \
	while IFS=: read -r f n; do \
		case $$f in vec.go|rows.go) d=internal/mathx ;; *) d=internal/kernels ;; esac; \
		sed -n "$${n}p" "$$d/$$f" | grep -q 'math\.FMA(' || echo "arm64 fuses a multiply-add at $$d/$$f:$$n"; \
	done | tee "$$tmp/bad"; test ! -s "$$tmp/bad"
	$(GO) build -C benchmark -o /dev/null ./...
	$(GO) vet -C benchmark ./...

# Full suite. internal/bench regenerates paper figures from real sampler
# runs and is by far the slowest package; give it room. On a 2-core box it
# took 2,313 s before the harness sampled each workload once and 712 s
# after, most of it the ode workload's one run.
test:
	$(GO) test -timeout 1800s ./...

# Race pass over the packages that run goroutines against shared state:
# the parallel chains of the segment runner and their Progress calls, the
# streaming R-hat detector invoked where they meet, and the bayesd
# serving layer (admission queue, worker pool, cancellation) — and the
# hardware model, whose memo tables (hw.Memo: the LLC simulator's, and
# serve's per-spec energy account) are reached by every job runner and by
# the parallel start-up calibration — and bayesd itself, whose test
# SIGKILLs a durable coordinator process and restarts it on its journal.
race:
	$(GO) test -race ./internal/hw/... ./internal/mcmc/... ./internal/elide/... ./internal/serve/... ./internal/cluster/... ./internal/journal/... ./cmd/bayesd/...

# A few seconds of coverage-guided fuzzing per target on bytes that arrive
# from outside the process: the BSDW draw block (result uploads, blob
# store), the BSCK checkpoint block (checkpoint streams, blob store), the
# BSJL journal file a durable coordinator replays, the lease route's JSON
# body, wait_ms included, and the job-submission JSON body — and on the
# two encodings of the link functions and of the GLM row passes, which
# must agree on every float64 bit pattern. One -fuzz pattern per
# invocation is the toolchain's rule. New inputs go to the Go build
# cache; only a failing one is written under testdata/.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDraws$$' -fuzztime 5s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzLeaseRequestJSON$$' -fuzztime 5s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 5s ./internal/mcmc/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalOpen$$' -fuzztime 5s ./internal/journal/
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpecJSON$$' -fuzztime 5s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzLinkTwin$$' -fuzztime 5s ./internal/mathx/
	$(GO) test -run '^$$' -fuzz '^FuzzRowsTwin$$' -fuzztime 5s ./internal/mathx/

# Deterministic fault-injection matrix under the race detector: every
# sampler crossed with every injectable fault kind (panic, non-finite,
# slow iteration, cancel, worker loss), plus the checkpoint/resume and
# quarantine suites and the serve-layer retry tests they feed. Includes
# the batched column (TestFaultMatrixBatched, HMC and NUTS × the same
# five kinds, pinned to GOMAXPROCS 1 because mcmc.Config.BatchGrad fuses
# gradients only on one core): faults injected while chains share fused
# gradient sweeps must quarantine identically, with bit-identical draws and
# checkpoint-resume replay on the batched path, and slow iterations,
# cancels and worker losses must behave as they do unbatched. Its service
# column (TestFaultMatrixBatchedSpec) runs the same ten cells on a
# batchable job submitted as a serve.JobSpec, also at GOMAXPROCS 1; a
# served job's chains step on their own evaluators, so its draws are held
# to a per-chain reference run. Then the cluster columns: worker loss
# migration, the network-chaos partition matrix ({HMC,NUTS} ×
# {drop,dup,delay,partition-then-heal}), coordinator crash-restart
# from the durable journal, replay of hand-written and legacy logs, and a
# closed journal under every transition that journals a record.
fault-matrix:
	$(GO) test -race -run 'Fault|Checkpoint|Quarantine|Retry|Resume|Injector|NetChaos|Replay|Journal' \
		./internal/fault/... ./internal/mcmc/... ./internal/serve/... ./internal/cluster/...

# The draw and density pins and the determinism suites at one, two and
# eight procs: a chain's draws must not depend on GOMAXPROCS, and `go
# test` alone runs them only at the machine's default.
pins:
	$(GO) test -run 'DrawBitsUnchanged|DensityBitsUnchanged|Determinism' -cpu 1,2,8 ./internal/mcmc/ ./internal/workloads/

# Runner hot-path benchmarks with allocation accounting, at one and two
# procs. For the two batched-vs-unbatched pairs (…Lockstep4: HMC on a
# large GLM; …Registry: NUTS on registry jobs, batched as mcmc.Config.
# BatchGrad allows — bayesd itself never sets it) one proc is the sharing
# regime the coalescer exists for; at two procs the runner builds no
# coalescer, so both sides of each pair run the same unbatched path and
# should read alike. The
# BenchmarkGradient*{Kernel,Tape} pairs time one gradient on each path, with its tape nodes and edges, for all nine
# kernel-backed workloads (GLM is tickets; 12Cities, AD and Memory are the
# other batchable three) and the large-N NormalGLM. BenchmarkGradientBatch
# sweeps k = 1, 2, 4, 8: one fused K-chain gradient round (batched)
# against the same K evaluations one by one (per-chain).
bench-runner:
	$(GO) test -run xxx -bench 'BenchmarkRunner|BenchmarkGradient' -benchmem -cpu 1,2 ./internal/mcmc/

# The block link functions and the GLM row passes (tickets' p = 13 with
# group effects), one 128-observation block on each encoding (ns/obs),
# then one gradient of every kernel-backed workload
# (BenchmarkGradientGLMKernel is tickets at full scale).
bench-kernels:
	$(GO) test -run xxx -bench 'BenchmarkLogisticBlock|BenchmarkExpBlock|BenchmarkDotRows|BenchmarkAxpyRows' ./internal/mathx/
	$(GO) test -run xxx -bench 'BenchmarkGradient.*Kernel' -benchmem -cpu 1 ./internal/mcmc/

# Hardware-model benchmarks: the LLC simulator cold (the core itself) and
# as a memo hit at the suite's largest and smallest streams, and bayesd's
# start-up calibration cold and warm, at one and two procs (the
# calibration's goroutines are the only thing -cpu changes).
bench-hw:
	$(GO) test -run xxx -bench 'BenchmarkSimulateLLC|BenchmarkSuiteCalibration' -benchmem -cpu 1,2 ./internal/hw/

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Compare two result files of the repository benchmark (benchmark/README.md:
# `go run -C benchmark . -seed 7 -repeat 5` on each commit) with the
# benchmark's own comparator: one row per workload and end-to-end metric
# with its verdict, layer deltas below, non-zero exit on a regression.
bench-compare:
	@test -n "$(PARENT)" -a -n "$(CHANGE)" || { echo "usage: make bench-compare PARENT=<result.json> CHANGE=<result.json>"; exit 2; }
	$(GO) run -C benchmark . compare $(abspath $(PARENT)) $(abspath $(CHANGE))

# Report-only, outside `make ci`: every function declared outside _test.go
# files (for this GOOS/GOARCH) that no main package links. The commands,
# the examples and the benchmark are built with inlining off, so a call
# the compiler would inline still leaves its callee's symbol, and their
# `go tool nm` text symbols are matched against the declarations: generic
# shape names and the .abi0 suffix of assembly stubs are stripped, and a
# binary's main.X is renamed to its package path. CHANGES.md gives the
# reason each function it prints is kept.
deadcode:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for p in $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...) bayessuite/benchmark; do \
		if [ "$$p" = bayessuite/benchmark ]; then \
			$(GO) build -C benchmark -gcflags=all=-l -o "$$tmp/bin" . || exit 1; \
		else \
			$(GO) build -gcflags=all=-l -o "$$tmp/bin" "$$p" || exit 1; \
		fi; \
		$(GO) tool nm "$$tmp/bin" | awk '{ $$1 = ""; $$2 = ""; sub(/^ +/, ""); print }' | \
			sed -E -e ':a' -e 's/\[[^][]*\]//' -e 'ta' -e 's/\.abi0$$//' -e "s#^main\.#$$p.#" >> "$$tmp/linked"; \
	done; \
	sort -u -o "$$tmp/linked" "$$tmp/linked"; \
	$(GO) list -f '{{.ImportPath}} {{.Dir}}{{range .GoFiles}} {{.}}{{end}}' ./... | while read -r pkg dir files; do \
		for f in $$files; do \
			awk -v pkg="$$pkg" '/^func / { \
				l = substr($$0, 6); recv = ""; \
				if (l ~ /^\(/) { \
					r = substr(l, 2, index(l, ")") - 2); l = substr(l, index(l, ")") + 2); \
					gsub(/\[[^]]*\]/, "", r); n = split(r, part, " "); t = part[n]; \
					recv = (t ~ /^\*/) ? "(" t ")." : t "."; \
				} \
				name = l; sub(/[[(].*/, "", name); \
				if (name != "init" && name != "_") print pkg "." recv name; \
			}' "$$dir/$$f"; \
		done; \
	done | sort -u | comm -23 - "$$tmp/linked"
