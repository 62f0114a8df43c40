# Local developer entry points, kept in lockstep with .github/workflows/ci.yml:
# each CI job runs the make target of its name. `make ci` runs all of them
# but three: fuzz-smoke, for its time (run it on its own), and staticcheck
# and govulncheck, which CI installs with `go install` from the network.

GO      ?= go

# Per-target fuzz time for the smoke pass (CI uses the same value).
FUZZTIME ?= 20s

.PHONY: all build vet fmt-check test race allocs fuzz-smoke obs-smoke fleet-smoke bench-smoke doc-drift loc ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails, naming the files, when gofmt would reformat any tracked
# Go file.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# test is the plain suite, run afresh: it is how a change is verified, and
# the race detector's slowdown hides what it checks on timing (the e2e
# smoke test's floor on the engine's Process share).
test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run '^(TestChaosExactlyOnceDeterministic|TestSessionTraceSingleWriterOrdered|TestPooledConnStateOwnership)$$' ./internal/transport
	$(GO) test -race -count=50 -run '^TestOfflineStatsPollRace$$' ./internal/core

# allocs runs the allocation and retained-heap pins without the race
# detector: every one of them skips under -race (sync.Pool drops Puts
# there), so `make race` alone never runs them.
allocs:
	$(GO) test -count=1 -run 'Allocs|RetainedBytes|ChunksReleased' ./...

# fuzz-smoke mirrors the CI fuzz job: every Fuzz* target in the
# decoder-facing packages, the persisted-format readers in internal/store,
# the bit reader under them (differential against a bit-by-bit reference)
# and the ml model loader gets $(FUZZTIME) of fuzzing.
fuzz-smoke:
	@for pkg in ./internal/bitio ./internal/compress ./internal/store ./internal/transport ./internal/ml; do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); \
		for t in $$targets; do \
			echo "--- $$pkg $$t"; \
			$(GO) test -run "^$$t$$" -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# obs-smoke runs cmd/adaedge with -debug-addr and curls every debug
# endpoint (metrics, vars, trace, pprof) end to end; see OBSERVABILITY.md.
obs-smoke:
	./scripts/obs_smoke.sh

# fleet-smoke drives a small simulated fleet (pipelined sessions, staggered
# outages, thundering-herd redial) end to end against one sharded
# collector; the run fails unless delivery is exactly-once.
fleet-smoke:
	./scripts/fleet_smoke.sh

# bench-smoke runs every root-package ablation benchmark and the per-codec
# kernel benchmark once. Nothing else executes them, so this pass is what
# notices one that stopped compiling, errors, or b.Fatals because what it
# measures went missing.
bench-smoke:
	$(GO) test -run '^$$' -bench Ablation -benchtime 1x .
	$(GO) test -run '^$$' -bench Codecs -benchtime 1x ./internal/compress

# doc-drift cross-checks README.md against the CLI flag surface in both
# directions: every defined flag must be documented, every documented
# flag must still exist.
doc-drift:
	./scripts/doc_drift.sh

# loc prints the non-test Go line count; CHANGES.md records it
# per PR (ROADMAP item 8: the simplification round must end lower than it
# started).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l

ci: build vet fmt-check test race allocs obs-smoke fleet-smoke bench-smoke doc-drift
