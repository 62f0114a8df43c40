# Local developer entry points, kept in lockstep with .github/workflows/ci.yml
# so a green `make ci` locally means a green CI run.

GO      ?= go
BIN     := $(CURDIR)/bin
VETTOOL := $(BIN)/adaedge-lint

# Per-target fuzz time for the smoke pass (CI uses the same value).
FUZZTIME ?= 20s

.PHONY: all build vet lint escape-gate escape-gate-update test race fuzz-smoke obs-smoke fleet-smoke bench-smoke doc-drift loc ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint builds the adaedge-lint vettool (internal/lint: codecpurity,
# nopanicdecode, lockdiscipline, seqdeterminism, bufownership,
# goroutinediscipline, nowallclock) and runs the whole suite over the tree
# via its -run front-end (per-analyzer counts, exit 0/1/2), exactly as the
# adaedge-lint CI job does.
lint: $(VETTOOL)
	$(VETTOOL) -run ./...

# escape-gate is the compile-time half of the zero-alloc contract: diff
# the -gcflags=-m escape decisions in the pinned hot-path files against
# the committed ESCAPES.baseline (DESIGN.md §10). escape-gate-update
# refreshes the baseline after an intentional change.
escape-gate: $(VETTOOL)
	$(VETTOOL) -escape

escape-gate-update: $(VETTOOL)
	$(VETTOOL) -escape -escape-update

$(VETTOOL): FORCE
	@mkdir -p $(BIN)
	$(GO) build -o $(VETTOOL) ./cmd/adaedge-lint

FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke mirrors the CI fuzz job: every Fuzz* target in the
# decoder-facing packages, the persisted-format readers in internal/store,
# the bit reader under them (differential against a bit-by-bit reference)
# and the bufownership analyzer (seeded with its fixture corpus) gets
# $(FUZZTIME) of fuzzing.
fuzz-smoke:
	@for pkg in ./internal/bitio ./internal/compress ./internal/store ./internal/transport ./internal/lint; do \
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

# fleet-smoke drives a small simulated fleet (v2 sessions, staggered
# outages, thundering-herd redial) end to end against one sharded
# collector; the run fails unless delivery is exactly-once.
fleet-smoke:
	./scripts/fleet_smoke.sh

# bench-smoke runs every root-package ablation benchmark once. Nothing
# else executes them, so this pass is what notices one that stopped
# compiling, errors, or b.Fatals because what it measures went missing.
bench-smoke:
	$(GO) test -run '^$$' -bench Ablation -benchtime 1x .

# doc-drift cross-checks README.md against the CLI flag surface in both
# directions: every defined flag must be documented, every documented
# flag must still exist.
doc-drift:
	./scripts/doc_drift.sh

# loc prints the non-test, non-vendor Go line count; CHANGES.md records it
# per PR (ROADMAP item 3: the simplification round must end lower than it
# started).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './vendor/*' ! -path '*/testdata/*' | xargs cat | wc -l

ci: build vet lint escape-gate race obs-smoke fleet-smoke bench-smoke doc-drift

clean:
	rm -rf $(BIN)
