# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test lint lint-drift lint-baseline bench-ab bench-figures figures experiments experiments-md examples obs-demo faults-smoke serve-smoke governor-demo tables-demo docs-check clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# every tree the gate covers (keep in sync with CI and
# tests/integration/test_lint_clean.py)
LINT_TREES = src/repro examples tools tests benchmarks
LINT_CACHE = out/.lintcache/project.json

# repro-lint is self-contained (stdlib only); ruff/mypy run when installed
lint:
	$(PYTHON) -m repro.tools.repro_lint --statistics \
		--project-cache $(LINT_CACHE) $(LINT_TREES)
	@command -v ruff >/dev/null 2>&1 && ruff check src/repro tests examples || echo "ruff not installed, skipped"
	@command -v mypy >/dev/null 2>&1 && mypy || echo "mypy not installed, skipped"

# CI drift gate: fail only on findings not in lint-baseline.json
lint-drift:
	$(PYTHON) -m repro.tools.repro_lint --format github \
		--baseline lint-baseline.json \
		--project-cache $(LINT_CACHE) $(LINT_TREES)

# accept the current finding set as the new baseline
lint-baseline:
	$(PYTHON) -m repro.tools.repro_lint --write-baseline lint-baseline.json \
		--project-cache $(LINT_CACHE) $(LINT_TREES)

# same-host A/B serving benchmark: perfbench on this checkout and on
# BASE, alternately; fails when an end-to-end metric is worse than the
# base by more than its BENCHMARK.json bound (about 7 minutes)
BASE ?= HEAD~1
bench-ab:
	$(PYTHON) tools/perf_ab.py --base $(BASE)

# pytest-benchmark figure reproductions (slow)
bench-figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# regenerate every registered experiment through the engine: parallel,
# served from the content-addressed cache under out/.cache, exporting
# CSV/SVG artifacts and the provenance manifest into out/
figures:
	$(PYTHON) -m repro.experiments.runner --jobs 4 \
		--csv out/figures --svg out/figures --json out/figures \
		--manifest out/run_manifest.json > /dev/null

experiments:
	$(PYTHON) -m repro.experiments.runner

experiments-md:
	$(PYTHON) -m repro.experiments.report

examples:
	@set -e; for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f > /dev/null; done; echo all examples OK

# live power/throughput telemetry over the paper's K = 1..15 sweep
obs-demo:
	$(PYTHON) -m repro.tools.metrics_cli demo --kmax 15

# fault-injection smoke: headline stall agreement + a seeded chaos run
faults-smoke:
	$(PYTHON) -m pytest -q tests/integration/test_faults_smoke.py
	$(PYTHON) -m repro.tools.metrics_cli faults --k 4 --batches 8 --n-faults 5 --power

# sharded-tier smoke: 2 shard worker processes, ~50k lookups through
# the async front end checked against LookupService, clean shutdown
# with no lane arena or descriptor left behind, merged-metrics
# consistency; in dev mode, with an unclosed resource an error
serve-smoke:
	$(PYTHON) -X dev -W error::ResourceWarning -m repro.tools.serve_cli --shards 2 smoke --lookups 50000

# closed-loop DVS governor demo: governed load ramp with a fault
# window, energy per lookup against both static grades
governor-demo:
	$(PYTHON) -m repro.tools.metrics_cli governor
	$(PYTHON) -m repro.experiments.runner --tag governor

# real-RIB pipeline demo: parse the committed fixture, print the
# measured alpha / BRAM / power comparison (see docs/TABLES.md)
tables-demo:
	$(PYTHON) tools/tables_demo.py

# validate relative links in the markdown docs
docs-check:
	$(PYTHON) tools/check_links.py README.md EXPERIMENTS.md docs

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis out
	find . -name __pycache__ -type d -exec rm -rf {} +
