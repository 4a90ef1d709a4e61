PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast experiments audit audit-smoke trace-smoke stress-smoke tune-smoke loc

test:
	$(PYTHON) -m pytest -x -q

## Inner-loop subset: skips @slow statistical/trial-loop tests
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Paper-claim experiments (E1-E14, ablations, P1-P2) -> benchmarks/results/*.txt
experiments:
	$(PYTHON) -m pytest benchmarks/ --ignore=benchmarks/e2e -p no:benchmark -q

## Statistical guarantee audit (full trials) -> audit/AUDIT_report.json
audit:
	$(PYTHON) -m repro audit --no-check

## Seconds-fast audit; fails on broken guarantees or baseline regressions
audit-smoke:
	$(PYTHON) -m repro audit --smoke

## Observability smoke: trace-conformance tests + one live EXPLAIN ANALYZE
trace-smoke:
	$(PYTHON) -m pytest -m obs -q
	$(PYTHON) -m repro --demo tpch --scale 1 \
		"EXPLAIN ANALYZE SELECT SUM(l_extendedprice) AS revenue FROM lineitem ERROR WITHIN 5% CONFIDENCE 95%"

## Tuner smoke: tuner test suite (incl. the seeded >= 2x static-vs-tuned
## replay) + public-API snapshot
tune-smoke:
	$(PYTHON) -m pytest -q tests/test_public_api.py tests/test_query_options.py tests/test_tuner.py

## Concurrency hammer: serving frontend + thread-safety audits. Wrapped
## in a hard wall-clock timeout so a deadlock is a red build, not a hung
## one (pytest-timeout is not a dependency).
stress-smoke:
	timeout 600 $(PYTHON) -m pytest -m stress -q

## Source line count per package (plain wc -l); ROADMAP's line-count ticks quote this
loc:
	@for d in $$(find src/repro -type d ! -name __pycache__ | sort); do \
		printf "%-24s %6d\n" "$$d" "$$(cat $$d/*.py | wc -l)"; \
	done
	@printf "%-24s %6d\n" total "$$(find src/repro -name '*.py' | xargs cat | wc -l)"
