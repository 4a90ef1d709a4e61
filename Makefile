PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast bench bench-smoke audit audit-smoke trace-smoke stress-smoke tune-smoke loc

test:
	$(PYTHON) -m pytest -x -q

## Inner-loop subset: skips @slow statistical/trial-loop tests
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Full benchmark suite in parallel workers -> benchmarks/results/BENCH_results.json
bench:
	$(PYTHON) -m repro bench

## Fast (~30s) subset; fails on >2x regression vs benchmarks/BENCH_baseline.json
bench-smoke:
	$(PYTHON) -m repro bench --smoke

## Statistical guarantee audit (full trials) -> audit/AUDIT_report.json
audit:
	$(PYTHON) -m repro audit --no-check

## Seconds-fast audit; fails on broken guarantees or baseline regressions
audit-smoke:
	$(PYTHON) -m repro audit --smoke

## Observability smoke: trace-conformance tests + one live EXPLAIN ANALYZE
trace-smoke:
	$(PYTHON) -m pytest -m obs -q
	$(PYTHON) -m repro trace --demo tpch --scale 1 --metrics \
		"SELECT SUM(l_extendedprice) AS revenue FROM lineitem ERROR WITHIN 5% CONFIDENCE 95%"

## Tuner smoke: tuner test suite + public-API snapshot + one live seeded
## static-vs-tuned replay that must show >= 2x synopsis hit rate.
tune-smoke:
	$(PYTHON) -m pytest -q tests/test_public_api.py tests/test_query_options.py tests/test_tuner.py
	$(PYTHON) -m repro tune-replay --min-improvement 2.0

## Concurrency hammer: serving frontend + thread-safety audits + one live
## overload burst. Wrapped in a hard wall-clock timeout so a deadlock is
## a red build, not a hung one (pytest-timeout is not a dependency).
stress-smoke:
	timeout 600 $(PYTHON) -m pytest -m stress -q
	timeout 120 $(PYTHON) -m repro serve-bench --rows 100000 --burst 48

## Source line count per package (plain wc -l); ROADMAP's line-count ticks quote this
loc:
	@for d in $$(find src/repro -type d ! -name __pycache__ | sort); do \
		printf "%-24s %6d\n" "$$d" "$$(cat $$d/*.py | wc -l)"; \
	done
	@printf "%-24s %6d\n" total "$$(find src/repro -name '*.py' | xargs cat | wc -l)"
