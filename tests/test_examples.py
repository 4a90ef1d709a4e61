"""Smoke tests: the example scripts run end to end.

Each example is imported and executed with its data sizes patched down so
the whole file stays fast; the point is that the public API surface the
examples exercise keeps working, not the examples' timing.
"""

import importlib
import sys

import pytest


def load(name):
    sys.path.insert(0, "examples")
    try:
        module = importlib.import_module(name)
        importlib.reload(module)
        return module
    finally:
        sys.path.pop(0)


class TestExamples:
    def test_quickstart(self, capsys, monkeypatch):
        mod = load("quickstart")
        monkeypatch.setattr(mod, "NUM_ROWS", 60_000)
        mod.main()
        out = capsys.readouterr().out
        assert "exact execution" in out
        assert "no-silver-bullet matrix" in out

    def test_dashboard_analytics(self, capsys, monkeypatch):
        mod = load("dashboard_analytics")
        monkeypatch.setattr(mod, "NUM_ROWS", 80_000)
        mod.main()
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "drift=1.00" in out

    @pytest.mark.slow
    def test_telemetry_sketches(self, capsys, monkeypatch):
        mod = load("telemetry_sketches")
        monkeypatch.setattr(mod, "EVENTS", 100_000)
        monkeypatch.setattr(mod, "USERS", 20_000)
        mod.main()
        out = capsys.readouterr().out
        assert "distinct users" in out
        assert "sampling fails" in out

    @pytest.mark.slow
    def test_progressive_results(self, capsys):
        mod = load("progressive_results")
        mod.main()
        out = capsys.readouterr().out
        assert "online aggregation" in out
        assert "peeking" in out

    def test_resilience_demo(self, capsys, monkeypatch):
        mod = load("resilience_demo")
        monkeypatch.setattr(mod, "NUM_ROWS", 50_000)
        mod.main()
        out = capsys.readouterr().out
        assert "stale sample, widened bars" in out
        assert "partial-OLA snapshot" in out
        assert "typed refusal with provenance" in out
        assert "every rung of the degradation ladder failed" in out

    def test_sharding_demo(self, capsys, monkeypatch):
        mod = load("sharding_demo")
        monkeypatch.setattr(mod, "NUM_ROWS", 40_000)
        monkeypatch.setattr(mod, "BLOCK_SIZE", 1_024)
        mod.main()
        out = capsys.readouterr().out
        assert "merged == single-table" in out
        assert "served_hedged" in out
        assert "widened bars still cover" in out
        assert "covers truth: True  degraded=True" in out
        assert "typed refusal with provenance" in out

    def test_serving_demo(self, capsys, monkeypatch):
        mod = load("serving_demo")
        monkeypatch.setattr(mod, "NUM_ROWS", 20_000)
        mod.main()
        out = capsys.readouterr().out
        assert "identical — at shed level 0 the wrapper adds nothing" in out
        assert "rejected (reason='budget'" in out
        assert "rejected synchronously (typed, reason='overload')" in out
        assert "back to level 0 after" in out

    def test_observability_demo(self, capsys, monkeypatch):
        mod = load("observability_demo")
        monkeypatch.setattr(mod, "NUM_ROWS", 20_000)
        mod.main()
        out = capsys.readouterr().out
        assert "work units" in out
        assert "schema errors: none" in out
        assert "served from rung: stale_synopsis" in out
        assert "shard_status=served" in out
        assert 'shard_outcomes_total{status="served"}' in out

    def test_adhoc_exploration_importable(self):
        # The ad-hoc session builds a scale-5 TPC-H; too heavy for unit
        # tests, but its SESSION queries must at least parse and bind.
        from repro.sql.parser import parse_sql

        mod = load("adhoc_exploration")
        for _, sql in mod.SESSION:
            parse_sql(sql + " ERROR WITHIN 5% CONFIDENCE 95%")
