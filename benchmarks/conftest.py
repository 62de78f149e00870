"""Shared helpers for the benchmark harness.

Each ``benchmarks/test_*`` module regenerates one table or figure from
the paper's evaluation (sec. 10): it runs the experiment on the
simulator, prints the same rows/series the paper reports, asserts the
*shape* (who wins, rough factors, crossovers), and times the
experiment through the pytest-benchmark fixture (one round — the
experiments are deterministic, so repetition only measures the
harness).

Run:  PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import importlib.util

import pytest


def run_once(benchmark, fn):
    """Time ``fn`` exactly once through pytest-benchmark and return its
    result (experiments are deterministic; the timing measures the
    harness, the asserted science is in the returned data)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


if importlib.util.find_spec("pytest_benchmark") is None:
    # pytest-benchmark is CI-only; without it, substitute a fixture that
    # just calls the function so the experiments (and their assertions)
    # still run locally
    class _FallbackBenchmark:
        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _FallbackBenchmark()


def print_series(title: str, series, unit: str = "", every: int = 1) -> None:
    print(f"\n--- {title} ---")
    for i, (t, v) in enumerate(series):
        if i % every:
            continue
        print(f"  t={t:7.1f}s  {v:12.2f} {unit}")


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    print(f"\n--- {title} ---")
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
              for i, h in enumerate(headers)]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
