"""Shared plumbing for the tracked perf-benchmark suite.

The figure benchmarks (``bench_fig*.py``) regenerate the paper's evaluation
through pytest-benchmark; this module instead backs the *tracked* suite
(``bench_perf_suite.py``) that every PR runs to keep a performance
trajectory: plain ``perf_counter`` timings, a machine fingerprint, and the
single JSON document written to ``BENCH_perf.json`` at the repository root.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.datagen import generate_tax
from repro.relational.relation import Relation

#: Repository root — BENCH_perf.json lives here so the trajectory is visible.
REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf.json"


def time_best(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def paired_times(
    baseline: Callable[[], object], treatment: Callable[[], object], pairs: int
) -> Tuple[List[float], List[float], float]:
    """Interleaved back-to-back timings of two callables.

    Returns ``(baseline_times, treatment_times, median per-pair ratio)``.
    The two runs of a pair share the machine's load conditions, so slow load
    drift cancels out of each ratio where it would poison a best-of or a
    pooled median; ABBA ordering (alternating which side runs first) keeps a
    monotonic drift from biasing every ratio the same way.  The collector
    runs between timings, never inside one.
    """

    def timed(fn: Callable[[], object]) -> float:
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            fn()
            return time.perf_counter() - started
        finally:
            gc.enable()

    baseline_times: List[float] = []
    treatment_times: List[float] = []
    for pair in range(pairs):
        if pair % 2 == 0:
            off, on = timed(baseline), timed(treatment)
        else:
            on, off = timed(treatment), timed(baseline)
        baseline_times.append(off)
        treatment_times.append(on)
    ratio = statistics.median(
        on / off for off, on in zip(baseline_times, treatment_times)
    )
    return baseline_times, treatment_times, ratio


def tax_relation(db_size: int, arity: int = 7, cf: float = 0.7, seed: int = 3) -> Relation:
    """The paper's synthetic Tax/cust relation (deterministic per seed)."""
    return generate_tax(db_size, arity=arity, cf=cf, seed=seed)


def machine_info() -> Dict[str, str]:
    """Fingerprint of the interpreter/host the numbers were taken on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def write_report(document: Dict, output: Path) -> None:
    """Write the benchmark document as stable, diff-friendly JSON."""
    output.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")


def render_rows(rows: List[Dict], columns: List[str]) -> str:
    """A minimal fixed-width text table (printed to the console log)."""
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c)
        for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


__all__ = [
    "REPO_ROOT",
    "DEFAULT_OUTPUT",
    "time_best",
    "paired_times",
    "tax_relation",
    "machine_info",
    "write_report",
    "render_rows",
]
