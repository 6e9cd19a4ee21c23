"""Shared reporting helpers for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
prints a paper-vs-measured comparison.  Absolute numbers differ (our
substrate is a Python field solver + MNA simulator, not the authors'
Raphael/HSPICE testbed); the asserted quantities are the *shapes*: who
wins, by roughly what factor, where the crossovers fall.
"""

from __future__ import annotations

from typing import Optional, Sequence


def report(title: str, rows: Sequence[Sequence[str]],
           header: Optional[Sequence[str]] = None) -> None:
    """Print an aligned paper-vs-measured table under a title."""
    print()
    print(f"=== {title} ===")
    all_rows = ([list(header)] if header else []) + [list(r) for r in rows]
    widths = [
        max(len(str(row[i])) for row in all_rows)
        for i in range(len(all_rows[0]))
    ]
    for k, row in enumerate(all_rows):
        line = "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
        print("  " + line)
        if header and k == 0:
            print("  " + "  ".join("-" * w for w in widths))


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
