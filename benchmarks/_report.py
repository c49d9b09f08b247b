"""Report emission for the benchmark harness.

Benches print the reproduced tables/figure series to the *real* stdout
(bypassing pytest capture, so the rows are visible in a plain
``pytest benchmarks/bench_*.py`` run) and write the same text to
``benchmarks/results/<bench>.txt``, an untracked output directory.
"""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Reports emitted during this pytest session, in emission order; the
#: conftest terminal-summary hook prints them after the run (pytest's
#: fd-level capture would otherwise swallow mid-test prints).
EMITTED: list[tuple[str, str]] = []


def emit(name: str, text: str) -> None:
    """Record ``text`` for the end-of-run summary and persist it."""
    EMITTED.append((name, text))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
