"""repro.parallel — the process-pool experiment engine.

The paper's comparative evaluation (Figures 3-5, Tables 1-3) tunes
every method over its full hyper-parameter grid per dataset and test
ratio.  :mod:`repro.eval` assembles those protocols once, over one
fused sweep that solves each (split, method) grid in chunks; this
package decides where the chunks run:

* :class:`ExperimentEngine` — the :mod:`repro.eval` protocols
  (:meth:`~ExperimentEngine.tune_method`,
  :meth:`~ExperimentEngine.tune_methods`,
  :meth:`~ExperimentEngine.compare_over_ratios`,
  :meth:`~ExperimentEngine.compare_over_k`, ...) with the chunks scored
  in-process at ``jobs=1`` or on a worker pool, reduced in submission
  order so results are bit-identical for any ``jobs``;
* :class:`SplitSnapshot` — one split plus its eagerly built shared
  structure (CSR transition matrix, decay fit, attention vectors), and
  a point-by-point :meth:`~SplitSnapshot.evaluate`;
* :func:`resolve_jobs` — ``--jobs`` semantics (``0`` = all cores).

CLI: ``repro compare --jobs N`` reproduces a figure panel in parallel,
``repro bench`` measures the speedup and writes ``BENCH_*.json``.
"""

from repro.parallel.engine import ExperimentEngine, resolve_jobs
from repro.parallel.snapshot import SplitSnapshot

__all__ = [
    "ExperimentEngine",
    "SplitSnapshot",
    "resolve_jobs",
]
