"""The process-pool experiment engine.

The paper's evaluation protocol (Section 4.3, Figures 3-5) tunes every
method over its full hyper-parameter grid, per dataset and per test
ratio.  :class:`ExperimentEngine` runs those protocols exactly as
:mod:`repro.eval` assembles them — it inherits them from
:class:`~repro.eval.experiment.Experiment` — and decides only where the
sweep's chunks run:

* ``jobs=1`` scores every chunk in-process, with no pool and no
  pickling;
* ``jobs > 1`` scores them on a :mod:`concurrent.futures` process pool.
  The protocol's splits are shipped once per worker (pool initializer),
  each task is one chunk (a fused stack of consecutive grid points of
  one method), and results come back in submission order, so sweeps,
  tie-breaks and series are bit-identical to ``jobs=1`` for any
  ``jobs`` value.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Hashable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.eval.experiment import Experiment
from repro.eval.split import TemporalSplit, split_by_ratio
from repro.eval.tuning import SweepChunk, score_chunk
from repro.graph.citation_network import CitationNetwork

__all__ = ["ExperimentEngine", "resolve_jobs"]


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means "all cores".

    Raises
    ------
    ConfigurationError
        If ``jobs`` is negative.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


# ----------------------------------------------------------------------
# Worker-side state.  Populated by the pool initializer; each worker
# process owns an independent copy (and therefore independent caches).
# ----------------------------------------------------------------------
_WORKER_SPLITS: Mapping[Hashable, TemporalSplit] = {}


def _worker_init(splits: Mapping[Hashable, TemporalSplit]) -> None:
    """Pool initializer: receive the protocol's splits once per worker."""
    global _WORKER_SPLITS
    _WORKER_SPLITS = splits


def _worker_score(chunk: SweepChunk) -> list[tuple[float, ...]]:
    return score_chunk(_WORKER_SPLITS[chunk.split_key], chunk)


class ExperimentEngine(Experiment):
    """Run the paper's tuning protocols, in-process or on worker processes.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (default) scores in-process;
        ``0`` or ``None`` uses every core the machine reports.

    Examples
    --------
    >>> from repro.synth import toy_network
    >>> from repro.eval.split import split_by_ratio
    >>> from repro.eval.metrics import SpearmanRho
    >>> from repro.eval.grids import ram_grid
    >>> engine = ExperimentEngine(jobs=1)
    >>> split = split_by_ratio(toy_network(), 1.6)
    >>> result = engine.tune_method("RAM", ram_grid(), split, SpearmanRho())
    >>> len(result.sweep)
    9
    """

    def __init__(self, jobs: int | None = 1) -> None:
        self.jobs = resolve_jobs(jobs)

    def split(
        self, network: CitationNetwork, test_ratio: float
    ) -> TemporalSplit:
        # Looked up in this module at call time, so perfbench's tracer
        # can time the engine's splits (its ``eval.split`` span).
        return split_by_ratio(network, test_ratio)

    def map_chunks(
        self,
        splits: Mapping[Hashable, TemporalSplit],
        chunks: Sequence[SweepChunk],
    ) -> Iterable[list[tuple[float, ...]]]:
        """Score ``chunks`` in submission order, on the pool if ``jobs > 1``."""
        if self.jobs == 1 or len(chunks) <= 1:
            return super().map_chunks(splits, chunks)
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(chunks)),
            initializer=_worker_init,
            initargs=(dict(splits),),
        ) as pool:
            return list(pool.map(_worker_score, chunks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExperimentEngine(jobs={self.jobs})"
