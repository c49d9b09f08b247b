"""Grid-search tuning of ranking methods (paper Section 4.3).

The paper's comparative evaluation tunes every competitor per dataset
and per test ratio, reporting the best setting found ("for each dataset
and test ratio, we choose the parameterization with the best
correlation").  :func:`tune_method` reproduces that protocol: evaluate a
method over a parameter grid on one temporal split and return the
best-scoring setting along with the full sweep (the sweep is what the
heatmap figures visualise).

Every grid is solved by one bounded-memory fused sweep
(:meth:`Tuner.sweep`).  Each distinct fixed-point problem is solved
once: a point whose fused column has the key
(:meth:`repro.core.fused.FusedColumn.key`) of an earlier point on the
same split reads that point's values.  The paper's grids repeat
problems: NO-ATT is AttRank's ``beta = 0`` slice, ``beta = 0`` makes
AttRank's attention window irrelevant, and ``gamma = 0`` FutureRank's
``rho``.  The remaining points of a (split, method) grid are cut into
chunks of the width the fused solver batches at
(:func:`repro.core.fused.stack_width`, 16 columns on the benchmark
corpora).  Each chunk is solved in one
:func:`~repro.core.fused.solve_methods` pass and scored under every
metric asked for, and only the numbers are kept, so the score vectors
of one chunk at a time are alive.  The numbers are reduced in grid
order: the best setting is the first strictly greater score.  A
column's vector depends only on its inputs, and fused and
point-by-point solves are bit-identical, so every sweep value equals
:func:`evaluate_setting` at that point.

:class:`Tuner` scores chunks in-process.
:class:`repro.parallel.ExperimentEngine` inherits the protocols and
only changes where chunks run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Hashable, Iterable, Mapping, Sequence

from repro._typing import FloatVector
from repro.baselines import make_method
from repro.core.fused import solve_methods, stack_width
from repro.errors import EvaluationError
from repro.eval.metrics import Metric
from repro.eval.split import TemporalSplit

__all__ = [
    "SettingScore",
    "SweepChunk",
    "Tuner",
    "TuningResult",
    "evaluate_setting",
    "score_chunk",
    "tune_method",
    "tune_methods",
]


@dataclass(frozen=True)
class SettingScore:
    """One grid point: the parameters and the metric value they achieve."""

    params: Mapping[str, Any]
    score: float


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a grid search for one (method, split, metric) triple.

    Attributes
    ----------
    method:
        The method label tuned.
    metric:
        The metric name optimised.
    best:
        The best-scoring grid point.
    sweep:
        All evaluated grid points, in grid order.
    """

    method: str
    metric: str
    best: SettingScore
    sweep: tuple[SettingScore, ...]

    @property
    def best_params(self) -> Mapping[str, Any]:
        return self.best.params

    @property
    def best_score(self) -> float:
        return self.best.score


def evaluate_setting(
    method_name: str,
    params: Mapping[str, Any],
    split: TemporalSplit,
    metric: Metric,
) -> float:
    """Score one parameterisation of a method on one split.

    The scalar reference: one ``scores()`` call, one metric.  Sweeps
    reproduce it bit for bit.
    """
    method = make_method(method_name, **params)
    scores: FloatVector = method.scores(split.current)
    return float(metric(scores, split.sti))


@dataclass(frozen=True)
class SweepChunk:
    """Consecutive distinct grid points of one method, solved as one stack.

    Attributes
    ----------
    split_key:
        Which of the sweep's splits the points are scored on.
    method:
        Registry label of the method.
    points:
        The grid points (constructor keyword arguments).
    metrics:
        Every metric each point is scored with.
    """

    split_key: Hashable
    method: str
    points: tuple[Mapping[str, Any], ...]
    metrics: tuple[Metric, ...]


def score_chunk(
    split: TemporalSplit, chunk: SweepChunk
) -> list[tuple[float, ...]]:
    """Solve one chunk in one fused pass; per point, every metric value.

    The score vectors are dropped on return, so a sweep holds one
    chunk's vectors at a time.
    """
    methods = [make_method(chunk.method, **params) for params in chunk.points]
    return [
        tuple(float(metric(scores, split.sti)) for metric in chunk.metrics)
        for scores, _info in solve_methods(split.current, methods)
    ]


def _reduce(
    method_name: str,
    metric: Metric,
    points: Sequence[Mapping[str, Any]],
    scores: Sequence[float],
) -> TuningResult:
    """The sweep in grid order; the best is the first strictly greater.

    Each entry gets its own params dict: a protocol scores one grid
    under several metrics or splits, and its results must not alias.
    """
    sweep = tuple(
        SettingScore(params=dict(params), score=score)
        for params, score in zip(points, scores, strict=True)
    )
    best = sweep[0]
    for entry in sweep[1:]:
        if entry.score > best.score:
            best = entry
    return TuningResult(
        method=method_name, metric=metric.name, best=best, sweep=sweep
    )


class Tuner:
    """Runs grid sweeps, scoring their chunks in this process.

    Examples
    --------
    >>> from repro.synth import toy_network
    >>> from repro.eval.split import split_by_ratio
    >>> from repro.eval.metrics import SpearmanRho
    >>> from repro.eval.grids import ram_grid
    >>> split = split_by_ratio(toy_network(), 1.6)
    >>> result = Tuner().tune_method("RAM", ram_grid(), split, SpearmanRho())
    >>> len(result.sweep)
    9
    """

    def map_chunks(
        self,
        splits: Mapping[Hashable, TemporalSplit],
        chunks: Sequence[SweepChunk],
    ) -> Iterable[list[tuple[float, ...]]]:
        """Score ``chunks`` in order; one list of value rows per chunk."""
        return [score_chunk(splits[chunk.split_key], chunk) for chunk in chunks]

    def sweep(
        self,
        splits: Mapping[Hashable, TemporalSplit],
        grids: Sequence[tuple[Hashable, str, Sequence[Mapping[str, Any]]]],
        metrics: Sequence[Metric],
    ) -> list[tuple[TuningResult, ...]]:
        """Tune every ``(split_key, method, points)`` grid under every metric.

        Returns, per grid, one :class:`TuningResult` per metric.  Each
        point's fused column is built on its split and keyed, one column
        alive at a time; only the first point of each key, and every
        point without a column (the closed forms, WSDM), is solved.  The
        solved points of a grid are cut into chunks of the fused
        solver's batch width for its split; all chunks go to
        :meth:`map_chunks` in one call, and every point reads the values
        of the point that solved its problem.

        Raises
        ------
        EvaluationError
            If a grid is empty.
        """
        metrics = tuple(metrics)
        chunks: list[SweepChunk] = []
        # Per grid, per point: the row of the solved values it reads.
        sources: list[list[int]] = []
        first_row: dict[Hashable, int] = {}
        # Keys name matrices by ``id``: holding every keyed object until
        # the sweep ends keeps a freed one's id from naming another.
        held: list[Any] = []
        solved = 0
        for split_key, method, points in grids:
            if not points:
                raise EvaluationError(
                    f"empty parameter grid for method {method!r}"
                )
            network = splits[split_key].current
            kept: list[Mapping[str, Any]] = []
            rows: list[int] = []
            for params in points:
                column = make_method(method, **params).fused_column(network)
                key = None if column is None else column.key()
                if key is not None:
                    # Metric values are shared, not vectors, and they
                    # also depend on the split's ground truth.
                    key = (split_key, key)
                    if key in first_row:
                        rows.append(first_row[key])
                        continue
                    first_row[key] = solved
                    held.append(
                        (column.matrix, column.dangling, column.incidence)
                    )
                rows.append(solved)
                kept.append(params)
                solved += 1
            sources.append(rows)
            width = stack_width(network.n_papers)
            chunks.extend(
                SweepChunk(
                    split_key, method, tuple(kept[lo : lo + width]), metrics
                )
                for lo in range(0, len(kept), width)
            )
        values = list(chain.from_iterable(self.map_chunks(splits, chunks)))
        results: list[tuple[TuningResult, ...]] = []
        for (_split_key, method, points), rows in zip(grids, sources):
            # One row per point, one column per metric.
            columns = zip(*(values[row] for row in rows))
            results.append(
                tuple(
                    _reduce(method, metric, points, scores)
                    for metric, scores in zip(metrics, columns)
                )
            )
        return results

    def tune_methods(
        self,
        method_grids: Mapping[str, Iterable[Mapping[str, Any]]],
        split: TemporalSplit,
        metric: Metric,
    ) -> dict[str, TuningResult]:
        """Tune several methods on the same split; returns label -> result."""
        grids = [(None, name, list(grid)) for name, grid in method_grids.items()]
        results = self.sweep({None: split}, grids, (metric,))
        return {name: tuned for name, (tuned,) in zip(method_grids, results)}

    def tune_method(
        self,
        method_name: str,
        grid: Iterable[Mapping[str, Any]],
        split: TemporalSplit,
        metric: Metric,
    ) -> TuningResult:
        """Grid-search ``method_name`` over ``grid`` on ``split``.

        Ties on the metric keep the earlier grid point, making the
        selection deterministic.

        Raises
        ------
        EvaluationError
            If the grid is empty.
        """
        return self.tune_methods({method_name: grid}, split, metric)[
            method_name
        ]


# The module-level protocols run in this process.
_IN_PROCESS = Tuner()
tune_method = _IN_PROCESS.tune_method
tune_methods = _IN_PROCESS.tune_methods
