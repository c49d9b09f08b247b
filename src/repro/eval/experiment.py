"""End-to-end experiment orchestration for the paper's figures.

A *comparison* reproduces one panel of Figures 3-5: on a given dataset,
for each test ratio (or each nDCG cut-off k), tune every method on its
paper grid and record the best value achieved.  The result objects carry
everything the benchmark harness needs to print the paper-style series.

The ablations are handled exactly as in the paper: NO-ATT is the
``beta = 0`` slice of AttRank's grid, ATT-ONLY the ``beta = 1`` slice,
and the full AttRank grid covers everything in between.

Each protocol is assembled once, on :class:`Experiment`, over the one
fused sweep of :mod:`repro.eval.tuning`: a protocol names its splits,
grids and metrics, and the sweep solves every (split, method) grid once.
The module-level drivers run the sweep's chunks in this process;
:class:`repro.parallel.ExperimentEngine` inherits the same protocols
and runs the chunks on worker processes, with bit-identical series
(``repro compare --jobs N`` on the command line).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import EvaluationError
from repro.eval.grids import (
    att_only_grid,
    attrank_grid,
    citerank_grid,
    ecm_grid,
    futurerank_grid,
    no_att_grid,
    ram_grid,
    wsdm_grid,
)
from repro.eval.metrics import NDCG, Metric, SpearmanRho
from repro.eval.split import DEFAULT_TEST_RATIOS, TemporalSplit, split_by_ratio
from repro.eval.tuning import Tuner, TuningResult
from repro.graph.citation_network import CitationNetwork

__all__ = [
    "COMPARISON_METHODS",
    "Experiment",
    "methods_available",
    "run_comparison_at_ratio",
    "ComparisonCell",
    "ComparisonSeries",
    "compare_over_ratios",
    "compare_over_k",
]

#: The method lineup of Figures 3-5, in the paper's legend order.
COMPARISON_METHODS: tuple[str, ...] = (
    "CR",
    "FR",
    "RAM",
    "ECM",
    "WSDM",
    "AR",
    "NO-ATT",
    "ATT-ONLY",
)


def _grid_for_lineup(method: str):
    """Grid factory for a lineup label, including the ablation slices."""
    factories = {
        "CR": citerank_grid,
        "FR": futurerank_grid,
        "RAM": ram_grid,
        "ECM": ecm_grid,
        "WSDM": wsdm_grid,
        "AR": attrank_grid,
        "NO-ATT": no_att_grid,
        "ATT-ONLY": att_only_grid,
    }
    try:
        return factories[method]()
    except KeyError:
        raise EvaluationError(
            f"method {method!r} is not part of the comparison lineup"
        ) from None


def methods_available(network: CitationNetwork) -> tuple[str, ...]:
    """The lineup restricted to what the network's metadata supports.

    WSDM needs venues (the paper runs it only on PMC and DBLP); the
    tuned FutureRank grid always includes beta > 0 settings and so needs
    authors.
    """
    methods = []
    for name in COMPARISON_METHODS:
        if name == "WSDM" and not (network.has_authors and network.has_venues):
            continue
        if name == "FR" and not network.has_authors:
            continue
        methods.append(name)
    return tuple(methods)


@dataclass(frozen=True)
class ComparisonCell:
    """One tuned method at one x-axis position of a comparison figure."""

    method: str
    x: float
    result: TuningResult

    @property
    def score(self) -> float:
        return self.result.best_score


@dataclass(frozen=True)
class ComparisonSeries:
    """One reproduced figure panel: method -> series over the x-axis.

    Attributes
    ----------
    dataset:
        Dataset label (for reports).
    metric:
        Metric name (``"spearman"`` or ``"ndcg@k"``).
    x_label:
        Meaning of the x values (``"test_ratio"`` or ``"k"``).
    x_values:
        The x-axis positions.
    cells:
        ``cells[method]`` is the list of :class:`ComparisonCell`, aligned
        with ``x_values``.
    """

    dataset: str
    metric: str
    x_label: str
    x_values: tuple[float, ...]
    cells: Mapping[str, tuple[ComparisonCell, ...]]

    def series(self, method: str) -> tuple[float, ...]:
        """The metric values of one method across the x-axis."""
        return tuple(cell.score for cell in self.cells[method])

    def winner_at(self, x: float) -> str:
        """The best method at x-position ``x`` (ties to lineup order)."""
        position = self.x_values.index(x)
        best_method, best_score = "", float("-inf")
        for method, cells in self.cells.items():
            if cells[position].score > best_score:
                best_method, best_score = method, cells[position].score
        return best_method


class Experiment(Tuner):
    """The paper's comparison protocols, each assembled once.

    Every protocol hands its grids to :meth:`~repro.eval.tuning.Tuner.sweep`
    in one call, so a pool sees the whole cross product of splits,
    methods and chunks at once.
    """

    def split(
        self, network: CitationNetwork, test_ratio: float
    ) -> TemporalSplit:
        """The temporal split every protocol tunes on."""
        return split_by_ratio(network, test_ratio)

    def run_comparison_at_ratio(
        self,
        network: CitationNetwork,
        test_ratio: float,
        metric: Metric,
        *,
        methods: Sequence[str] | None = None,
    ) -> dict[str, TuningResult]:
        """Tune every lineup method on one split; label -> tuning result."""
        panel = self.compare_over_ratios(
            network, metric=metric, test_ratios=(test_ratio,), methods=methods
        )
        return {name: cells[0].result for name, cells in panel.cells.items()}

    def compare_over_ratios(
        self,
        network: CitationNetwork,
        *,
        dataset: str = "dataset",
        metric: Metric | None = None,
        test_ratios: Sequence[float] = DEFAULT_TEST_RATIOS,
        methods: Sequence[str] | None = None,
    ) -> ComparisonSeries:
        """Reproduce one panel of Figure 3 (Spearman) or Figure 4 (nDCG@50).

        For each test ratio, every method is re-tuned (the paper's
        protocol) and its best metric value recorded.
        """
        chosen_metric = metric if metric is not None else SpearmanRho()
        lineup = tuple(
            methods if methods is not None else methods_available(network)
        )
        ratios = tuple(float(ratio) for ratio in test_ratios)
        splits = {
            ratio: self.split(network, ratio) for ratio in dict.fromkeys(ratios)
        }
        grids = {name: list(_grid_for_lineup(name)) for name in lineup}
        tuned = iter(
            self.sweep(
                splits,
                [(ratio, name, grids[name]) for name in lineup for ratio in ratios],
                (chosen_metric,),
            )
        )
        return ComparisonSeries(
            dataset=dataset,
            metric=chosen_metric.name,
            x_label="test_ratio",
            x_values=ratios,
            cells={
                name: tuple(
                    ComparisonCell(method=name, x=ratio, result=next(tuned)[0])
                    for ratio in ratios
                )
                for name in lineup
            },
        )

    def compare_over_k(
        self,
        network: CitationNetwork,
        *,
        dataset: str = "dataset",
        test_ratio: float = 1.6,
        k_values: Sequence[int] = (5, 10, 50, 100, 500),
        methods: Sequence[str] | None = None,
    ) -> ComparisonSeries:
        """Reproduce one panel of Figure 5: nDCG@k over k at a fixed ratio.

        The split is computed once, and each method's grid is solved
        once and scored under every cut-off; the best setting is still
        chosen separately per k (the paper selects "the
        parameterization ... that gives the best nDCG@k value" for
        every k).
        """
        lineup = tuple(
            methods if methods is not None else methods_available(network)
        )
        metrics = tuple(NDCG(k) for k in k_values)
        tuned = self.sweep(
            {test_ratio: self.split(network, test_ratio)},
            [(test_ratio, name, list(_grid_for_lineup(name))) for name in lineup],
            metrics,
        )
        return ComparisonSeries(
            dataset=dataset,
            metric="ndcg",
            x_label="k",
            x_values=tuple(float(k) for k in k_values),
            cells={
                name: tuple(
                    ComparisonCell(method=name, x=float(k), result=result)
                    for k, result in zip(k_values, results)
                )
                for name, results in zip(lineup, tuned)
            },
        )


# The module-level drivers run in this process.
_IN_PROCESS = Experiment()
run_comparison_at_ratio = _IN_PROCESS.run_comparison_at_ratio
compare_over_ratios = _IN_PROCESS.compare_over_ratios
compare_over_k = _IN_PROCESS.compare_over_k
