"""Shared evaluation snapshots — one precomputed context per split.

The expensive structure of a grid search — the CSR transition matrix,
the attention vectors of the grid's windows, the recency vector of the
fitted decay rate — depends on the split's current network, not on the
grid point.  :class:`SplitSnapshot` binds a split to that structure,
built eagerly, and scores one parameterisation at a time through
:func:`~repro.eval.tuning.evaluate_setting`.

The heavy lifting lives in the per-network memoisation layer
(:mod:`repro.graph.cache`), which the fused sweep of
:mod:`repro.eval.tuning` warms on its first chunk without this class;
a snapshot is for one-off point-by-point evaluations.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import ReproError
from repro.eval.metrics import Metric
from repro.eval.split import TemporalSplit
from repro.eval.tuning import evaluate_setting
from repro.graph.cache import cached_keys
from repro.graph.matrix import shared_operator

__all__ = ["SplitSnapshot"]


class SplitSnapshot:
    """One split plus its hoisted evaluation structure.

    Parameters
    ----------
    split:
        The temporal split every grid point is scored on.
    warm:
        Eagerly build the structure shared by *all* PageRank-style
        methods (the stochastic operator, the decay-rate fit) at
        construction time.  ``False`` defers everything to first use —
        useful when the snapshot may never be evaluated.

    Examples
    --------
    >>> from repro.synth import toy_network
    >>> from repro.eval.split import split_by_ratio
    >>> from repro.eval.metrics import SpearmanRho
    >>> snapshot = SplitSnapshot(split_by_ratio(toy_network(), 1.6))
    >>> score = snapshot.evaluate("CC", {}, SpearmanRho())
    >>> -1.0 <= score <= 1.0
    True
    """

    def __init__(self, split: TemporalSplit, *, warm: bool = True) -> None:
        self.split = split
        if warm:
            self.warm()

    def warm(
        self,
        grid: Iterable[Mapping[str, Any]] | None = None,
    ) -> "SplitSnapshot":
        """Precompute the shared structure (idempotent; returns ``self``).

        Without a ``grid``, builds what every iterative method needs:
        the column-stochastic operator and the decay-rate fit.  With a
        ``grid``, additionally touches the attention vector of every
        ``attention_window`` the grid mentions, so no grid point pays
        for a counting pass.
        """
        network = self.split.current
        shared_operator(network)
        try:
            from repro.core.recency import fit_decay_rate

            fit_decay_rate(network)
        except ReproError:
            # Degenerate citation-age distributions (tiny or synthetic
            # corpora) cannot be fitted; methods that need the fit will
            # raise the precise error at evaluation time.
            pass
        if grid is not None:
            from repro.core.attention import attention_vector

            windows = {
                float(params["attention_window"])
                for params in grid
                if "attention_window" in params
            }
            for window in sorted(windows):
                attention_vector(network, window)
        return self

    def evaluate(
        self,
        method_name: str,
        params: Mapping[str, Any],
        metric: Metric,
    ) -> float:
        """Score one parameterisation of ``method_name`` on this split.

        Exactly :func:`repro.eval.tuning.evaluate_setting` — same code
        path, same floating-point result — but against the snapshot's
        warm caches.
        """
        return evaluate_setting(method_name, dict(params), self.split, metric)

    @property
    def cached_structures(self) -> int:
        """How many derived artifacts are materialised (diagnostics)."""
        return len(cached_keys(self.split.current))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SplitSnapshot(ratio={self.split.test_ratio}, "
            f"n_current={self.split.current.n_papers}, "
            f"cached={self.cached_structures})"
        )
