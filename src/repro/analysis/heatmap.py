"""Alpha-beta parameter heatmaps of AttRank (paper Figures 2, 6, 7).

For every attention window ``y``, the paper visualises AttRank's
effectiveness over the grid of (alpha, beta) coefficient pairs (gamma
implied by alpha + beta + gamma = 1).  :func:`attention_heatmap` computes
that sweep for any metric, recording per-window matrices, the per-window
maxima the figures annotate, and the overall best parameterisation
reported in Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.eval.metrics import Metric
from repro.eval.split import TemporalSplit
from repro.eval.tuning import tune_method

__all__ = ["HeatmapSweep", "attention_heatmap"]

_DEFAULT_ALPHAS = tuple(round(0.1 * i, 1) for i in range(6))  # 0 .. 0.5
_DEFAULT_BETAS = tuple(round(0.1 * i, 1) for i in range(11))  # 0 .. 1


@dataclass(frozen=True)
class HeatmapSweep:
    """The full alpha-beta-y sweep for one (dataset, metric) pair.

    Attributes
    ----------
    metric:
        Metric name.
    alphas, betas:
        Axis values.  Grid cells where ``gamma = 1 - alpha - beta`` falls
        outside [0, 0.9] are NaN (outside the paper's Table 3 space).
    values:
        ``values[y][b, a]`` = metric at ``alpha = alphas[a]``,
        ``beta = betas[b]``, window ``y``.
    """

    metric: str
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    values: Mapping[int, np.ndarray]

    def best_for_window(self, window: int) -> tuple[float, float, float]:
        """``(alpha, beta, value)`` of the window's maximum (the number
        printed above each panel of Figure 2)."""
        grid = self.values[window]
        flat = np.nanargmax(grid)
        b, a = np.unravel_index(flat, grid.shape)
        return self.alphas[a], self.betas[b], float(grid[b, a])

    def best_overall(self) -> dict[str, float]:
        """The Section-4.2 optimum: ``{alpha, beta, gamma, y, value}``."""
        best: dict[str, float] | None = None
        for window in self.values:
            alpha, beta, value = self.best_for_window(window)
            if best is None or value > best["value"]:
                best = {
                    "alpha": alpha,
                    "beta": beta,
                    "gamma": round(1.0 - alpha - beta, 10),
                    "y": float(window),
                    "value": value,
                }
        assert best is not None  # windows mapping is never empty
        return best

    def no_att_maximum(self) -> float:
        """Best value on the ``beta = 0`` row across windows (the NO-ATT
        reference the paper quotes against each optimum)."""
        row = self.betas.index(0.0)
        return float(
            np.nanmax([grid[row, :] for grid in self.values.values()])
        )

    def att_only_maximum(self) -> float:
        """Best value at ``beta = 1`` (alpha = 0) across windows."""
        if 1.0 not in self.betas:
            return float("nan")
        row = self.betas.index(1.0)
        col = self.alphas.index(0.0)
        return float(
            np.nanmax([grid[row, col] for grid in self.values.values()])
        )


def attention_heatmap(
    split: TemporalSplit,
    metric: Metric,
    *,
    windows: Sequence[int] = (1, 2, 3, 4, 5),
    alphas: Sequence[float] = _DEFAULT_ALPHAS,
    betas: Sequence[float] = _DEFAULT_BETAS,
) -> HeatmapSweep:
    """Sweep AttRank over the Table-3 grid on one split.

    The recency decay ``w`` is fitted once from the split's current
    network (as the paper fits it per dataset) and reused across all
    grid points, which both matches the methodology and avoids refitting
    in the inner loop.  Every valid cell of every window is one point
    of a single fused sweep (:func:`repro.eval.tuning.tune_method`).
    """
    from repro.core.recency import fit_decay_rate

    decay = fit_decay_rate(split.current).decay_rate
    cells: list[tuple[int, int, int]] = []
    points: list[dict[str, float]] = []
    for window in windows:
        for b, beta in enumerate(betas):
            for a, alpha in enumerate(alphas):
                gamma = round(1.0 - alpha - beta, 10)
                if not 0.0 <= gamma <= 0.9:
                    continue
                cells.append((int(window), b, a))
                points.append(
                    {
                        "alpha": alpha,
                        "beta": beta,
                        "gamma": gamma,
                        "attention_window": float(window),
                        "decay_rate": decay,
                    }
                )
    values = {
        int(window): np.full((len(betas), len(alphas)), np.nan)
        for window in windows
    }
    if points:
        swept = tune_method("AR", points, split, metric).sweep
        for (window, b, a), entry in zip(cells, swept):
            values[window][b, a] = entry.score
    return HeatmapSweep(
        metric=metric.name,
        alphas=tuple(float(a) for a in alphas),
        betas=tuple(float(b) for b in betas),
        values=values,
    )
