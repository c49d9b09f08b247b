"""Generic power-method solver with convergence diagnostics.

Every iterative method in this library (AttRank, PageRank, CiteRank,
FutureRank, ECM) is a fixed-point iteration ``x <- F(x)`` on a probability
vector.  This module centralises the loop semantics: start vector
handling, L1 residual tracking, tolerance/budget control, and the strict
convergence check that the paper's experiments use (epsilon <= 1e-12,
Section 4.3).

Since the fused-solver rework, the loop itself lives in
:class:`repro.core.fused.FusedSolver`; :func:`power_iterate` is the
degenerate one-column form.  Delegating (rather than keeping two loops)
makes "a single column behaves exactly like the legacy solver" a
structural property instead of a test-only promise — every scalar solve
in the suite exercises the same code the stacked multi-method path runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro._typing import FloatVector
from repro.errors import ConfigurationError, ConvergenceError
from repro.ranking import ConvergenceInfo

__all__ = [
    "power_iterate",
    "uniform_vector",
    "grow_start_vector",
    "DEFAULT_TOLERANCE",
]

#: The convergence error used throughout the paper's evaluation (§4.3).
DEFAULT_TOLERANCE = 1e-12


def uniform_vector(n: int) -> FloatVector:
    """The uniform probability vector of length ``n``."""
    if n <= 0:
        raise ConfigurationError(f"vector length must be positive, got {n}")
    return np.full(n, 1.0 / n, dtype=np.float64)


def grow_start_vector(previous: FloatVector, n: int) -> FloatVector:
    """Adapt a previous solution to a network that has grown to ``n`` papers.

    The incremental-update path (:mod:`repro.serve`) re-solves after
    appending papers to a snapshot.  Because extension preserves the
    indices of existing papers, the previous fixed point is an excellent
    start for every old coordinate: old entries are kept *verbatim* and
    new papers get the previous mean entry, so the vector's overall
    scale survives.  That matters for unnormalised fixed points like
    CiteRank's traffic vector (solved with ``normalize=False``);
    stochastic iterations renormalise their start inside
    :func:`power_iterate` anyway.  Theorem 1 guarantees the fixed point
    itself is unchanged by the start — only the iteration count
    improves.

    Raises
    ------
    ConfigurationError
        If ``previous`` is not a finite non-negative vector of length
        <= ``n``, or carries no mass at all.
    """
    if n <= 0:
        raise ConfigurationError(f"vector length must be positive, got {n}")
    vector = np.asarray(previous, dtype=np.float64)
    if vector.ndim != 1:
        raise ConfigurationError(
            f"previous solution must be a vector, got shape {vector.shape}"
        )
    if vector.size > n:
        raise ConfigurationError(
            f"previous solution has length {vector.size}, which exceeds "
            f"the grown network's {n} papers (length must be <= {n})"
        )
    if not np.all(np.isfinite(vector)) or np.any(vector < 0):
        raise ConfigurationError(
            "previous solution must be finite and non-negative"
        )
    total = float(vector.sum())
    if total <= 0:
        raise ConfigurationError("previous solution carries no mass")
    grown = np.full(n, total / vector.size, dtype=np.float64)
    grown[: vector.size] = vector
    return grown


def power_iterate(
    step: Callable[[FloatVector], FloatVector],
    n: int,
    *,
    tol: float = DEFAULT_TOLERANCE,
    max_iterations: int = 1000,
    start: FloatVector | None = None,
    normalize: bool = True,
    raise_on_failure: bool = True,
) -> tuple[FloatVector, ConvergenceInfo]:
    """Iterate ``x <- step(x)`` until the L1 change drops below ``tol``.

    Parameters
    ----------
    step:
        The fixed-point map.  For a column-stochastic matrix ``R`` this is
        ``lambda x: R @ x`` and the iteration is the power method.
    n:
        Vector length.
    tol:
        L1 convergence tolerance (paper default: 1e-12).
    max_iterations:
        Iteration budget.
    start:
        Starting vector (default: uniform).  The paper's Theorem 1
        guarantees the fixed point is independent of this choice.
    normalize:
        Renormalise the iterate to sum 1 after every step, guarding
        against floating-point drift.  Stochastic steps preserve total
        mass exactly in theory; the renormalisation is numerical hygiene.
    raise_on_failure:
        Raise :class:`ConvergenceError` if the budget is exhausted
        (default).  With ``False``, return the last iterate with
        ``converged=False`` — needed for FutureRank, which the paper
        notes "did not, in practice, converge under all possible
        settings".

    Returns
    -------
    (vector, info):
        The fixed point (or last iterate) and its
        :class:`~repro.ranking.ConvergenceInfo`.
    """
    from repro.core.fused import FusedColumn, FusedSolver

    column = FusedColumn(
        label="power_iterate",
        step=step,
        start=start,
        normalize=normalize,
        tol=tol,
        max_iterations=max_iterations,
        raise_on_failure=raise_on_failure,
    )
    solver = FusedSolver([column], n)
    ((vector, info),) = solver.solve()
    return vector, info
